"""What a fresh process loads: the package, the CLI and each verb import only what they run.

The CLI is used one process per command, so a process pays to import (and,
without a bytecode cache, compile) every module it loads.  ``grdcalc``
resolves its public names and layer modules on first access, ``cli`` reads
each layer through the package when a handler runs, ``mz`` reads ``probes``
that way only in the ``E15`` demo, and no module imports ``dataclasses``.
The loads are read in child processes, whose ``sys.modules`` start empty.  A patched layer
function must still be the one the CLI calls, because the benchmark's tracer
(``perfbench/tracer.py``) wraps the functions on their layer modules.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from importlib import import_module

import pytest

import grdcalc
from grdcalc import cli, equivalence, families, mz, probes
from test_cli import run_child

BASE = {"grdcalc", "grdcalc.cli", "grdcalc.scheme"}
LAYERS = ("equivalence", "families", "mz", "probes", "scheme")


def loaded(code: str) -> set[str]:
    """The ``grdcalc`` modules and ``dataclasses``, if loaded, after a child process runs ``code``."""
    report = (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('grdcalc', 'dataclasses'))))\n"
    )
    child = run_child([sys.executable, "-c", code + report])
    assert child.returncode == 0, child.stderr[-500:]
    return set(json.loads(child.stdout.splitlines()[-1]))


def test_a_bare_import_loads_no_submodule():
    assert loaded("import grdcalc") == {"grdcalc"}


def test_the_setup_command_loads_the_cli_and_scheme_only():
    assert loaded("import grdcalc.cli; grdcalc.cli.build_parser()") == BASE


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["construct", "--nodes", "0,1,3", "--order", "2"], set()),
        (["scale", "riemann:n=2", "--by", "2"], {"families"}),
        (["scale", '{"terms": [{"coeff": "1", "node": "1"}]}', "--by", "2"], set()),
        (["decompose", "shift:n=2,k=-1"], {"families"}),
        (["recognize", "gauss-fwd:n=2,q=3"], {"families"}),
        (["equiv", "--a", "riemann:n=1", "--b", "riemann:n=1"], {"families", "equivalence"}),
        (["mz-check", "shift:n=3,k=-1"], {"families", "equivalence", "mz"}),
        (["mz-set", "riemann:n=2", "shift:n=2,k=-1"], {"families", "equivalence", "mz"}),
        (["ggr", "--order", "3"], {"families", "equivalence", "mz"}),
        (["qggr", "--order", "3", "--ell", "0", "--q", "2"], {"families", "equivalence", "mz"}),
        (["ntimes", "--entry", "0:cont", "--entry", "1:riemann:n=1"], {"families", "equivalence", "mz"}),
        (["probe", "riemann:n=1", "--oracle", "abs"], {"families", "probes"}),
        (["demo", "E1"], {"families", "equivalence", "mz"}),
        (["demo", "E15"], {"families", "equivalence", "mz", "probes"}),
        (["demo", "E99"], set()),
    ],
    ids=lambda value: " ".join(value)[:40] if isinstance(value, list) else None,
)
def test_each_verb_loads_only_the_layers_it_runs(argv, layers):
    code = f"from grdcalc.cli import main\nmain({argv!r})"
    assert loaded(code) == BASE | {f"grdcalc.{layer}" for layer in layers}


def test_demo_help_names_every_demo_without_loading_the_catalog():
    code = "from grdcalc.cli import main\ntry:\n    main(['demo', '-h'])\nexcept SystemExit:\n    pass"
    assert loaded(code) == BASE
    assert cli.DEMO_NAMES == tuple(mz.DEMOS)
    with redirect_stdout(io.StringIO()) as out, pytest.raises(SystemExit):
        cli.main(["demo", "-h"])
    assert f"one of: {', '.join(mz.DEMOS)}" in " ".join(out.getvalue().split())


def test_every_public_name_is_the_object_of_its_layer():
    for name in grdcalc.__all__:
        value = getattr(grdcalc, name)
        if name in LAYERS:
            assert value is import_module(f"grdcalc.{name}")
            continue
        homes = [m for m in LAYERS if hasattr(import_module(f"grdcalc.{m}"), name)]
        assert homes and all(getattr(import_module(f"grdcalc.{m}"), name) is value for m in homes)
    assert set(grdcalc.__all__) <= set(dir(grdcalc))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        grdcalc.no_such_name  # noqa: B018


def test_a_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from grdcalc import *", namespace)
    assert all(namespace[name] is getattr(grdcalc, name) for name in grdcalc.__all__)
    # in a fresh process, where no name was resolved before
    code = (
        "from grdcalc import *\nimport grdcalc\n"
        "assert all(name in globals() for name in grdcalc.__all__)\n"
        "assert mz_check is grdcalc.mz.mz_check and Scheme is grdcalc.scheme.Scheme"
    )
    assert "dataclasses" not in loaded(code)


@pytest.mark.parametrize(
    "layer, name, argv",
    [
        (mz, "mz_check", ["mz-check", "shift:n=3,k=-1"]),
        (mz, "mz_set_check", ["mz-set", "riemann:n=2", "shift:n=2,k=-1"]),
        (equivalence, "decide_equivalent", ["equiv", "--a", "riemann:n=1", "--b", "riemann:n=1"]),
        (families, "named_scheme", ["scale", "riemann:n=2", "--by", "2"]),
        (families, "recognize_gaussian", ["recognize", "gauss-fwd:n=2,q=3"]),
        (probes, "limit_probe", ["probe", "riemann:n=1", "--oracle", "abs"]),
        (probes, "peano_probe", ["probe", "--peano", "1", "--oracle", "abs"]),
    ],
)
def test_a_patched_layer_function_is_the_one_the_cli_calls(monkeypatch, layer, name, argv):
    calls = []
    original = getattr(layer, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(layer, name, recording)
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert calls
