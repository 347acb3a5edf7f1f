"""Command-line interface: verbs, formats, exit codes, batch mode."""

import argparse
import importlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import grdcalc
from grdcalc import cli
from grdcalc import (
    construct_exact,
    construct_exact_symmetric,
    decompose,
    mz_tilde,
    named_scheme,
    scale,
    scheme_to_json_dict,
)
from grdcalc.cli import DEMOS, main

D31 = construct_exact([-1, 0, 1, 2], 3)
D31_JSON = json.dumps(scheme_to_json_dict(D31))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- construct / scale / decompose ---------------------------------------------


def test_construct_nodes_json(capsys):
    code, out, _ = run(
        capsys, ["--output", "json", "construct", "--nodes", "-1,0,1,2", "--order", "3"]
    )
    assert code == 0
    assert json.loads(out) == scheme_to_json_dict(D31)


def test_construct_symmetric_text(capsys):
    code, out, _ = run(
        capsys, ["construct", "--pairs", "1", "--zero", "--order", "2"]
    )
    assert code == 0
    assert out.splitlines() == [
        "f(x+h) - 2*f(x) + f(x-h)",
        "order: 2   normalizer: 1/1",
    ]


def test_construct_requires_exactly_one_node_form(capsys):
    code, _, err = run(capsys, ["construct", "--order", "2"])
    assert code == 2 and "error:" in err
    code, _, err = run(
        capsys,
        ["construct", "--nodes", "0,1,2", "--pairs", "1", "--order", "2"],
    )
    assert code == 2 and "not both" in err


def test_scale_family_string(capsys):
    code, out, _ = run(
        capsys, ["--output", "json", "scale", "mz-tilde:n=3", "--by", "2"]
    )
    assert code == 0
    expected = scale(named_scheme(mz_tilde(3)), 2)
    assert json.loads(out) == scheme_to_json_dict(expected)


def test_decompose_inline_json(capsys):
    code, out, _ = run(capsys, ["--output", "json", "decompose", D31_JSON])
    assert code == 0
    plus, minus = decompose(D31, 3)
    assert json.loads(out) == {
        "plus": scheme_to_json_dict(plus),
        "minus": scheme_to_json_dict(minus),
    }


# --- equivalence ----------------------------------------------------------------


def write_scheme_file(path, terms):
    payload = {"terms": [{"coeff": c, "node": n} for c, n in terms]}
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_equiv_from_files(capsys, tmp_path):
    a = write_scheme_file(tmp_path / "a.json", [("-1", "0"), ("1", "1")])
    b = write_scheme_file(
        tmp_path / "b.json", [("2", "-1"), ("-5", "0"), ("3", "1")]
    )
    code, out, _ = run(
        capsys, ["--output", "json", "equiv", "--a", "@" + a, "--b", "@" + b]
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["equivalent"] is True
    assert verdict["witness"] == {"n": 1, "r": "1/1", "s": "1/1", "A": "1/1", "B": "5/1"}
    assert verdict["path"] == "General"

    code, out, _ = run(
        capsys, ["--output", "json", "equiv", "--a", "@" + b, "--b", "@" + a]
    )
    assert json.loads(out)["witness"]["B"] == "1/5"


def test_equiv_no_fast_flag(capsys):
    scaled = json.dumps(
        scheme_to_json_dict(scale(construct_exact([0, 1, 2], 2), 3))
    )
    code, out, _ = run(
        capsys,
        ["--output", "json", "equiv", "--a", "riemann:n=2", "--b", scaled, "--no-fast"],
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["equivalent"] is True
    assert verdict["path"] == "General"


def test_equiv_negative_text(capsys):
    code, out, _ = run(
        capsys, ["equiv", "--a", "riemann:n=2", "--b", "riemann:n=3"]
    )
    assert code == 0  # negative verdicts are successful computations
    assert "equivalent: no" in out
    assert "reason: OrderMismatch" in out


# --- recognition ------------------------------------------------------------------


def test_recognize_member_with_partner(capsys):
    code, out, _ = run(capsys, ["--output", "json", "recognize", "gauss-aff:n=2,q=2"])
    assert code == 0
    data = json.loads(out)
    assert data["match"] == {"variant": "GaussianAffine", "q": "2/1", "b": "1/1", "n": 2}
    assert data["partners"] == [
        {"variant": "GaussianAffine", "q": "1/2", "b": "4/1", "n": 2}
    ]


def test_recognize_none(capsys):
    code, out, _ = run(capsys, ["recognize", D31_JSON])
    assert code == 0
    assert out.strip() == "recognize: none"


# --- verdicts -----------------------------------------------------------------------


def test_mz_check_modes(capsys):
    code, out, _ = run(capsys, ["--output", "json", "mz-check", "riemann:n=3"])
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "known-not-mz"
    assert data["certificate"]["kind"] == "RiemannProvenNotMZ"

    code, out, _ = run(capsys, ["--output", "json", "mz-check", "riemann-sym:n=2"])
    assert json.loads(out)["status"] == "known-not-mz"

    code, out, _ = run(
        capsys, ["--output", "json", "mz-check", "riemann-sym:n=2", "--symmetric"]
    )
    assert json.loads(out)["status"] == "known-mz"


def test_mz_set_coverage(capsys):
    code, out, _ = run(
        capsys,
        ["--output", "json", "mz-set"]
        + [f"shift:n=4,k=-{k}" for k in (1, 2, 3, 4)],
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "known-mz"
    assert data["certificate"] == {"kind": "GgrSet", "n": 4, "reduced": False}


def test_ggr_listing(capsys):
    code, out, _ = run(capsys, ["--output", "json", "ggr", "--order", "3"])
    assert code == 0
    assert len(json.loads(out)["members"]) == 3
    code, out, _ = run(
        capsys, ["--output", "json", "ggr", "--order", "3", "--reduced"]
    )
    assert len(json.loads(out)["members"]) == 1


def test_qggr_ok_and_invalid(capsys):
    code, out, _ = run(
        capsys, ["--output", "json", "qggr", "--order", "2", "--ell", "0", "--q", "3"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["witnesses"] == [
        {"k": 0, "scale": "1/1"},
        {"k": 1, "scale": "3/1"},
        {"k": 2, "scale": "9/1"},
    ]
    code, _, err = run(
        capsys, ["qggr", "--order", "2", "--ell", "0", "--q", "1"]
    )
    assert code == 2 and "error:" in err


def test_ntimes_identity_chain(capsys, tmp_path):
    d31 = write_scheme_file(
        tmp_path / "d31.json",
        [("-1", "-1"), ("3", "0"), ("-3", "1"), ("1", "2")],
    )
    code, out, _ = run(
        capsys,
        [
            "--output",
            "json",
            "ntimes",
            "--entry",
            "0:cont",
            "--entry",
            '1:{"terms": [{"coeff": "-1", "node": "0"}, {"coeff": "1", "node": "1"}]}',
            "--entry",
            "2:riemann-sym:n=2",
            "--entry",
            "3:@" + d31,
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["peano_equivalence"] == "EstablishedByIdentity"
    assert data["all_mz"] is False
    assert len(data["identity_certificate"]["terms"]) == 3


def test_ntimes_bad_entry(capsys):
    code, _, err = run(capsys, ["ntimes", "--entry", "cont"])
    assert code == 2 and "error:" in err


# --- probes ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [11, 12])
def test_scale_prints_integers_past_the_digit_limit(capsys, n):
    # the script rows' nodes q**(2**j) outgrow the 4,300-digit int-to-str limit
    assert main(["--output", "json", "scale", f"scriptD-bar:n={n},q=3/2", "--by", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    terms = json.loads(captured.out)["terms"]
    assert max(len(t[key]) for t in terms for key in ("coeff", "node")) > 4300


def test_scale_reads_back_its_own_output_past_the_digit_limit(capsys):
    argv = ["--output", "json", "scale", "scriptD-bar:n=11,q=3/2", "--by", "1"]
    code, first, _ = run(capsys, argv)
    assert code == 0
    argv[3] = first
    code, again, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert again == first


def test_long_non_rational_gets_a_short_refusal(capsys):
    text = "7" * 9999 + "x"
    code, out, err = run(capsys, ["scale", "riemann:n=2", "--by", text])
    assert code == 2 and out == ""
    assert err.startswith("error: not a rational: '777")
    assert err.endswith("... (10002 characters)\n") and len(err) < 200


def test_probe_converges_json(capsys):
    code, out, _ = run(
        capsys, ["--output", "json", "probe", "riemann-sym:n=1", "--oracle", "abs"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "converges"
    assert data["estimate"] == "0/1"
    assert data["numeric_evidence"] is True


def test_probe_subgroup_off_zero(capsys):
    code, out, _ = run(
        capsys,
        ["--output", "json", "probe", "mz-tilde:n=2", "--oracle=subgmono:k=2;gens=2,3",
         "--x=1/7"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "converges"
    assert data["estimate"] == "0/1"


def test_probe_config_flags(capsys):
    code, out, _ = run(
        capsys,
        [
            "--output", "json", "probe", "riemann:n=1", "--oracle", "abs",
            "--h0", "1", "--ratios", "1/2", "--jmin", "4", "--jmax", "12",
            "--tol", "1/1000000",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["config"] == {
        "h0": "1/1",
        "ratios": ["1/2"],
        "j_min": 4,
        "j_max": 12,
        "tol": "1/1000000",
    }
    assert len(data["sequences"]) == 2  # one ratio, both signs
    assert data["verdict"] == "diverges"


def test_probe_peano_staging(capsys):
    code, out, _ = run(
        capsys, ["--output", "json", "probe", "--peano", "2", "--oracle", "sgnsq"]
    )
    assert code == 0
    stages = json.loads(out)["stages"]
    assert [s["order"] for s in stages] == [1, 2]
    assert stages[1]["report"]["verdict"] == "diverges"


def test_probe_argument_conflicts(capsys):
    code, _, err = run(
        capsys, ["probe", "riemann:n=1", "--peano", "2", "--oracle", "abs"]
    )
    assert code == 2 and "replaces" in err
    code, _, err = run(capsys, ["probe", "--oracle", "abs"])
    assert code == 2 and "needs a scheme" in err
    code, _, err = run(capsys, ["probe", "riemann:n=1", "--oracle", "nope"])
    assert code == 2


def test_probe_negative_monomial_degree(capsys):
    code, _, err = run(capsys, ["probe", "riemann:n=1", "--oracle", "mono:k=-1"])
    assert code == 2
    assert "error: monomial degree must be >= 0" in err


# --- demos ------------------------------------------------------------------------------


def test_all_demos_pass(capsys):
    for name in DEMOS:
        code, out, _ = run(capsys, ["demo", name])
        assert code == 0, f"demo {name} failed"
        assert f"[demo {name}]" in out


def test_unknown_demo(capsys):
    code, _, err = run(capsys, ["demo", "NOPE"])
    assert code == 2 and "unknown demo" in err


# --- input errors ------------------------------------------------------------------------


def test_malformed_inputs_exit_2(capsys):
    code, _, err = run(capsys, ["recognize", "{not json"])
    assert code == 2 and "invalid scheme JSON" in err
    code, _, err = run(capsys, ["recognize", "@/nonexistent/scheme.json"])
    assert code == 2 and "cannot read scheme file" in err
    code, _, err = run(capsys, ["recognize", "no-such-family:n=2"])
    assert code == 2 and "unknown family" in err
    code, _, err = run(capsys, ["construct", "--nodes", "0,0,1", "--order", "2"])
    assert code == 2


def test_argparse_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["construct", "--nodes", "0,1"])  # missing required --order
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-verb"])
    assert info.value.code == 2


def test_no_verb_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


# --- one parser per process ----------------------------------------------------------


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        if kwargs.get("prog") == "grdcalc":
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        assert run(capsys, ["construct", "--nodes", "0,1", "--order", "1"])[0] == 0
        assert run(capsys, ["mz-check", "riemann:n=2"])[0] == 0
    finally:
        cli.build_parser.cache_clear()
    assert len(built) == 1


def test_cached_parser_behaves_like_a_fresh_one(capsys):
    fresh = cli.build_parser.__wrapped__()
    for _ in range(2):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out == fresh.format_help()
        with pytest.raises(SystemExit) as info:
            main(["construct", "--nodes", "0,1"])
        assert info.value.code == 2
        assert "the following arguments are required: --order" in capsys.readouterr().err
    # parsed values do not carry over from one command to the next
    _, out, _ = run(capsys, ["--output", "json", "equiv", "--a", "riemann:n=2",
                             "--b", "riemann:n=2", "--no-fast"])
    assert json.loads(out)["path"] == "General"
    _, out, _ = run(capsys, ["--output", "json", "equiv", "--a", "riemann:n=2",
                             "--b", "riemann:n=2"])
    assert json.loads(out)["path"] == "FastNonNegNodes"


# --- batch mode ----------------------------------------------------------------------------


def test_batch_runs_all_lines(capsys, tmp_path):
    batch = tmp_path / "cmds.txt"
    batch.write_text(
        "# comment line\n"
        "\n"
        "construct --nodes 0,1,2 --order 2\n"
        "mz-check riemann:n=2\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, ["--batch", str(batch)])
    assert code == 0
    assert "order: 2" in out
    assert "status: known-mz" in out


def test_batch_json_output_propagates(capsys, tmp_path):
    batch = tmp_path / "cmds.txt"
    batch.write_text("construct --nodes 0,1 --order 1\n", encoding="utf-8")
    code, out, _ = run(capsys, ["--output", "json", "--batch", str(batch)])
    assert code == 0
    assert json.loads(out) == scheme_to_json_dict(construct_exact([0, 1], 1))


def test_batch_rejects_nesting_and_missing_file(capsys, tmp_path):
    batch = tmp_path / "cmds.txt"
    for line in ("--batch other.txt", "--batch=other.txt scale riemann:n=1 --by 2",
                 "--bat other.txt scale riemann:n=1 --by 2"):
        batch.write_text(line + "\n", encoding="utf-8")
        code, out, err = run(capsys, ["--batch", str(batch)])
        assert code == 2 and out == "" and "cannot nest" in err, line
    code, _, err = run(capsys, ["--batch", str(tmp_path / "missing.txt")])
    assert code == 2 and "cannot read batch file" in err


def test_batch_stops_on_first_error(capsys, tmp_path):
    batch = tmp_path / "cmds.txt"
    batch.write_text(
        "recognize no-such-family:n=2\n"
        "construct --nodes 0,1 --order 1\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, ["--batch", str(batch)])
    assert code == 2
    assert "order: 1" not in out  # second command never ran


def one_line_refusal(code, out, err):
    return code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


# an integer field of a family or oracle string, its parser, the command
# that reads it, and its refusal: a plain CalculusError with this message
INTEGER_FIELD_REFUSALS = [
    (grdcalc.parse_family, "riemann:n=x", ["mz-check"], "order n must be an integer"),
    (grdcalc.parse_family, "shift:n=3,k=1/2", ["mz-check"], "shift k must be an integer"),
    (grdcalc.parse_oracle, "mono:k=x", ["probe", "riemann:n=2", "--oracle"],
     "monomial degree must be an integer"),
    (grdcalc.parse_oracle, "subgmono:k=x;gens=2", ["probe", "riemann:n=2", "--oracle"],
     "subgroup degree must be an integer"),
]


@pytest.mark.parametrize("parse, text, argv, message", INTEGER_FIELD_REFUSALS)
def test_integer_fields_are_refused_with_their_message(capsys, parse, text, argv, message):
    with pytest.raises(grdcalc.CalculusError) as refusal:
        parse(text)
    assert type(refusal.value) is grdcalc.CalculusError and str(refusal.value) == message
    code, out, err = run(capsys, argv + [text])
    assert one_line_refusal(code, out, err) and err == f"error: {message}\n"


def test_deeply_nested_scheme_json_is_refused(capsys):
    nested = '{"terms": ' + "[" * 3000 + "]" * 3000 + "}"
    code, out, err = run(capsys, ["scale", nested, "--by", "1"])
    assert one_line_refusal(code, out, err)
    assert err.startswith("error: invalid scheme JSON: maximum recursion depth")


def test_non_utf8_files_are_refused(capsys, tmp_path):
    binary = tmp_path / "latin1.json"
    binary.write_bytes('{"terms": []} \u00e9'.encode("latin-1"))
    code, out, err = run(capsys, ["scale", "@" + str(binary), "--by", "1"])
    assert one_line_refusal(code, out, err) and "can't decode byte 0xe9" in err
    code, out, err = run(capsys, ["--batch", str(binary)])
    assert one_line_refusal(code, out, err) and "cannot read batch file" in err


def test_batch_line_with_an_unclosed_quote_is_refused(capsys, tmp_path):
    batch = tmp_path / "cmds.txt"
    batch.write_text('scale "riemann:n=2 --by 1\n', encoding="utf-8")
    code, out, err = run(capsys, ["--batch", str(batch)])
    assert one_line_refusal(code, out, err)
    assert err == "error: cannot split batch line: No closing quotation\n"


# characters of batch lines without quotes or backslashes: the blanks shlex
# splits on, whitespace it keeps inside words (\x0b, \x0c, \xa0) and a '#'
QUOTE_FREE_LINES = st.text(alphabet=" \t\r\n\x0b\x0c\xa0#ab-:=,/19")


@settings(max_examples=300)
@given(QUOTE_FREE_LINES)
def test_quote_free_batch_line_splits_into_shlex_words(text):
    line = text.strip()  # as main strips each batch line and skips empty ones
    if line:
        assert not cli._QUOTING.search(line)
        assert cli._BLANKS.split(line) == shlex.split(line)


def test_batch_lines_with_quoting_go_to_shlex(capsys, tmp_path):
    for line in ("'riemann:n=2'", '"riemann:n=2"', "riemann\\:n=2"):
        assert cli._QUOTING.search(line)
        batch = tmp_path / "cmds.txt"
        batch.write_text(f"scale {line} --by 1/2\n", encoding="utf-8")
        code, out, _ = run(capsys, ["--output", "json", "--batch", str(batch)])
        assert code == 0
        assert json.loads(out) == scheme_to_json_dict(scale(cli.read_scheme("riemann:n=2"), "1/2"))


def test_quote_free_batch_line_is_split_without_shlex(capsys, tmp_path, monkeypatch):
    # a 500,000-digit exponent that reads as 1 (shlex.split takes about 6 s on such a line)
    by = "1e" + "0" * 499_999 + "1"
    batch = tmp_path / "cmds.txt"
    batch.write_text(f"scale riemann:n=1 --by {by}\n", encoding="utf-8")

    def refuse(line):
        raise AssertionError("a quote-free batch line went to shlex.split")

    monkeypatch.setattr(cli.shlex, "split", refuse)
    code, out, _ = run(capsys, ["--output", "json", "--batch", str(batch)])
    assert code == 0
    assert json.loads(out) == scheme_to_json_dict(scale(cli.read_scheme("riemann:n=1"), 10))


def test_blank_split_is_many_times_faster_than_shlex():
    # shlex.split grows a word one character at a time, in time quadratic in
    # its length; the blank split is linear.  On this 100,000-character word
    # it is about 200x faster, so a 20x margin holds on a busy host.
    line = "scale riemann:n=1 --by 1e" + "0" * 100_000 + "1"
    words = ["scale", "riemann:n=1", "--by", line.rsplit(" ", 1)[1]]
    blank = []
    for _ in range(5):
        start = time.perf_counter()
        assert cli._BLANKS.split(line) == words
        blank.append(time.perf_counter() - start)
    start = time.perf_counter()
    assert shlex.split(line) == words
    quoting = time.perf_counter() - start
    assert min(blank) * 20 < quoting, f"blank split {min(blank):.6f} s, shlex.split {quoting:.6f} s"


# --- output stability -------------------------------------------------------------------------


def test_json_output_is_byte_stable(capsys):
    argv = ["--output", "json", "mz-check", "mz-tilde:n=4"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_symmetric_construct_matches_library(capsys):
    code, out, _ = run(
        capsys,
        ["--output", "json", "construct", "--pairs", "1,2", "--order", "3"],
    )
    assert code == 0
    expected = construct_exact_symmetric([1, 2], False, 3)
    assert json.loads(out) == scheme_to_json_dict(expected)


# --- entry points ------------------------------------------------------------------------------

# The console-script wrapper pip writes for a ``module:attr`` entry point.
CONSOLE_SCRIPT_TEMPLATE = """\
import re
import sys
from {module} import {import_name}
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
    sys.exit({attr}())
"""

CONSTRUCT_ARGV = ["--output", "json", "construct", "--nodes", "0,1", "--order", "1"]


def run_child(argv):
    """Run ``argv`` in a child process that imports the same ``grdcalc`` as this process."""
    env = dict(os.environ)
    package_root = str(Path(grdcalc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)


def test_ntimes_twelve_digit_order_is_refused_in_bounded_memory():
    # listing the 10**12 missing orders would need terabytes; the child
    # alone runs under a 1 GiB address-space limit, so a listing fails fast
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from grdcalc.cli import main\n"
        "sys.exit(main(['ntimes', '--entry', '0:cont', '--entry', '1000000000000:riemann:n=1']))\n"
    )
    result = run_child([sys.executable, "-c", code])
    assert result.returncode == 2, result.stderr[-300:]
    assert result.stderr.startswith("error: chain misses orders [1, 2, 3, ")
    assert result.stderr.endswith(", 27, ... (13888888888887 characters)\n")
    assert len(result.stderr.encode()) <= 300


def test_console_script_entry(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    module, _, attr = scripts["grdcalc"].partition(":")
    target = importlib.import_module(module)
    for name in attr.split("."):
        target = getattr(target, name)
    assert target is main

    script = tmp_path / "grdcalc"
    script.write_text(
        CONSOLE_SCRIPT_TEMPLATE.format(
            module=module, import_name=attr.split(".")[0], attr=attr
        ),
        encoding="utf-8",
    )

    result = run_child([sys.executable, str(script), *CONSTRUCT_ARGV])
    assert result.returncode == 0
    assert json.loads(result.stdout) == scheme_to_json_dict(construct_exact([0, 1], 1))

    refused = run_child([sys.executable, str(script), "construct", "--order", "2"])
    assert refused.returncode == 2
    assert "error:" in refused.stderr


@pytest.mark.skipif(shutil.which("grdcalc") is None, reason="grdcalc console script not on PATH")
def test_installed_console_script():
    result = run_child([shutil.which("grdcalc"), *CONSTRUCT_ARGV])
    assert result.returncode == 0
    assert json.loads(result.stdout) == scheme_to_json_dict(construct_exact([0, 1], 1))


def test_module_entry():
    module = run_child([sys.executable, "-m", "grdcalc", "demo", "E13"])
    assert module.returncode == 0
    assert "[demo E13]" in module.stdout


@pytest.mark.parametrize("name", list(DEMOS))
def test_demo_under_optimize_flag(name):
    result = run_child([sys.executable, "-O", "-m", "grdcalc", "demo", name])
    assert result.returncode == 0, result.stderr
    assert f"[demo {name}]" in result.stdout


def test_failed_identity_exits_3_under_optimize_flag():
    # a wrong expected verdict must still be caught when -O strips asserts
    code = (
        "import sys, grdcalc.cli as cli\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "cli.STATUS_MZ = 'not-mz'\n"
        "sys.exit(cli.main(['demo', 'P88']))\n"
    )
    result = run_child([sys.executable, "-O", "-c", code])
    assert result.returncode == 3
    assert "internal assertion failed" in result.stderr


# --- the JSON emitter --------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"
# every code point: non-ASCII, control characters and lone surrogates
any_text = st.text(st.characters(blacklist_categories=()))
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-10 ** 400, max_value=10 ** 400)
    | any_text,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(any_text, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300)
@given(json_values)
def test_json_emitter_matches_indented_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2)


class Text(str):
    """A str subclass: json.dumps writes it as its text, and so must the emitter."""


# keys that a %-template or a format string would misread, non-ASCII and lone surrogates
record_keys = st.lists(
    any_text | st.sampled_from(["%", "%s", "%%d", "{", "{0}", "}", "é", "\ud800", "h", "value"]),
    min_size=1,
    max_size=4,
    unique=True,
)
str_values = any_text | any_text.map(Text)
# each way a row can leave the records path: other key order, a missing or
# extra key, a value that is not a str, or a row that is not a dict
MISFITS = ("order", "missing", "extra", "int", "none", "nested", "list", "row")


@st.composite
def record_lists(draw, misfit):
    keys = draw(record_keys)
    values = st.tuples(*[str_values] * len(keys))
    rows = [dict(zip(keys, v)) for v in draw(st.lists(values, min_size=1, max_size=5))]
    if misfit is None:
        return rows
    kind = draw(st.sampled_from(MISFITS))
    row = dict(rows[0])
    first = keys[0]
    if kind == "order":
        row = {k: row[k] for k in keys[1:] + keys[:1]} if len(keys) > 1 else {}
    elif kind == "missing":
        del row[first]
    elif kind == "extra":
        row[draw(any_text.filter(lambda k: k not in keys))] = "x"
    elif kind == "row":
        row = draw(str_values)
    else:
        row[first] = {"int": 7, "none": None, "nested": {"a": "b"}, "list": ["a"]}[kind]
    rows.insert(draw(st.integers(0, len(rows))), row)
    return rows


@settings(max_examples=300)
@given(record_lists(None))
def test_json_emitter_writes_records_through_one_template(rows):
    assert cli._records(rows, "\n  ") is not None
    for value in (rows, {"samples": rows}, [rows, rows]):
        assert cli._json(value) == json.dumps(value, indent=2)


@settings(max_examples=300)
@given(record_lists(True))
def test_json_emitter_falls_back_on_a_misfit_row(rows):
    assert cli._records(rows, "\n  ") is None
    for value in (rows, {"samples": rows}):
        assert cli._json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_json_emitter_reproduces_every_golden_payload(path):
    text = path.read_text(encoding="utf-8")
    assert cli._json(json.loads(text)) + "\n" == text


# --- limits on probe inputs and exponents, in a child: without them these ran for minutes --

TEN_DIGIT_EXPONENT = "1e9999999999"
EXPONENT_REFUSAL = (
    f"error: a rational's exponent must be at most 4300 in magnitude, got '{TEN_DIGIT_EXPONENT}'\n"
)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["probe", "riemann:n=2", "--oracle=mono:k=99999999", "--x=1"],
         "error: the oracle degree must be at most 32, got 99999999\n"),
        (["probe", "--peano", "100000", "--oracle=mono:k=1", "--x=1/3"],
         "error: the probe depth n must be at most 16, got 100000\n"),
        (["probe", "riemann:n=1", "--oracle=abs", "--jmax", "9" * 4000],
         "error: j_max must be at most 256, got " + "9" * 100 + "... (4000 characters)\n"),
        # each input within its own limit, their product above MAX_PROBE_SIZE
        (["probe", "--peano", "16", "--oracle=mono:k=32", "--x=1/3", "--jmax", "256"],
         "error: the probe size depth * j_max**2 * degree must be at most 4194304, "
         "got 33554432\n"),
        # a rational's exponent, wherever a rational is read: Fraction would
        # compute 10**9999999999 from these 12 characters
        *(
            (argv, EXPONENT_REFUSAL)
            for argv in [
                ["scale", "riemann:n=2", "--by", TEN_DIGIT_EXPONENT],
                ["probe", "riemann:n=1", "--oracle=abs", "--x", TEN_DIGIT_EXPONENT],
                ["probe", "riemann:n=1", "--oracle=abs", "--h0", TEN_DIGIT_EXPONENT],
                ["scale", f"gauss-aff:n=2,q={TEN_DIGIT_EXPONENT}", "--by", "1"],
                ["scale", f'{{"terms":[{{"coeff":1,"node":"{TEN_DIGIT_EXPONENT}"}}]}}', "--by", "1"],
            ]
        ),
        # the product within its bound, times the digits of x, a ratio or h0 above it:
        # these ran for 52 s (38.6 MB of output), 10.9 s, 14.2 s and 2.2 s
        *(
            (["probe", "riemann:n=4", "--oracle=mono:k=32", option, "1/" + "7" * digits],
             "error: the probe size depth * j_max**2 * degree * digits must be at most 4194304, "
             f"got {40 ** 2 * 32 * digits}\n")
            for option, digits in [("--x", 3000), ("--x", 1000), ("--ratios", 300), ("--h0", 1000)]
        ),
    ],
)
def test_probe_inputs_over_a_limit_are_refused_at_once(argv, message):
    code = (
        "import resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from grdcalc.cli import main\n"
        "t0 = time.perf_counter()\n"
        "status = main(sys.argv[1:])\n"
        "print(time.perf_counter() - t0)\n"
        "sys.exit(status)\n"
    )
    result = run_child([sys.executable, "-c", code, *argv])
    assert result.returncode == 2, result.stderr[-300:]
    assert result.stderr == message
    assert float(result.stdout) < 1.0


def test_long_rational_is_read_in_subquadratic_time():
    # 500,000 digits: read through Decimal, as the rational reader once did,
    # the read took 10.5 s; it takes 0.42 s (one process, 2-core container).
    # The command that reads it as --by also prints it, which is timed apart.
    code = (
        "import io, sys, time\n"
        "from contextlib import redirect_stdout\n"
        "from grdcalc.cli import main\n"
        "from grdcalc.scheme import parse_rational\n"
        "by = '123456789' * 55555 + '12345'\n"
        "t0 = time.perf_counter()\n"
        "value = parse_rational(by)\n"
        "seconds = time.perf_counter() - t0\n"
        "with redirect_stdout(io.StringIO()) as out:\n"
        "    status = main(['--output', 'json', 'scale', 'riemann:n=1', '--by', by])\n"
        "print(status, by in out.getvalue(), value.denominator, seconds)\n"
    )
    result = run_child([sys.executable, "-c", code])
    status, found, denominator, seconds = result.stdout.split()
    assert (status, found, denominator) == ("0", "True", "1"), result.stderr[-300:]
    assert float(seconds) < 2.0


NINES_5000 = "9" * 5000


@pytest.mark.parametrize(
    "argv, message",
    [
        # integers past the 4,300-digit int-from-str limit are integers, refused by their limits
        (["recognize", f"riemann:n={NINES_5000}"], "error: family member too large: "),
        (
            ["scale", f"gauss-aff:n=2,k={NINES_5000},q=2", "--by", "1"],
            "error: family member too large: ",
        ),
        (
            ["probe", "riemann:n=1", f"--oracle=mono:k={NINES_5000}", "--x=1"],
            "error: the oracle degree must be at most 32, got 999",
        ),
        (
            ["probe", "riemann:n=1", f"--oracle=subgmono:k={NINES_5000};gens=2", "--x=1"],
            "error: the oracle degree must be at most 32, got 999",
        ),
        (["ggr", "--order", NINES_5000], "error: the ggr order must be at most 128, got 999"),
        (
            ["probe", "riemann:n=1", "--oracle=abs", "--jmax", NINES_5000],
            "error: j_max must be at most 256, got 999",
        ),
        (
            ["ntimes", "--entry", "0:cont", "--entry", f"{NINES_5000}:cont"],
            "error: chain misses orders [1, 2, 3, ",
        ),
    ],
)
def test_integers_past_the_digit_limit_get_their_real_refusal(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 2 and not out
    assert err.startswith(message)
    assert len(err.encode()) <= 300


@pytest.mark.parametrize("digits", [4000, 5000])
def test_missing_order_count_is_quoted_bounded(capsys, digits):
    # the count of missing orders has as many digits as the top order; it was quoted whole
    code, out, err = run(capsys, ["ntimes", "--entry", "0:cont", "--entry", "9" * digits + ":cont"])
    assert code == 2 and not out
    assert err.startswith("error: chain misses orders [1, 2, 3, ")
    assert err.endswith(f"... (a {digits + 4}-digit number of characters)\n")
    assert len(err.encode()) <= 300
