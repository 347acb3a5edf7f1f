"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import pytest  # noqa: E402
from checker import judge  # noqa: E402
from reference import F, fmt, lagrange  # noqa: E402
from workloads import WORKLOADS, Draw, _arg, commands, random_member  # noqa: E402


def take(workload: str, seed: int, n: int) -> list:
    return list(islice(commands(workload, seed), n))


def program_output(argv: list) -> tuple[int, str]:
    cli = run.load_program().cli
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(["--output", "json"] + argv)
    return rc, out.getvalue()


def first(workload: str, kind: str, **expect) -> object:
    return next(c for c in take(workload, 3, 200) if c.expect["kind"] == kind
                and all(c.expect.get(k) == v for k, v in expect.items()))


def test_generator_is_deterministic_per_seed():
    for workload in WORKLOADS:
        argvs = [c.argv for c in take(workload, 7, 40)]
        assert argvs == [c.argv for c in take(workload, 7, 40)]
        assert argvs != [c.argv for c in take(workload, 8, 40)]


def test_checker_rejects_a_coefficient_changed_by_a_thousandth():
    cmd = first("construct-hi", "construct")
    rc, text = program_output(cmd.argv)
    assert judge(cmd.expect, rc, text, "") == ("ok", "")
    data = json.loads(text)
    term = data["terms"][len(data["terms"]) // 2]
    term["coeff"] = fmt(Fraction(term["coeff"]) + Fraction(1, 1000))
    assert judge(cmd.expect, 0, json.dumps(data), "")[0] == "wrong"


def test_checker_rejects_a_witness_with_the_wrong_skew_factor():
    cmd = next(c for c in take("catalog", 3, 200) if c.expect["kind"] == "equiv"
               and c.expect["label"] and len(c.expect["a"]) > 2)
    rc, text = program_output(cmd.argv)
    assert judge(cmd.expect, rc, text, "") == ("ok", "")
    data = json.loads(text)
    data["witness"]["B"] = fmt(Fraction(data["witness"]["B"]) * 2 + 1)
    assert judge(cmd.expect, 0, json.dumps(data), "")[0] == "wrong"


def test_checker_rejects_a_changed_probe_sample_and_a_wrong_catalog_status():
    cmd = first("probe", "probe", oracle="abs")
    rc, text = program_output(cmd.argv)
    assert judge(cmd.expect, rc, text, "") == ("ok", "")
    data = json.loads(text)
    sample = data["sequences"][0]["samples"][3]
    sample["value"] = fmt(Fraction(sample["value"]) + Fraction(1, 10 ** 12))
    assert judge(cmd.expect, 0, json.dumps(data), "")[0] == "wrong"

    cmd = first("catalog", "mz-check", label="known-not-mz")
    rc, text = program_output(cmd.argv)
    assert judge(cmd.expect, rc, text, "") == ("ok", "")
    data = json.loads(text)
    data.update(status="open", certificate=None, conjecture="R-MZ")
    assert judge(cmd.expect, 0, json.dumps(data), "")[0] == "wrong"


def test_checker_rejects_open_for_an_unlabeled_geometric_equivalent():
    # Nodes {0, 1, 3} at order 2 are the forward geometric member with q = 3;
    # a class member of it carries no catalog label.
    s = random_member(Draw("geometric-open"), lagrange([F(0), F(1), F(3)], 2))
    expect = {"kind": "mz-check", "scheme": s, "label": None}
    rc, text = program_output(["mz-check", _arg(s)])
    assert judge(expect, rc, text, "") == ("ok", "")
    data = json.loads(text)
    assert data["status"] == "known-mz"
    data.update(status="open", certificate=None, conjecture="G-MZ")
    assert judge(expect, 0, json.dumps(data), "")[0] == "wrong"


def test_forced_nonzero_exits_count_as_failed():
    real = run.load_program().cli.main
    calls = []

    def every_third_fails(argv):
        calls.append(argv)
        if len(calls) % 3 == 0:
            print("error: forced", file=sys.stderr)
            return 2
        return real(argv)

    program = SimpleNamespace(cli=SimpleNamespace(main=every_third_fails))
    loop = run.run_loop(program, "catalog", 5, 30)
    assert (loop["attempted"], loop["ok"], loop["failed"]) == (30, 20, 10)
    assert loop["kinds"] == {"exit 2: error: forced": 10} and not loop["wrong"]


def test_too_few_latency_samples_is_an_error():
    loop = {"attempted": 120, "ok_flags": [True] * 99 + [False] * 21}
    with pytest.raises(SystemExit) as exc:
        run.timing_metrics(loop, [0.01] * 120)
    assert exc.value.code == 2


def traced_calls(seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "catalog", "--seed", str(seed),
         "--seconds", "2", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


def test_traced_counts_repeat_for_a_seed():
    counts = traced_calls(4)
    assert counts["equivalence.decide_equivalent.calls"] > 0
    assert counts["trace.cmds"] == run.command_count("catalog", 2)
    assert counts == traced_calls(4)


def test_exits_nonzero_without_program_sources():
    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert done.returncode != 0 and done.stdout == ""
