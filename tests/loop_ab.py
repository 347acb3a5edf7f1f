"""In-process loop time of each benchmark workload, for one or two source trees.

Each tree is a checkout holding ``src/grdcalc``.  For every workload the
script deals the benchmark's seed-N command list (``perfbench/workloads.py``
of this checkout, as many commands as ``perfbench/run.py`` runs in
``--seconds``) and runs it once in a fresh child interpreter per tree and
run, through ``grdcalc.cli.main(["--output", "json", ...])``.  The child
imports the CLI and every layer module before the loop, untimed, so the loop
time is the commands' own work with cold memos: no import, no start-up, no
checking.  It also hashes every output, so the script reports whether the
two trees print the same bytes for the whole list.  Runs are interleaved
(round by round, workload by workload, with the tree order alternating each
round), so drifts of the machine's speed fall on both trees alike.

For each workload and tree it prints the median loop time and its quartiles
in seconds; with two trees, the change of the median and the number of
rounds in which the second tree was faster, then one JSON line with the same
numbers.  It needs the standard library only::

    python3 tests/loop_ab.py --runs 10 PARENT_TREE CHANGED_TREE
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
LAYERS = ("equivalence", "families", "mz", "probes", "scheme")


def child(tree: Path, commands_file: Path) -> None:
    """Run the argv lists of ``commands_file`` through ``tree``'s CLI; print loop seconds and digest."""
    from contextlib import redirect_stderr, redirect_stdout
    from importlib import import_module
    from time import perf_counter

    sys.path.insert(0, str(tree / "src"))
    cli = import_module("grdcalc.cli")
    for layer in LAYERS:
        import_module(f"grdcalc.{layer}")
    cli.build_parser()
    digest, loop_s = hashlib.sha256(), 0.0
    for argv in json.loads(commands_file.read_text()):
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(["--output", "json"] + argv)
        except SystemExit as exc:
            rc = exc.code
        loop_s += perf_counter() - t0
        digest.update(f"{rc}\0{out.getvalue()}\0{err.getvalue()}\0".encode())
    print(json.dumps({"loop_s": loop_s, "digest": digest.hexdigest()}))


def run_child(tree: Path, commands_file: Path) -> dict:
    done = subprocess.run(
        [sys.executable, __file__, "--child", str(tree), str(commands_file)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(series: list[float]) -> tuple[float, float, float]:
    if len(series) < 2:
        return series[0], series[0], series[0]
    q1, median, q3 = statistics.quantiles(series, n=4, method="inclusive")
    return q1, median, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, help="checkouts with src/grdcalc (default: this one)")
    parser.add_argument("--runs", type=int, default=10, help="child runs per tree and workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20, help="as perfbench/run.py sizes its runs")
    parser.add_argument("--workload", action="append", help="one workload (repeatable; default: all)")
    parser.add_argument("--child", nargs=2, type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(*args.child)
        return 0
    trees = [t.resolve() for t in args.trees] or [ROOT]
    if len(trees) > 2 or args.runs < 1 or args.seconds <= 0:
        parser.error("give one or two trees, a positive --runs and positive --seconds")
    for tree in trees:
        if not (tree / "src" / "grdcalc" / "cli.py").is_file():
            parser.error(f"no src/grdcalc/cli.py under {tree}")
    sys.path.insert(0, str(PERFBENCH))
    import run
    from workloads import WORKLOADS, commands

    chosen = args.workload or list(WORKLOADS)
    if set(chosen) - set(WORKLOADS):
        parser.error(f"workloads are {', '.join(WORKLOADS)}")
    samples: dict = {}
    with tempfile.TemporaryDirectory(prefix="grdcalc-loop-ab-") as scratch:
        files = {}
        for workload in chosen:
            stream = commands(workload, args.seed)
            count = run.command_count(workload, args.seconds)
            files[workload] = Path(scratch, f"{workload}.json")
            files[workload].write_text(json.dumps([next(stream).argv for _ in range(count)]))
        for round_ in range(args.runs):
            for workload in chosen:
                order = list(enumerate(trees))
                for i, tree in order[::-1] if round_ % 2 else order:
                    samples.setdefault((workload, i), []).append(run_child(tree, files[workload]))
    result = {}
    for workload in chosen:
        runs = [samples[workload, i] for i in range(len(trees))]
        row = result[workload] = {}
        for tree, series in zip(trees, runs):
            q1, median, q3 = quartiles([r["loop_s"] for r in series])
            row[str(tree)] = {"median_s": median, "q1_s": q1, "q3_s": q3}
            print(f"{workload:13s} {str(tree)[-40:]:>40s} median {median:.4f} s"
                  f"  quartiles {q1:.4f}-{q3:.4f} s")
        digests = {r["digest"] for series in runs for r in series}
        row["same_output"] = len(digests) == 1
        if len(trees) == 2:
            times = [[r["loop_s"] for r in series] for series in runs]
            change = statistics.median(times[1]) / statistics.median(times[0]) - 1
            wins = sum(y < x for x, y in zip(*times))
            row.update(change=change, wins=wins)
            print(f"{workload:13s} second tree {change:+.1%} in the median, faster in {wins} of"
                  f" {args.runs} rounds; outputs {'identical' if row['same_output'] else 'DIFFER'}")
    print(json.dumps({"runs": args.runs, "seed": args.seed, "python": sys.version.split()[0],
                      "workloads": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
