#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for grdcalc.

Run from the repository root:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 10 --trace 0

One client runs the workload's seeded commands in a closed loop through
``grdcalc.cli.main(["--output", "json", ...])`` in this single-threaded
process, so every run starts with empty caches, like a ``--batch`` session.
Each output is checked against the independent reference in
``checker.py``; checking time is excluded from the timed loop.  The last
stdout line is the result object; the line before it holds run metadata.

Both modes run a fixed number of commands, ``--seconds`` times a
per-workload rate, so one seed makes the same calls, fills the same caches
and reaches the same peak memory however fast the program is.  ``--trace 0``
reports the end-to-end metrics from an untraced loop.  ``--trace 1`` records
spans around each layer's public functions, then runs the same commands
untraced in a fresh process to measure the tracing overhead.
``--workload all`` runs every workload both ways.
``--list N`` prints the first N command lines (usable as a ``--batch`` file).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

from checker import judge  # noqa: E402  (HERE is sys.path[0] when run as a script)
from reference import F, lagrange  # noqa: E402
from workloads import WORKLOADS, commands  # noqa: E402

SETUP_CODE = "import sys; sys.path.insert(0, 'src'); import grdcalc.cli; grdcalc.cli.build_parser()"
SETUP_REPEATS = 9
DIGEST_CMDS = 50
# Commands per second of --seconds.  On the 2-core host the benchmark was
# written on, an untraced run of this many commands took 0.7 to 1 times
# --seconds of raw program time, as the machine's speed drifted.
RATE = {"catalog": 90, "construct-hi": 28, "probe": 14}
# p90 needs ten latency samples beyond it.
MIN_LATENCY_SAMPLES = 100
# On a shared host the machine's speed drifts by about +-20% over 5-20 s, in
# CPU time as much as in wall time.  After every command the loop times a
# fixed exact-arithmetic kernel from the benchmark's own code, never from
# grdcalc, and reported times are scaled by CAL_NOMINAL over the median
# kernel time of the nearest 2 * CAL_WINDOW + 1 samples: they read as times
# on a machine where the kernel takes CAL_NOMINAL seconds.  Raw times are in
# the metadata.
CAL_NODES = [F(i, 7) + F(1, i + 2) for i in range(12)]
CAL_NOMINAL = 0.0008
CAL_WINDOW = 3

E2E_UNITS = {
    "setup_s": "s",
    "cmds_per_s": "1/s",
    "lat_p50_ms": "ms",
    "lat_p90_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import grdcalc from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "grdcalc" / "cli.py").is_file():
        fail(f"no grdcalc sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import grdcalc
    import grdcalc.cli  # noqa: F401

    if Path(grdcalc.__file__).resolve().parent != SRC / "grdcalc":
        fail(f"imported grdcalc from {grdcalc.__file__}, not from {SRC}")
    return grdcalc


def calibrate() -> float:
    """Time the calibration kernel once, with the cycle collector paused so
    that objects the program left on the heap do not slow the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        lagrange(CAL_NODES, len(CAL_NODES) - 1)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(t: float, cals: list, i: int) -> float:
    """``t``, taken next to kernel sample ``i``, in seconds of the nominal machine."""
    return t * CAL_NOMINAL / statistics.median(cals[max(0, i - CAL_WINDOW): i + CAL_WINDOW + 1])


def time_setup() -> float:
    """Wall time of a fresh interpreter importing the CLI and building its parser."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True)
    return perf_counter() - t0


def command_count(workload: str, seconds: float) -> int:
    return math.ceil(RATE[workload] * seconds)


def run_loop(program, workload: str, seed: int, count: int, tracer=None, setups: int = 0) -> dict:
    """Closed loop over the first ``count`` commands; returns outcomes and timings.

    With ``setups``, that many interpreter starts are timed between commands,
    spread evenly over the run so that they see the same machine speed as
    the commands, after one untimed start that writes the bytecode cache.
    """
    cli = program.cli
    stream = commands(workload, seed)
    digest = hashlib.sha256()
    times, ok, cals, kinds, wrong = [], [], [], Counter(), []
    setup, setup_at = [], []
    program_s, out_bytes, cli_errors = 0.0, 0, 0
    if setups:
        time_setup()
    for i in range(count):
        if len(setup) < setups and i >= len(setup) * count / setups:
            setup.append(time_setup())
            setup_at.append(i)
        cmd = next(stream)
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.begin_command(i)
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(["--output", "json"] + cmd.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed command, not the end of the run
            rc = None
            err.write(f"{type(exc).__name__}: {exc}")
        dt = perf_counter() - t0
        cals.append(calibrate())
        program_s += dt
        text = out.getvalue()
        if tracer and rc != 0 and tracer.command_errors() == 0:
            cli_errors += 1
        if i < DIGEST_CMDS:
            digest.update(text.encode())
        out_bytes += len(text.encode())
        status, detail = judge(cmd.expect, rc, text, err.getvalue())
        times.append(dt)
        ok.append(status == "ok")
        if status != "ok":
            kinds[detail if status == "failed" else "wrong output"] += 1
        if status == "wrong":
            wrong.append((i, shlex.join(cmd.argv)[:300], detail))
    return {
        "attempted": count,
        "ok": sum(ok),
        "failed": count - sum(ok),
        "times": times,
        "ok_flags": ok,
        "scaled": [scale(t, cals, j) for j, t in enumerate(times)],
        "setup": setup,
        "setup_scaled": [scale(t, cals, j) for t, j in zip(setup, setup_at)],
        "cal_median_s": statistics.median(cals),
        "program_s": program_s,
        "kinds": dict(kinds),
        "wrong": wrong,
        "digest": digest.hexdigest(),
        "digest_cmds": min(count, DIGEST_CMDS),
        "out_bytes": out_bytes,
        "cli_errors": cli_errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def commit_id() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def metadata(args, loop: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "commit": commit_id(),
        "nproc": os.cpu_count(),
        "commands": loop["attempted"],
        "completed": loop["ok"],
        "failed": loop["failed"],
        "fail_frac": loop["failed"] / loop["attempted"],
        "failures": loop["kinds"],
        "latency_samples": loop["ok"],
        "loop_s": loop["program_s"],
        "loop_scaled_s": sum(loop["scaled"]),
        "calibration_median_s": loop["cal_median_s"],
        "output_sha256": loop["digest"],
        "output_sha256_cmds": loop["digest_cmds"],
    }


def timing_metrics(loop: dict, times: list) -> dict:
    lat_ms = sorted(1000 * t for t, ok in zip(times, loop["ok_flags"]) if ok)
    if len(lat_ms) < MIN_LATENCY_SAMPLES:
        fail(f"only {len(lat_ms)} of {loop['attempted']} commands completed; p90 needs "
             f"{MIN_LATENCY_SAMPLES} latency samples, so raise --seconds")
    return {
        "cmds_per_s": loop["ok"] / sum(times),
        "lat_p50_ms": statistics.median(lat_ms),
        "lat_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
    }


def untraced(program, args) -> tuple[dict, dict, dict]:
    loop = run_loop(program, args.workload, args.seed, command_count(args.workload, args.seconds),
                    setups=SETUP_REPEATS)
    values = {"setup_s": statistics.median(loop["setup_scaled"]), **timing_metrics(loop, loop["scaled"]),
              "ok_frac": loop["ok"] / loop["attempted"], "peak_rss_mb": loop["peak_rss_mb"]}
    meta = metadata(args, loop)
    meta["raw"] = {"setup_s": statistics.median(loop["setup"]), **timing_metrics(loop, loop["times"])}
    meta["setup_samples_s"] = loop["setup"]
    return loop, meta, {k: (v, E2E_UNITS[k]) for k, v in values.items()}


def traced(program, args) -> tuple[dict, dict, dict]:
    from tracer import Tracer

    count = command_count(args.workload, args.seconds)
    tracer = Tracer()
    tracer.install(program)
    membership = program.probes._membership
    before = membership.cache_info()
    loop = run_loop(program, args.workload, args.seed, count, tracer)
    after = membership.cache_info()
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if child.returncode not in (0, 1):
        fail(f"untraced reference run failed: {child.stderr.strip()[-500:]}")
    reference = json.loads(child.stdout.splitlines()[-2])["meta"]
    extra = {
        "cli_errors": loop["cli_errors"],
        "membership": (after.hits - before.hits, after.misses - before.misses),
        "out_bytes": loop["out_bytes"],
        "cmds": count,
        "overhead_frac": sum(loop["scaled"]) / reference["loop_scaled_s"] - 1,
    }
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl.gz"
    tracer.write(spans_path)
    meta = metadata(args, loop)
    meta["spans_file"] = str(spans_path.relative_to(ROOT))
    return loop, meta, tracer.metrics(extra)


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            sys.stderr.write(done.stderr)
            if done.returncode not in (0, 1):
                fail(f"{workload} --trace {trace} exited {done.returncode}")
            status = max(status, done.returncode)
            meta, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
            print(json.dumps({"workload": workload, "trace": trace, **meta}))
            for name, metric in result["metrics"].items():
                print(f"{workload:13s} {name:44s} {metric['value']:>16.6g} {metric['unit']}")
                merged["metrics"][f"{workload}/{name}"] = metric
            merged["correct"] &= result["correct"]
            if trace == 0:
                merged["attempted"] += result["attempted"]
                merged["failed"] += result["failed"]
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", type=int, default=None, metavar="N",
                        help="print the first N command lines and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.list is not None:
        if args.workload == "all":
            parser.error("--list needs one workload")
        stream = commands(args.workload, args.seed)
        for _ in range(args.list):
            print(shlex.join(next(stream).argv))
        return 0
    program = load_program()
    if args.workload == "all":
        return run_all(args)
    loop, meta, metrics = (traced if args.trace else untraced)(program, args)
    for i, argv, detail in loop["wrong"][:10]:
        print(f"perfbench: WRONG output of command {i}: {detail}\n    {argv}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not loop["wrong"],
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if loop["wrong"] else 0


if __name__ == "__main__":
    sys.exit(main())
