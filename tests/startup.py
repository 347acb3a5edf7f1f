"""Start-up time of fresh grdcalc processes, for one or two source trees.

Each tree is a checkout holding ``src/grdcalc``.  Three commands start a new
interpreter in the tree: the benchmark's setup command (import the CLI and
build its parser, as ``perfbench/run.py`` times it), one ``construct`` and
one ``mz-check``.  Each runs in two modes:

- ``cold``: no bytecode of ``grdcalc`` exists, so every start compiles the
  modules it imports; the standard library reads its cached bytecode;
- ``warm``: every module, ``grdcalc`` included, reads cached bytecode.

Both caches live in temporary ``PYTHONPYCACHEPREFIX`` directories, one per
tree and mode, filled by one untimed start of each command and
``compileall``; the ``cold`` one then loses ``grdcalc``'s files.  Timed
starts set ``PYTHONDONTWRITEBYTECODE=1``, so they write nothing and leave no
``__pycache__`` in the trees.  The starts are interleaved (round by round,
command by command, tree by tree, mode by mode), so drifts of the machine's
speed fall on every series alike.  The script prints, per tree, mode and
command, the median wall time and the median child CPU time
(``RUSAGE_CHILDREN``, user plus system) in milliseconds, then one JSON line
with the same numbers.  It needs the standard library only::

    python3 tests/startup.py --runs 40 PARENT_TREE CHANGED_TREE
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

PRELUDE = "import sys; sys.path.insert(0, 'src'); "
COMMANDS = {
    "setup": PRELUDE + "import grdcalc.cli; grdcalc.cli.build_parser()",
    "construct": PRELUDE + "from grdcalc.cli import main; "
    "sys.exit(main(['construct', '--nodes', '-1,0,1,2', '--order', '3']))",
    "mz-check": PRELUDE + "from grdcalc.cli import main; "
    "sys.exit(main(['mz-check', 'shift:n=3,k=-1']))",
}
MODES = ("cold", "warm")


def start(tree: Path, code: str, prefix: str, write: bool = False) -> tuple[float, float]:
    """Wall and child CPU seconds of one interpreter running ``code`` in ``tree``."""
    env = {**os.environ, "PYTHONPYCACHEPREFIX": prefix}
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None) if write else env.update(PYTHONDONTWRITEBYTECODE="1")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=tree, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    wall = perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return wall, (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def fill_cache(tree: Path, prefix: str, cold: bool) -> None:
    """Bytecode for everything the commands import, without ``grdcalc``'s when ``cold``."""
    for code in COMMANDS.values():
        start(tree, code, prefix, write=True)
    env = {**os.environ, "PYTHONPYCACHEPREFIX": prefix}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=tree, env=env, check=True)
    if cold:
        shutil.rmtree(Path(prefix) / (tree / "src").relative_to("/"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, help="checkouts with src/grdcalc (default: this one)")
    parser.add_argument("--runs", type=int, default=20, help="starts per tree, mode and command")
    args = parser.parse_args(argv)
    trees = [t.resolve() for t in args.trees] or [Path(__file__).resolve().parents[1]]
    if len(trees) > 2 or args.runs < 1:
        parser.error("give one or two trees and a positive --runs")
    for tree in trees:
        if not (tree / "src" / "grdcalc" / "cli.py").is_file():
            parser.error(f"no src/grdcalc/cli.py under {tree}")
    samples: dict = {}
    with tempfile.TemporaryDirectory(prefix="grdcalc-startup-") as scratch:
        prefixes = {}
        for i, tree in enumerate(trees):
            for mode in MODES:
                prefixes[i, mode] = os.path.join(scratch, f"{i}-{mode}")
                fill_cache(tree, prefixes[i, mode], cold=mode == "cold")
        for _ in range(args.runs):
            for name, code in COMMANDS.items():
                for i, tree in enumerate(trees):
                    for mode in MODES:
                        samples.setdefault((i, mode, name), []).append(
                            start(tree, code, prefixes[i, mode])
                        )
    result = {}
    for (i, mode, name), runs in samples.items():
        wall, cpu = (1000 * statistics.median(series) for series in zip(*runs))
        result.setdefault(str(trees[i]), {}).setdefault(mode, {})[name] = {
            "wall_ms": round(wall, 2), "cpu_ms": round(cpu, 2)
        }
        print(f"{str(trees[i])[-40:]:>40s} {mode:4s} {name:9s} wall {wall:7.2f} ms  cpu {cpu:7.2f} ms")
    print(json.dumps({"runs": args.runs, "python": sys.version.split()[0], "median_ms": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
