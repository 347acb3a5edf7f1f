"""One SHA-256 over the whole output of a benchmark workload's seeded command list.

The first ``count`` commands of the workload's seed-1 list run through
``cli.main(["--output", "json", ...])`` in this process, as
``perfbench/run.py`` runs them; the digest covers every command's exit
code, stdout and stderr.  This module needs the standard library only, so
that an interpreter without pytest can run it::

    PYTHONPATH=src python3.13 tests/whole_output.py catalog=1800 probe=280

prints one JSON object mapping each named workload to its digest.
``tests/test_whole_output.py`` pins the digests.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice
from pathlib import Path

from grdcalc import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import commands  # noqa: E402


def whole_output_digest(workload: str, count: int) -> str:
    digest = hashlib.sha256()
    for command in islice(commands(workload, 1), count):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(["--output", "json", *command.argv])
            except SystemExit as exc:
                code = exc.code
        digest.update(repr((code, out.getvalue(), err.getvalue())).encode())
    return digest.hexdigest()


if __name__ == "__main__":
    counts = dict(arg.split("=") for arg in sys.argv[1:])
    print(json.dumps({name: whole_output_digest(name, int(n)) for name, n in counts.items()}))
