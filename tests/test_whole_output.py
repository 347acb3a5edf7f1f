"""Whole output of the benchmark's seeded command lists, pinned by one SHA-256 per workload.

The first commands of each workload's seed-1 list run through
``cli.main(["--output", "json", ...])`` in this process, as
``perfbench/run.py`` runs them.  The digest covers every command's exit
code, stdout and stderr, so equal digests mean equal output over the whole
list.  A change that alters output on purpose re-records the digest and
says why in ``CHANGES.md``, as for a golden file; so does a change to the
command generator in ``perfbench/workloads.py``.
"""

from __future__ import annotations

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice
from pathlib import Path

import pytest

from grdcalc import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import commands  # noqa: E402

# workload -> (commands of the seed-1 list, SHA-256 of their exit codes, stdout and stderr)
WHOLE_OUTPUT = {
    "catalog": (1800, "4e873294480dafdb8fada5b27c4a20de66286b4295bcc0ea4c056668e2fddf4e"),
    "construct-hi": (560, "f6667145cf685a7f640516ca6d8eedc0075d557442608b95e5e0a523f6d0d168"),
    "probe": (280, "f02fb7b5f545444b4eddb706ebbc26e7747d21b33cbfada13347fbc808523de6"),
}


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


@pytest.mark.parametrize("workload", sorted(WHOLE_OUTPUT))
def test_whole_output_is_unchanged(workload):
    count, expected = WHOLE_OUTPUT[workload]
    assert whole_output_digest(workload, count) == expected
