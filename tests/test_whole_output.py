"""Whole output of the benchmark's seeded command lists, pinned by one SHA-256 per workload.

``whole_output.whole_output_digest`` runs the first commands of each
workload's seed-1 list through ``cli.main`` and hashes every command's exit
code, stdout and stderr, so equal digests mean equal output over the whole
list.  The digests are checked in this process, in a ``python -O`` child,
and in a child of every other ``python3.N`` (N >= 10) on ``PATH`` that
starts, since the package promises Python 3.10+.  A change that alters output on purpose re-records the digest
and says why in ``CHANGES.md``, as for a golden file; so does a change to the
command generator in ``perfbench/workloads.py``.

The same lists check the parse: every command is parsed by its verb's own
parser alone, into the namespace the full two-level parse gives.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import grdcalc
from grdcalc import cli
from whole_output import commands, whole_output_digest

# workload -> (commands of the seed-1 list, SHA-256 of their exit codes, stdout and stderr)
WHOLE_OUTPUT = {
    "catalog": (1800, "4e873294480dafdb8fada5b27c4a20de66286b4295bcc0ea4c056668e2fddf4e"),
    "construct-hi": (560, "f6667145cf685a7f640516ca6d8eedc0075d557442608b95e5e0a523f6d0d168"),
    "probe": (280, "f02fb7b5f545444b4eddb706ebbc26e7747d21b33cbfada13347fbc808523de6"),
}


@pytest.mark.parametrize("workload", sorted(WHOLE_OUTPUT))
def test_whole_output_is_unchanged(workload):
    count, expected = WHOLE_OUTPUT[workload]
    assert whole_output_digest(workload, count) == expected


@pytest.mark.parametrize("workload", sorted(WHOLE_OUTPUT))
def test_every_benchmark_command_is_parsed_by_its_verb_alone(monkeypatch, workload):
    # each command of the seed-1 list is parsed once, by the verb's own parser, into
    # the namespace the full two-level parse gives; the cached parser's parse_args,
    # the full parse, is never reached
    parser, full = cli.build_parser(), []
    monkeypatch.setattr(parser, "parse_args", lambda argv: full.append(argv))
    count, _ = WHOLE_OUTPUT[workload]
    for command in islice(commands(workload, 1), count):
        argv = ["--output", "json", *command.argv]
        assert cli._parse(parser, argv) == argparse.ArgumentParser.parse_args(parser, argv), argv
    assert full == []


def other_interpreters() -> list[str]:
    """Each ``python3.N`` (N >= 10) on ``PATH`` that starts, one per executable it runs,
    leaving out the one running this test."""
    seen, found = {os.path.realpath(sys.executable)}, []
    for folder in filter(None, os.environ.get("PATH", "").split(os.pathsep)):
        for path in sorted(Path(folder).glob("python3.*")):
            match = re.fullmatch(r"python3\.(\d+)", path.name)
            if not match or int(match[1]) < 10 or not os.access(path, os.X_OK):
                continue
            try:
                started = subprocess.run(
                    [str(path), "-c", "import os, sys; print(os.path.realpath(sys.executable))"],
                    capture_output=True, text=True, timeout=30,
                )
            except (OSError, subprocess.TimeoutExpired):
                continue
            executable = started.stdout.strip()
            if started.returncode == 0 and executable and executable not in seen:
                seen.add(executable)
                found.append(str(path))
    return found


def child_digests(interpreter: list[str]) -> dict:
    """The digests of ``WHOLE_OUTPUT``'s lists computed by ``whole_output.py`` in a child."""
    env = dict(os.environ)
    package_root = str(Path(grdcalc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    helper = str(Path(__file__).with_name("whole_output.py"))
    counts = [f"{name}={count}" for name, (count, _) in sorted(WHOLE_OUTPUT.items())]
    child = subprocess.run(
        [*interpreter, helper, *counts], capture_output=True, text=True, timeout=300, env=env
    )
    assert child.returncode == 0, (interpreter, child.stderr[-2000:])
    return json.loads(child.stdout)


EXPECTED = {name: digest for name, (_, digest) in WHOLE_OUTPUT.items()}


def test_whole_output_is_unchanged_under_optimize_flag():
    assert child_digests([sys.executable, "-O"]) == EXPECTED


def test_whole_output_is_unchanged_in_other_interpreters():
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other python3.N (N >= 10) on PATH starts")
    for interpreter in interpreters:
        assert child_digests([interpreter]) == EXPECTED, interpreter
