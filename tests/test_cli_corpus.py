"""A fixed, seeded corpus of command lines run through ``cli.main`` in one process.

Every verb is drawn, with scheme strings, rationals, integers and oracles
mixed from small pools of valid, degenerate and malformed values: family
strings at and past their parameters' edges, inline JSON, rationals with a
zero denominator, a newline or a long exponent, integers at any length, and
oracles up to ``mono:k=33`` and a 40-coefficient ``poly``, plus inline JSON
with a 5,001-digit integer literal and a long decimal literal.  Each command
must answer (exit 0) or refuse in the one refusal shape (exit 2 with one
stderr line of at most 300 bytes); none may raise or report an internal
fault (exit 3).  Option values are passed as ``--opt=value``, and integer
options get integers, so every command reaches the program rather than
stopping in the argument parser, whose own errors print a usage line too.

The same corpus runs once more in a ``python -O`` child under an
address-space and a CPU-time limit, set on that child only, and must give
every command the same exit code and output there.  The answered commands,
written to one file with ``shlex.join``, run as one ``--batch`` and must
print what they print one by one.
"""

import hashlib
import io
import json
import os
import random
import resource
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import grdcalc
from grdcalc.cli import main
from grdcalc.mz import DEMOS

SEED = 20261020
COUNT = 200

# each pool: values that are answered, then degenerate or malformed ones
FAMILIES = (
    [
        "riemann:n=1", "riemann:n=3", "riemann-sym:n=2", "riemann-sym:n=4", "shift:n=2,k=-1",
        "shift:n=3,k=-2", "gauss-fwd:n=3,q=2", "gauss-aff:n=2,q=3/2",
        "gauss-aff:n=3,k=-1,q=-1/2", "gauss-sym:n=4,q=3", "mz-tilde:n=4", "mz-tilde-sym:n=3",
        "scriptD:n=3,q=2", "scriptD-bar:n=2,q=1/3",
        '{"terms":[{"coeff":"-1","node":"0"},{"coeff":"1","node":"1"}]}',
        '{"terms":[{"coeff":"1","node":"-1"},{"coeff":"-2","node":"0"},{"coeff":"1","node":"1"}]}',
        '{"terms":[{"coeff":"2","node":"0"},{"coeff":"-2","node":"1"}]}',
    ],
    [
        "riemann:n=0", "riemann:n=-1", "riemann:n=836", "gauss-aff:n=2,q=1", "gauss-aff:n=2,q=0",
        "gauss-fwd:n=2", "shift:n=2", "riemann:n=2,k=1", "riemann:n=x", "nope:n=2", "riemann",
        "riemann:n=" + "9" * 40,
        '{"terms":[{"coeff":"1","node":"0"},{"coeff":"1","node":"0"}]}',
        '{"terms":[{"coeff":"0","node":"1"}]}', '{"terms":[]}',
        '{"terms":[{"coeff":"1/0","node":"1"}]}', '{"terms": [', "[1, 2]",
        "@/nonexistent/scheme.json",
    ],
)
RATIONALS = (
    ["1", "-1", "2", "1/3", "-2/3", "3/2", "1/2", "-1/2", "0.25", "1e3", "-7/5"],
    ["0", "1/0", "abc", "", "1e999999", "2\n3", "1/" + "7" * 60],
)
ORACLES = (
    [
        "abs", "sgnsq", "mono:k=0", "mono:k=2", "mono:k=33", "poly:1,0,-2",
        "poly:" + ",".join(str(i % 7 - 3) for i in range(40)), "subgmono:k=2;gens=2,3",
        "subgmono:k=1;gens=-2",
    ],
    ["mono:k=162", "mono:k=-1", "poly:", "subgmono:k=2;gens=0", "subgmono:k=2", "mono:k=x", "bogus"],
)


def _pick(rng: random.Random, pool: tuple[list[str], list[str]]) -> str:
    """Four times in five an answered value, else a degenerate or malformed one."""
    return rng.choice(pool[0] if rng.random() < 0.8 else pool[1])


def _scheme(rng: random.Random) -> str:
    return _pick(rng, FAMILIES)


def _csv(rng: random.Random, most: int) -> str:
    return ",".join(_pick(rng, RATIONALS) for _ in range(rng.randint(1, most)))


def _probe(rng: random.Random) -> list[str]:
    argv = ["probe"]
    if rng.random() < 0.3:
        argv.append(f"--peano={_pick(rng, (['1', '2', '3'], ['0', '17']))}")
    else:
        argv.append(_scheme(rng))
    argv.append(f"--oracle={_pick(rng, ORACLES)}")
    if rng.random() < 0.7:
        argv.append(f"--x={_pick(rng, RATIONALS)}")
    if rng.random() < 0.2:
        argv.append(f"--h0={_pick(rng, RATIONALS)}")
    if rng.random() < 0.2:
        argv.append(f"--ratios={_csv(rng, 2)}")
    if rng.random() < 0.2:
        argv.append(f"--jmin={_pick(rng, (['0', '2'], ['-1', '12']))}")
    if rng.random() < 0.3:
        argv.append(f"--jmax={_pick(rng, (['6', '12'], ['1', '257']))}")
    if rng.random() < 0.1:
        argv.append(f"--tol={_pick(rng, RATIONALS)}")
    return argv


def _command(rng: random.Random, verb: str) -> list[str]:
    order = f"--order={_pick(rng, (['1', '2', '3', '4'], ['0', '-1', '9' * 30]))}"
    if verb == "construct":
        if rng.random() < 0.5:
            return [verb, f"--nodes={_csv(rng, 4)}", order]
        zero = ["--zero"] if rng.random() < 0.5 else []
        return [verb, f"--pairs={_csv(rng, 3)}", *zero, order]
    if verb == "decompose":
        return [verb, _scheme(rng)] + ([order] if rng.random() < 0.3 else [])
    if verb == "scale":
        return [verb, _scheme(rng), f"--by={_pick(rng, RATIONALS)}"]
    if verb == "equiv":
        fast = ["--no-fast"] if rng.random() < 0.3 else []
        return [verb, f"--a={_scheme(rng)}", f"--b={_scheme(rng)}", *fast]
    if verb in ("recognize", "mz-check"):
        symmetric = ["--symmetric"] if verb == "mz-check" and rng.random() < 0.3 else []
        return [verb, _scheme(rng), *symmetric]
    if verb == "mz-set":
        return [verb] + [_scheme(rng) for _ in range(rng.randint(1, 3))]
    if verb == "ggr":
        reduced = ["--reduced"] if rng.random() < 0.5 else []
        return [verb, f"--order={_pick(rng, (['1', '2', '5'], ['0', '129']))}", *reduced]
    if verb == "qggr":
        n, ell = _pick(rng, (["1", "3"], ["0", "46"])), _pick(rng, (["0", "-2"], ["1366"]))
        return [verb, f"--order={n}", f"--ell={ell}", f"--q={_pick(rng, RATIONALS)}"]
    if verb == "ntimes":
        entries = ["--entry=0:cont"] if rng.random() < 0.8 else []
        for k in range(1, rng.randint(1, 3) + 1):
            spec = rng.choice(["cont", f"riemann:n={k}", f"riemann-sym:n={k}", _scheme(rng)])
            entries.append(f"--entry={rng.choice([str(k), str(k + 1), 'x'])}:{spec}")
        return [verb, *(entries or ["--entry=1:cont"])]
    if verb == "probe":
        return _probe(rng)
    return [verb, _pick(rng, (list(DEMOS), ["E99"]))]


VERBS = [
    "construct", "decompose", "scale", "equiv", "recognize", "mz-check", "mz-set", "ggr",
    "qggr", "ntimes", "probe", "demo",
]


JSON_NUMBERS = ["1" + "0" * 5000, "12345678901234567890.5"]


def corpus() -> list[list[str]]:
    """``COUNT`` command lines: each verb once, then verbs drawn at random, probes most often."""
    rng = random.Random(SEED)
    verbs = VERBS + rng.choices(VERBS + ["probe"] * 4, k=COUNT - len(VERBS))
    commands = [
        ["--output=json"] * (rng.random() < 0.5) + _command(rng, verb) for verb in verbs
    ]
    # the high-degree oracles on an answered probe, whatever the draw gave
    for oracle in ("mono:k=33", "poly:" + ",".join(["1"] * 40)):
        commands.append(["probe", "riemann:n=2", f"--oracle={oracle}", "--x=1/3"])
    # JSON numbers: an integer literal past the int-from-str digit limit, a long decimal
    for number in JSON_NUMBERS:
        scheme = f'{{"terms":[{{"coeff":{number},"node":1}},{{"coeff":-{number},"node":0}}]}}'
        commands.append(["scale", scheme, "--by=1"])
    return commands


def test_corpus_covers_every_verb_and_the_high_degree_oracles():
    commands = corpus()
    verbs = {next(word for word in argv if not word.startswith("--")) for argv in commands}
    assert verbs == set(VERBS)
    assert len(commands) == COUNT + 4
    for number in JSON_NUMBERS:
        assert sum(f'"coeff":{number},' in word for argv in commands for word in argv) == 1
    oracles = {word for argv in commands for word in argv if word.startswith("--oracle=")}
    assert "--oracle=mono:k=33" in oracles
    assert any(o.startswith("--oracle=poly:") and o.count(",") == 39 for o in oracles)


def test_every_corpus_command_answers_or_refuses_in_one_line():
    outcomes = {0: 0, 2: 0}
    start = time.process_time()
    for argv in corpus():
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        message = err.getvalue()
        assert code in outcomes, (argv, code, message)
        if code == 0:
            assert message == "", (argv, message)
        else:
            assert message.startswith("error: ") and message.count("\n") == 1, (argv, message)
            assert message.endswith("\n") and len(message.encode()) <= 300, (argv, message)
        outcomes[code] += 1
    # the draw reaches both answers and refusals in quantity
    assert min(outcomes.values()) >= 40, outcomes
    assert time.process_time() - start < 5.0



def _run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command through ``cli.main``."""
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _digests(outcomes: list[tuple[int, str, str]]) -> list[list]:
    """Each exit code with one SHA-256 of its stdout and stderr."""
    return [
        [code, hashlib.sha256(json.dumps([out, err]).encode()).hexdigest()]
        for code, out, err in outcomes
    ]


def _limit_child() -> None:
    """Run in the child alone, before it starts: 1 GiB of address space and 60 s of CPU."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    resource.setrlimit(resource.RLIMIT_CPU, (60, 60))


def test_corpus_under_optimize_flag_in_a_limited_child():
    # assertions stripped by -O guard nothing the answers rest on: every
    # command exits and prints the same as in this process
    env = dict(os.environ)
    package_root = str(Path(grdcalc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-O", __file__, "--digests"],
        capture_output=True, text=True, timeout=120, env=env, preexec_fn=_limit_child,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    assert json.loads(child.stdout) == {
        "optimize": 1, "digests": _digests([_run(argv) for argv in corpus()])
    }


def test_answered_corpus_as_one_batch_file(tmp_path):
    # every quoting the corpus makes (JSON, ';' and '/') goes through
    # shlex.join and back through the batch tokenizer
    answered = []
    for argv in corpus():
        code, out, err = _run(argv)
        if code == 0 and not any("\n" in word for word in argv):
            answered.append((argv, out))
    assert len(answered) >= 90
    batch = tmp_path / "corpus.txt"
    text = "".join(shlex.join(argv) + "\n" for argv, _ in answered)
    assert all(c in text for c in "'{\";/")
    batch.write_text(text, encoding="utf-8")
    assert _run(["--batch", str(batch)]) == (0, "".join(out for _, out in answered), "")


if __name__ == "__main__" and sys.argv[1:] == ["--digests"]:
    digests = _digests([_run(argv) for argv in corpus()])
    print(json.dumps({"optimize": sys.flags.optimize, "digests": digests}))
