"""Command-line front end.

Verbs map one-to-one onto the library: construct, decompose, scale, equiv,
recognize, mz-check, mz-set, ggr, qggr, ntimes, probe, and demo.  Scheme
arguments accept ``@file`` (JSON), inline JSON, or a family string such as
``riemann:n=2`` or ``gauss-aff:n=2,q=3/2``.  Exit codes: 0 for a completed
computation (negative verdicts are successful computations and also exit
0), 2 for malformed input, 3 for a failed internal identity check
(``IdentityCheckFailed``, which ``python -O`` does not strip).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

import grdcalc

from .scheme import (
    CalculusError,
    Scheme,
    _echo,
    _format_pair,
    _int_field,
    _read_int,
    construct_exact,
    construct_exact_symmetric,
    decompose,
    format_rational,
    format_scheme,
    order_info,
    parse_rational,
    scale,
    scheme_from_json,
    scheme_to_json_dict,
)

if TYPE_CHECKING:
    from .mz import ChainEntry
    from .probes import ProbeReport

# Each layer is read as grdcalc.<layer>.<name> when it runs: the package imports the layer on
# first access, so a process loads only what its verb runs, and a patched layer function is the
# one called.  DEMO_NAMES is the key order of grdcalc.mz.DEMOS, for the parser's help text.
DEMO_NAMES = ("E1", "E2", "E3", "E13", "E14", "E15", "P88", "T14", "T8", "MZ", "GGR")


class UnknownDemo(CalculusError):
    """The demo name is not in the registry."""


def read_scheme(spec: str) -> Scheme:
    """Resolve a scheme argument: ``@file``, inline JSON, or family string."""
    spec = spec.strip()
    if spec.startswith("@"):
        try:
            with open(spec[1:], "r", encoding="utf-8") as handle:
                return scheme_from_json(handle.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise CalculusError(
                f"cannot read scheme file {_echo(repr(spec[1:]))}: {_echo(str(exc))}"
            ) from exc
    if spec.startswith("{"):
        return scheme_from_json(spec)
    return grdcalc.families.named_scheme(grdcalc.families.parse_family(spec))


def _csv_rationals(text: str) -> list[Fraction]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise CalculusError("expected a comma-separated list of rationals")
    return [parse_rational(piece) for piece in items]


def _records(rows: list, indent: str) -> Optional[list[str]]:
    """Items of flat dicts with the same str keys in one order and str values (probe samples,
    scheme terms), as one text from C-level checks and one ``%`` on the repeated row template
    (values are its arguments); None for other lists, most of which leave at the first row."""
    first = rows[0] if rows else None
    if not (isinstance(first, dict) and first and all(isinstance(v, str) for v in first.values())):
        return None
    keys = tuple(first)
    if set(map(type, rows)) != {dict} or list(map(tuple, rows)).count(keys) != len(rows):
        return None
    try:  # encode_basestring_ascii raises TypeError on anything but a str
        values = tuple(map(encode_basestring_ascii, chain.from_iterable(map(dict.values, rows))))
    except TypeError:
        return None
    inner = indent + "  "
    fields = [encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys]
    template = "{" + inner + ("," + inner).join(fields) + indent + "}"
    return [("," + indent).join([template] * len(rows)) % values]


def _json(value: object, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for what a payload holds:
    dicts with str keys, lists, str, int, bool and None.

    The standard library encodes indented JSON in pure Python; this writes
    the same text with a fraction of the calls (a record list in one pass).
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in value.items()]
        brackets = "{}"
    else:
        items = _records(value, inner) or [_json(v, inner) for v in value]
        brackets = "[]"
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _emit(payload: dict, lines: Iterable[str], output: str) -> None:
    if output == "json":
        print(_json(payload))
    else:
        for line in lines:
            print(line)


def _scheme_lines(scheme: Scheme) -> Iterator[str]:
    """The text lines of a scheme, formatted only when they are printed."""
    info = order_info(scheme)
    yield format_scheme(scheme)
    yield f"order: {info.order}   normalizer: {format_rational(info.normalizer)}"


# ---------------------------------------------------------------------------
# verb handlers


def _cmd_construct(args: argparse.Namespace) -> tuple[dict, Iterable[str]]:
    if args.nodes is not None and args.pairs is not None:
        raise CalculusError("give either --nodes or --pairs, not both")
    if args.nodes is not None and args.zero:
        raise CalculusError("--zero goes with --pairs; with --nodes, list 0 among the nodes")
    if args.nodes is not None:
        scheme = construct_exact(_csv_rationals(args.nodes), args.order)
    elif args.pairs is not None:
        scheme = construct_exact_symmetric(
            _csv_rationals(args.pairs), args.zero, args.order
        )
    else:
        raise CalculusError("construct needs --nodes or --pairs")
    return scheme_to_json_dict(scheme), _scheme_lines(scheme)


def _cmd_decompose(args: argparse.Namespace) -> tuple[dict, Iterable[str]]:
    scheme = read_scheme(args.scheme)
    plus, minus = decompose(scheme, args.order)
    payload = {"plus": scheme_to_json_dict(plus), "minus": scheme_to_json_dict(minus)}
    parts = (("plus:  ", plus), ("minus: ", minus))
    return payload, (label + format_scheme(part) for label, part in parts)


def _cmd_scale(args: argparse.Namespace) -> tuple[dict, Iterable[str]]:
    scheme = scale(read_scheme(args.scheme), parse_rational(args.by))
    return scheme_to_json_dict(scheme), _scheme_lines(scheme)


def _cmd_equiv(args: argparse.Namespace) -> tuple[dict, list[str]]:
    verdict = grdcalc.equivalence.decide_equivalent(
        read_scheme(args.a), read_scheme(args.b), use_fast_paths=not args.no_fast
    )
    payload = verdict.to_json_dict()
    if verdict.equivalent:
        w = verdict.witness
        lines = [
            "equivalent: yes",
            f"witness: n={w.order} r={format_rational(w.r)} s={format_rational(w.s)}"
            f" A={format_rational(w.sym_factor)} B={format_rational(w.skew_factor)}",
            f"path: {verdict.path}",
        ]
    else:
        lines = ["equivalent: no", f"reason: {verdict.reason}"]
    if verdict.normalized_inputs:
        lines.append("note: inputs were normalized first")
    return payload, lines


def _cmd_recognize(args: argparse.Namespace) -> tuple[dict, list[str]]:
    scheme = read_scheme(args.scheme)
    match = grdcalc.families.recognize_gaussian(scheme)
    partners = grdcalc.families.scale_partners(match) if match is not None else []
    payload = {
        "match": grdcalc.families.match_to_json_dict(match) if match else None,
        "partners": [grdcalc.families.match_to_json_dict(p) for p in partners],
    }
    if match is None:
        lines = ["recognize: none"]
    else:
        lines = [
            f"recognize: {match.variant} q={format_rational(match.q)}"
            f" b={format_rational(match.scale_b)} n={match.n}"
        ]
        for p in partners:
            lines.append(
                f"partner:   {p.variant} q={format_rational(p.q)}"
                f" b={format_rational(p.scale_b)}"
            )
    return payload, lines


def _mz_lines(payload: dict) -> list[str]:
    lines = [f"status: {payload['status']}"]
    certificate = payload.get("certificate")
    if certificate:
        lines.append(f"certificate: {json.dumps(certificate)}")
    lines.append(f"conjecture: {payload['conjecture']}")
    return lines


def _cmd_mz_check(args: argparse.Namespace) -> tuple[dict, list[str]]:
    verdict = grdcalc.mz.mz_check(read_scheme(args.scheme), symmetric_mode=args.symmetric)
    payload = verdict.to_json_dict()
    return payload, _mz_lines(payload)


def _cmd_mz_set(args: argparse.Namespace) -> tuple[dict, list[str]]:
    verdict = grdcalc.mz.mz_set_check([read_scheme(s) for s in args.schemes])
    payload = verdict.to_json_dict()
    return payload, _mz_lines(payload)


def _cmd_ggr(args: argparse.Namespace) -> tuple[dict, Iterable[str]]:
    members = grdcalc.mz.ggr_set(args.order, reduced=args.reduced)
    payload = {
        "n": args.order,
        "reduced": args.reduced,
        "members": [scheme_to_json_dict(m) for m in members],
    }
    return payload, (format_scheme(m) for m in members)


def _cmd_qggr(args: argparse.Namespace) -> tuple[dict, list[str]]:
    q = parse_rational(args.q)
    witnesses = grdcalc.mz.verify_quantum_ggr(args.order, args.ell, q)
    payload = {
        "n": args.order,
        "ell": args.ell,
        "q": format_rational(q),
        "witnesses": [
            {"k": k, "scale": format_rational(value)} for k, value in witnesses
        ],
    }
    lines = [
        f"shift {k}: scale {format_rational(value)} = q^{k}" for k, value in witnesses
    ]
    lines.append(f"verified: all {len(witnesses)} shifts are exact scales by q^k")
    return payload, lines


def _cmd_ntimes(args: argparse.Namespace) -> tuple[dict, list[str]]:
    chain: list[tuple[int, ChainEntry]] = []
    for entry in args.entry:
        head, sep, tail = entry.partition(":")
        if not sep:
            raise CalculusError("entries look like ORDER:(cont|SCHEME)")
        order = _int_field(head, f"bad chain order {_echo(repr(head))}")
        if tail.strip() == "cont":
            chain.append((order, grdcalc.mz.CONTINUITY))
        else:
            chain.append((order, read_scheme(tail)))
    report = grdcalc.mz.n_times_check(chain)
    payload = report.to_json_dict()
    lines = [
        f"orders: {', '.join(str(j) for j in report.orders_present)}",
        f"all stages known MZ: {'yes' if report.all_mz else 'no'}",
        f"peano equivalence: {report.peano_equivalence}",
        f"note: {report.note}",
    ]
    if report.identity_certificate is not None:
        lines.insert(3, f"identity certificate: {format_scheme(report.identity_certificate)}")
    return payload, lines


def _probe_lines(report: ProbeReport) -> list[str]:
    lines = [f"verdict: {report.verdict}"]
    if report.estimate is not None:
        lines.append(f"estimate: {format_rational(report.estimate)}")
    for seq in report.evidence:
        lines.append(
            f"evidence: ratio={format_rational(seq.ratio)} sign={seq.sign:+d}"
            f" candidate={format_rational(seq.candidate)}"
            + (f" in_group={seq.in_group}" if seq.in_group is not None else "")
        )
    for seq in report.sequences:
        lines.append(
            f"sequence ratio={format_rational(seq.ratio)} sign={seq.sign:+d}"
            f" settled={seq.settled}"
            f" last={_format_pair(*seq.values[-1])}"
        )
    lines.append("numeric evidence only, not a proof")
    return lines


def _cmd_probe(args: argparse.Namespace) -> tuple[dict, list[str]]:
    oracle = grdcalc.probes.parse_oracle(args.oracle)
    ratios = None if args.ratios is None else _csv_rationals(args.ratios)
    given = dict(h0=args.h0, ratios=ratios, j_min=args.jmin, j_max=args.jmax, tol=args.tol)
    config = grdcalc.probes.ProbeConfig(**{k: v for k, v in given.items() if v is not None})
    x = parse_rational(args.x)
    if args.peano is not None:
        if args.scheme is not None:
            raise CalculusError("--peano replaces the scheme argument")
        stages = grdcalc.probes.peano_probe(oracle, x, args.peano, config)
        payload = {
            "stages": [
                {"order": order, "report": report.to_json_dict()}
                for order, report in stages
            ]
        }
        lines = []
        for order, report in stages:
            lines.append(f"-- order {order} --")
            lines.extend(_probe_lines(report))
        return payload, lines
    if args.scheme is None:
        raise CalculusError("probe needs a scheme argument or --peano")
    report = grdcalc.probes.limit_probe(read_scheme(args.scheme), oracle, x, config)
    return report.to_json_dict(), _probe_lines(report)


def _cmd_demo(args: argparse.Namespace) -> tuple[dict, list[str]]:
    name = args.name
    if name not in DEMO_NAMES:
        raise UnknownDemo(f"unknown demo {_echo(repr(name))}; choose from {', '.join(DEMO_NAMES)}")
    lines, facts = grdcalc.mz.DEMOS[name]()
    return {"demo": name, "facts": facts}, [f"[demo {name}]"] + lines


# ---------------------------------------------------------------------------
# parser


_NEGATIVE_VALUE = re.compile(r"^-\d+(/\d+)?([.,].*)?$")
# one piece of a batch line, as shlex.split reads it: a run of plain characters, a '...' or
# "..." run, an escaped character, a run of blanks, or a quote or backslash left open
_PIECE = re.compile(r"""([^ \t\r\n'"\\]+)|'([^']*)'|"((?:[^"\\]|\\.)*)"|\\(.)|([ \t\r\n]+)|(.)""", re.S)
_ESCAPED = re.compile(r'\\([\\"])')


def _words(line: str) -> list[str]:
    """``shlex.split(line)``, with its ``ValueError`` texts, in one pass: linear in the line.

    Words are separated by `` \t\r\n`` only; inside ``"..."`` a backslash
    escapes only ``"`` and itself.  A ``"`` left open ends in a lone backslash
    exactly when the line ends in an odd run of backslashes.
    """
    words, word = [], None
    for piece in _PIECE.finditer(line):
        kind, text = piece.lastindex, piece[piece.lastindex]
        if kind == 6:
            trailing = len(line) - len(line.rstrip("\\"))
            lone = text == "\\" or (text == '"' and trailing % 2 == 1)
            raise ValueError("No escaped character" if lone else "No closing quotation")
        if kind != 5:
            word = [] if word is None else word
            word.append(_ESCAPED.sub(r"\1", text) if kind == 3 else text)
        elif word is not None:
            words.append("".join(word))
            word = None
    if word is not None:
        words.append("".join(word))
    return words


def _int(text: str) -> int:
    """An integer option at any length, refused with argparse's wording and a bounded echo."""
    try:
        return _read_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_echo(repr(text))}") from None


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing never changes it.  Its
    ``verbs`` maps each verb to the verb's own parser, which :func:`_parse` reads."""
    parser = argparse.ArgumentParser(
        prog="grdcalc",
        description="exact calculus of generalized Riemann differences",
    )
    parser.add_argument(
        "--output", choices=("json", "text"), default="text", help="report format"
    )
    parser.add_argument(
        "--batch", metavar="FILE", help="run one command per line from FILE"
    )
    sub = parser.add_subparsers(dest="verb", metavar="VERB")
    parser.verbs = sub.choices  # verb name -> its parser, filled by add_parser

    def new(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        # let option values like -1,0,1,2 or -1/2 pass as values, not flags
        p._negative_number_matcher = _NEGATIVE_VALUE
        return p

    p = new("construct", "build the exact scheme on given nodes")
    p.add_argument("--nodes", help="comma-separated nodes, e.g. -1,0,1,2")
    p.add_argument("--pairs", help="positive node magnitudes for a symmetric scheme")
    p.add_argument("--zero", action="store_true", help="include the zero node (symmetric)")
    p.add_argument("--order", type=_int, required=True, help="differentiation order n")
    p.set_defaults(handler=_cmd_construct)

    p = new("decompose", "split into symmetric and skew parts")
    p.add_argument("scheme", help="@file, inline JSON, or family string")
    p.add_argument("--order", type=_int, default=None, help="override the detected order")
    p.set_defaults(handler=_cmd_decompose)

    p = new("scale", "apply the value-preserving scale transform")
    p.add_argument("scheme", help="@file, inline JSON, or family string")
    p.add_argument("--by", required=True, help="nonzero rational factor")
    p.set_defaults(handler=_cmd_scale)

    p = new("equiv", "decide equivalence and produce a witness")
    p.add_argument("--a", required=True, help="first scheme")
    p.add_argument("--b", required=True, help="second scheme")
    p.add_argument("--no-fast", action="store_true", help="same decision, but the path reads"
                   " General and a scale by a negative factor keeps its witness (r, r, A, -A)")
    p.set_defaults(handler=_cmd_equiv)

    p = new("recognize", "recognize scales of geometric-node schemes")
    p.add_argument("scheme", help="@file, inline JSON, or family string")
    p.set_defaults(handler=_cmd_recognize)

    p = new("mz-check", "catalog verdict for one normalized scheme")
    p.add_argument("scheme", help="@file, inline JSON, or family string")
    p.add_argument("--symmetric", action="store_true", help="symmetric-mode verdict")
    p.set_defaults(handler=_cmd_mz_check)

    p = new("mz-set", "joint verdict for a set of schemes")
    p.add_argument("schemes", nargs="+", help="schemes (same order)")
    p.set_defaults(handler=_cmd_mz_set)

    p = new("ggr", "emit the backward-shift scheme set")
    p.add_argument("--order", type=_int, required=True)
    p.add_argument("--reduced", action="store_true", help="first floor(n/2) shifts only")
    p.set_defaults(handler=_cmd_ggr)

    p = new("qggr", "verify the geometric shifted-set scale identities")
    p.add_argument("--order", type=_int, required=True)
    p.add_argument("--ell", type=_int, required=True, help="first shift of the window")
    p.add_argument("--q", required=True, help="geometric ratio (not 0, 1, or -1)")
    p.set_defaults(handler=_cmd_qggr)

    p = new("ntimes", "analyze a differentiation chain of orders 0..n")
    p.add_argument(
        "--entry",
        action="append",
        required=True,
        metavar="ORDER:SPEC",
        help="repeatable; SPEC is 'cont' (order 0) or a scheme",
    )
    p.set_defaults(handler=_cmd_ntimes)

    p = new("probe", "numeric limit probe on a function oracle")
    # one usage line keeps a refusal with a 100-character echo short
    p.usage = "%(prog)s [-h] [scheme] --oracle ORACLE [--x X] [--peano N] [options]"
    p.add_argument("scheme", nargs="?", default=None, help="scheme (omit with --peano)")
    p.add_argument("--oracle", required=True, help="abs | sgnsq | mono:k=N | poly:c0,c1 | subgmono:k=N;gens=...")
    p.add_argument("--x", default="0", help="base point (default 0)")
    p.add_argument("--peano", type=_int, default=None, metavar="N", help="stage probes for orders 1..N")
    p.add_argument("--h0", default=None, help="initial step")
    p.add_argument("--ratios", default=None, help="comma-separated step ratios")
    p.add_argument("--jmin", type=_int, default=None, help="first exponent")
    p.add_argument("--jmax", type=_int, default=None, help="last exponent")
    p.add_argument("--tol", default=None, help="relative tolerance")
    p.set_defaults(handler=_cmd_probe)

    p = new("demo", "run a named worked example, asserting its conclusion")
    p.add_argument("name", help=f"one of: {', '.join(DEMO_NAMES)}")
    p.set_defaults(handler=_cmd_demo)

    return parser


def _run_single(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    if getattr(args, "verb", None) is None or not hasattr(args, "handler"):
        parser.error("a verb is required (or use --batch FILE)")
    payload, lines = args.handler(args)
    _emit(payload, lines, args.output)


def _parse(parser: argparse.ArgumentParser, argv: Sequence[str]) -> argparse.Namespace:
    """``parser.parse_args(argv)`` in one pass: ``[--output json|text] VERB ...`` goes to the
    verb's parser alone, into a fresh namespace holding what the top level sets.  Any other
    shape, a word left over, or a ``--=`` word (the top level refuses it as ambiguous first)
    gets the full parse, so every usage text, error text and exit code is argparse's own."""
    words, output = list(argv), "text"
    if words[:1] == ["--output"] and words[1:2] in (["json"], ["text"]):
        output, words = words[1], words[2:]
    verb = parser.verbs.get(words[0]) if words else None
    if verb is not None and not any(word.startswith("--=") for word in words):
        top = argparse.Namespace(output=output, batch=None, verb=words[0])
        args, left = verb.parse_known_args(words[1:], top)
        if not left:
            return args
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command, or each line of a ``--batch`` file, each parsed by :func:`_parse`;
    return the exit code."""
    parser = build_parser()
    try:
        args = _parse(parser, sys.argv[1:] if argv is None else argv)
        if args.batch is not None:
            if args.verb is not None:
                parser.error("--batch replaces the inline command")
            try:
                with open(args.batch, "r", encoding="utf-8") as handle:
                    batch_lines = handle.readlines()
            except (OSError, UnicodeDecodeError) as exc:
                raise CalculusError(f"cannot read batch file: {_echo(str(exc))}") from exc
            for raw in batch_lines:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    words = _words(line)
                except ValueError as exc:
                    raise CalculusError(f"cannot split batch line: {exc}") from exc
                sub_args = _parse(parser, ["--output", args.output] + words)
                if sub_args.batch is not None:
                    raise CalculusError("batch files cannot nest --batch")
                _run_single(parser, sub_args)
        else:
            _run_single(parser, args)
        return 0
    except CalculusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
