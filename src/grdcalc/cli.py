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
import shlex
import sys
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import Callable, Optional, Sequence

from .equivalence import class_member, decide_equivalent, equivalent_gaussian
from .families import (
    GAUSSIAN_AFFINE,
    GAUSSIAN_FORWARD,
    gaussian_affine,
    gaussian_forward,
    match_to_json_dict,
    mz_tilde,
    named_scheme,
    parse_family,
    recognize_gaussian,
    riemann,
    riemann_shift,
    scale_partners,
)
from .mz import (
    CERT_D31,
    CERT_GGR_SET,
    CONTINUITY,
    PEANO_ALL_MZ,
    STATUS_MZ,
    ChainEntry,
    ggr_set,
    mz_check,
    mz_set_check,
    n_times_check,
    verify_quantum_ggr,
)
from .probes import (
    ProbeConfig,
    ProbeReport,
    VERDICT_CONVERGES,
    VERDICT_DIVERGES,
    limit_probe,
    parse_oracle,
    peano_probe,
    subgroup_monomial_oracle,
)
from .scheme import (
    CalculusError,
    Scheme,
    _echo,
    _require,
    canonicalize,
    construct_exact,
    construct_exact_symmetric,
    decompose,
    combine,
    format_rational,
    format_scheme,
    is_scale,
    order_info,
    parse_rational,
    scale,
    scheme_from_json,
    scheme_to_json_dict,
)


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
    return named_scheme(parse_family(spec))


def _csv_rationals(text: str) -> list[Fraction]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise CalculusError("expected a comma-separated list of rationals")
    return [parse_rational(piece) for piece in items]


def _json(value: object, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for what a payload holds:
    dicts with str keys, lists, str, int, bool and None.

    The standard library encodes indented JSON in pure Python; this writes
    the same text with a fraction of the calls.
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
        items = [_json(v, inner) for v in value]
        brackets = "[]"
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _emit(payload: dict, lines: list[str], output: str) -> None:
    if output == "json":
        print(_json(payload))
    else:
        for line in lines:
            print(line)


def _scheme_lines(scheme: Scheme) -> list[str]:
    info = order_info(scheme)
    return [
        format_scheme(scheme),
        f"order: {info.order}   normalizer: {format_rational(info.normalizer)}",
    ]


# ---------------------------------------------------------------------------
# verb handlers


def _cmd_construct(args: argparse.Namespace) -> tuple[dict, list[str]]:
    if args.nodes is not None and args.pairs is not None:
        raise CalculusError("give either --nodes or --pairs, not both")
    if args.nodes is not None:
        scheme = construct_exact(_csv_rationals(args.nodes), args.order)
    elif args.pairs is not None:
        scheme = construct_exact_symmetric(
            _csv_rationals(args.pairs), args.zero, args.order
        )
    else:
        raise CalculusError("construct needs --nodes or --pairs")
    return scheme_to_json_dict(scheme), _scheme_lines(scheme)


def _cmd_decompose(args: argparse.Namespace) -> tuple[dict, list[str]]:
    scheme = read_scheme(args.scheme)
    plus, minus = decompose(scheme, args.order)
    payload = {"plus": scheme_to_json_dict(plus), "minus": scheme_to_json_dict(minus)}
    lines = [f"plus:  {format_scheme(plus)}", f"minus: {format_scheme(minus)}"]
    return payload, lines


def _cmd_scale(args: argparse.Namespace) -> tuple[dict, list[str]]:
    scheme = scale(read_scheme(args.scheme), parse_rational(args.by))
    return scheme_to_json_dict(scheme), _scheme_lines(scheme)


def _cmd_equiv(args: argparse.Namespace) -> tuple[dict, list[str]]:
    verdict = decide_equivalent(
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
    match = recognize_gaussian(scheme)
    partners = scale_partners(match) if match is not None else []
    payload = {
        "match": match_to_json_dict(match) if match else None,
        "partners": [match_to_json_dict(p) for p in partners],
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
    verdict = mz_check(read_scheme(args.scheme), symmetric_mode=args.symmetric)
    payload = verdict.to_json_dict()
    return payload, _mz_lines(payload)


def _cmd_mz_set(args: argparse.Namespace) -> tuple[dict, list[str]]:
    verdict = mz_set_check([read_scheme(s) for s in args.schemes])
    payload = verdict.to_json_dict()
    return payload, _mz_lines(payload)


def _cmd_ggr(args: argparse.Namespace) -> tuple[dict, list[str]]:
    members = ggr_set(args.order, reduced=args.reduced)
    payload = {
        "n": args.order,
        "reduced": args.reduced,
        "members": [scheme_to_json_dict(m) for m in members],
    }
    lines = [format_scheme(m) for m in members]
    return payload, lines


def _cmd_qggr(args: argparse.Namespace) -> tuple[dict, list[str]]:
    q = parse_rational(args.q)
    witnesses = verify_quantum_ggr(args.order, args.ell, q)
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
        try:
            order = int(head)
        except ValueError as exc:
            raise CalculusError(f"bad chain order {_echo(repr(head))}") from exc
        if tail.strip() == "cont":
            chain.append((order, CONTINUITY))
        else:
            chain.append((order, read_scheme(tail)))
    report = n_times_check(chain)
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
        tail = seq.samples[-1]
        lines.append(
            f"sequence ratio={format_rational(seq.ratio)} sign={seq.sign:+d}"
            f" settled={seq.settled}"
            f" last={format_rational(tail[1])}"
        )
    lines.append("numeric evidence only, not a proof")
    return lines


def _cmd_probe(args: argparse.Namespace) -> tuple[dict, list[str]]:
    oracle = parse_oracle(args.oracle)
    overrides = {}
    if args.h0 is not None:
        overrides["h0"] = parse_rational(args.h0)
    if args.ratios is not None:
        overrides["ratios"] = tuple(_csv_rationals(args.ratios))
    if args.jmin is not None:
        overrides["j_min"] = args.jmin
    if args.jmax is not None:
        overrides["j_max"] = args.jmax
    if args.tol is not None:
        overrides["tol"] = parse_rational(args.tol)
    config = ProbeConfig(**overrides) if overrides else None
    x = parse_rational(args.x)
    if args.peano is not None:
        if args.scheme is not None:
            raise CalculusError("--peano replaces the scheme argument")
        stages = peano_probe(oracle, x, args.peano, config)
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
    report = limit_probe(read_scheme(args.scheme), oracle, x, config)
    return report.to_json_dict(), _probe_lines(report)


def _cmd_demo(args: argparse.Namespace) -> tuple[dict, list[str]]:
    name = args.name
    if name not in DEMOS:
        raise UnknownDemo(f"unknown demo {_echo(repr(name))}; choose from {', '.join(DEMOS)}")
    lines, facts = DEMOS[name]()
    return {"demo": name, "facts": facts}, [f"[demo {name}]"] + lines


# ---------------------------------------------------------------------------
# demo suite: each demo recomputes a worked identity and checks it exactly


def _demo_e1() -> tuple[list[str], dict]:
    member = named_scheme(gaussian_affine(2, 2))
    _require(member == canonicalize(
        [(Fraction(2, 3), 1), (Fraction(-1), 2), (Fraction(1, 3), 4)]
    ), "affine member mismatch")
    scaled = scale(member, 2)
    _require(scaled == canonicalize(
        [(Fraction(1, 6), 2), (Fraction(-1, 4), 4), (Fraction(1, 12), 8)]
    ), "scale-by-2 mismatch")
    match = recognize_gaussian(scaled)
    _require(match is not None and match.variant == GAUSSIAN_AFFINE, "recognition failed")
    _require(match.q == 2 and match.scale_b == 2, "expected q=2, b=2")
    lines = [
        f"scale by 2 of the geometric second difference: {format_scheme(scaled)}",
        "recognize: scale-of-affine q=2 b=2",
        "exact-gaussian: none (the scheme is a scale of a member, not a member)",
    ]
    facts = {
        "scheme": scheme_to_json_dict(scaled),
        "match": match_to_json_dict(match),
        "exact_member": match.scale_b == 1,
    }
    return lines, facts


def _demo_e2() -> tuple[list[str], dict]:
    member = named_scheme(gaussian_affine(2, 2))
    plus, minus = decompose(member, 2)
    mixed = combine([(1, 1, plus), (3, 1, minus)])
    expected = canonicalize(
        [
            (Fraction(2, 3), 4),
            (Fraction(-2), 2),
            (Fraction(4, 3), 1),
            (Fraction(-2, 3), -1),
            (Fraction(1), -2),
            (Fraction(-1, 3), -4),
        ]
    )
    _require(mixed == expected, "mixed-part scheme mismatch")
    verdict = decide_equivalent(member, mixed)
    _require(verdict.equivalent, "must be equivalent")
    w = verdict.witness
    _require(
        (w.r, w.s, w.sym_factor, w.skew_factor) == (1, 1, 1, 3), "witness must be B=3"
    )
    _require(is_scale(member, mixed) is None, "must not be a plain scale")
    check = mz_check(mixed)
    _require(check.status == STATUS_MZ, "equivalent-to-geometric means known MZ")
    lines = [
        f"plus + 3*minus of the geometric member: {format_scheme(mixed)}",
        "equivalent to the member with witness A=1, B=3 (r=s=1)",
        "is_scale: none — equivalent but not a scale",
        "mz-check: known-mz",
    ]
    facts = {
        "scheme": scheme_to_json_dict(mixed),
        "witness": w.to_json_dict(),
        "is_scale": None,
        "mz_status": check.status,
    }
    return lines, facts


def _demo_e3() -> tuple[list[str], dict]:
    first = named_scheme(gaussian_affine(1, 2))
    _require(first == canonicalize([(-1, 1), (1, 2)]), "geometric first difference")
    scaled = scale(first, 2)
    _require(scaled == canonicalize(
        [(Fraction(-1, 2), 2), (Fraction(1, 2), 4)]
    ), "scale mismatch")
    a = canonicalize([(-1, 0), (1, 1)])
    b = canonicalize([(2, -1), (-5, 0), (3, 1)])
    forward_verdict = decide_equivalent(a, b)
    reverse_verdict = decide_equivalent(b, a)
    _require(forward_verdict.equivalent and reverse_verdict.equivalent)
    fw, rw = forward_verdict.witness, reverse_verdict.witness
    _require((fw.r, fw.s, fw.sym_factor, fw.skew_factor) == (1, 1, 1, 5))
    _require((rw.r, rw.s, rw.sym_factor, rw.skew_factor) == (1, 1, 1, Fraction(1, 5)))
    lines = [
        f"geometric first difference: {format_scheme(first)}",
        f"its scale by 2: {format_scheme(scaled)}",
        "witness forward: A=1 B=5;  reverse: A=1 B=1/5 (r=s=1)",
    ]
    facts = {
        "scaled": scheme_to_json_dict(scaled),
        "forward_witness": fw.to_json_dict(),
        "reverse_witness": rw.to_json_dict(),
    }
    return lines, facts


def _demo_e13() -> tuple[list[str], dict]:
    base = named_scheme(riemann_shift(3, -1))
    plus, minus = decompose(base, 3)
    _require(plus == canonicalize(
        [(Fraction(-1, 2), -2), (1, -1), (-1, 1), (Fraction(1, 2), 2)]
    ), "symmetric part mismatch")
    _require(minus == canonicalize(
        [(Fraction(1, 2), -2), (-2, -1), (3, 0), (-2, 1), (Fraction(1, 2), 2)]
    ), "skew part mismatch")
    nabla = class_member(base, 1, 1, Fraction(1, 2))
    expected = canonicalize(
        [(Fraction(-1, 4), -2), (Fraction(3, 2), 0), (-2, 1), (Fraction(3, 4), 2)]
    )
    _require(nabla == expected, "class member mismatch")
    verdict = decide_equivalent(base, nabla)
    _require(verdict.equivalent)
    w = verdict.witness
    _require((w.r, w.s, w.sym_factor, w.skew_factor) == (1, 1, 1, Fraction(1, 2)))
    _require(is_scale(base, nabla) is None)
    lines = [
        f"class member with skew factor 1/2: {format_scheme(nabla)}",
        "equivalence witness: A=1 B=1/2 (r=s=1)",
        "is_scale: none",
    ]
    facts = {
        "nabla": scheme_to_json_dict(nabla),
        "witness": w.to_json_dict(),
        "is_scale": None,
    }
    return lines, facts


def _demo_e14() -> tuple[list[str], dict]:
    chain: list[tuple[int, ChainEntry]] = [
        (0, CONTINUITY),
        (1, named_scheme(gaussian_affine(1, Fraction(22, 7)))),
        (2, named_scheme(gaussian_forward(2, 5))),
        (3, scale(named_scheme(riemann_shift(3, -1)), Fraction(47, 10))),
    ]
    report = n_times_check(chain)
    _require(report.all_mz, "every stage must be known MZ")
    _require(report.peano_equivalence == PEANO_ALL_MZ)
    lines = [
        "chain: continuity, geometric(22/7) order 1, forward(5) order 2,",
        "       backward-shift order 3 scaled by 47/10",
        "all stages known MZ -> the chain certifies 3-times differentiability",
    ]
    return lines, report.to_json_dict()


def _demo_e15() -> tuple[list[str], dict]:
    oracle = subgroup_monomial_oracle(2, [2, 3])
    stages = peano_probe(oracle, 0, 2)
    _require(len(stages) == 2, "must stop after stage 2")
    _require(stages[0][1].verdict == VERDICT_CONVERGES)
    second = stages[1][1]
    _require(second.verdict == VERDICT_DIVERGES)
    cands = sorted(seq.candidate for seq in second.evidence)
    _require(cands == [0, 2], "clusters must be 0 and 2, got %s", cands)
    groups = {seq.in_group for seq in second.evidence}
    _require(
        groups == {True, False}, "evidence must span in-group and out-of-group steps"
    )
    lines = [
        "x^2 restricted to the subgroup generated by 2 and 3:",
        "order-1 probe converges (first Peano coefficient exists),",
        "order-2 probe diverges: the quotient is 2 along in-group steps and 0",
        "off the group, so the second Peano coefficient would be both 1 and 0",
    ]
    facts = {
        "stage1": stages[0][1].to_json_dict(),
        "stage2_verdict": second.verdict,
        "clusters": [format_rational(c) for c in cands],
    }
    return lines, facts


def _demo_p88() -> tuple[list[str], dict]:
    base = named_scheme(riemann_shift(3, -1))
    match = equivalent_gaussian(base)
    _require(match is None, "must not be equivalent to any geometric-node scheme")
    verdict = mz_check(base)
    _require(verdict.status == STATUS_MZ)
    _require(verdict.certificate is not None and verdict.certificate.kind == CERT_D31)
    lines = [
        f"backward-shift third difference: {format_scheme(base)}",
        "equivalent-gaussian: none",
        "mz-check: known-mz (shifted-set singleton certificate)",
    ]
    facts = {"equivalent_gaussian": None, "verdict": verdict.to_json_dict()}
    return lines, facts


def _demo_t14() -> tuple[list[str], dict]:
    rows = []
    lines = []
    for n in range(3, 9):
        result = equivalent_gaussian(named_scheme(riemann(n)))
        _require(result is None, "equispaced order %s must not match", n)
        rows.append({"n": n, "equivalent_gaussian": None})
        lines.append(f"n={n}: equivalent-gaussian: none")
    return lines, {"table": rows}


def _demo_t8() -> tuple[list[str], dict]:
    cases = [(3, -3, Fraction(2)), (2, 0, Fraction(1, 2))]
    results = []
    lines = []
    for n, ell, q in cases:
        witnesses = verify_quantum_ggr(n, ell, q)
        _require([w for _, w in witnesses] == [q ** k for k in range(ell, ell + n + 1)])
        results.append(
            {
                "n": n,
                "ell": ell,
                "q": format_rational(q),
                "scales": [format_rational(w) for _, w in witnesses],
            }
        )
        lines.append(
            f"n={n} ell={ell} q={format_rational(q)}: shifts are scales by "
            + ", ".join(format_rational(w) for _, w in witnesses)
        )
    return lines, {"cases": results}


def _demo_mz() -> tuple[list[str], dict]:
    lines = []
    rows = []
    for n in range(1, 7):
        tilde = named_scheme(mz_tilde(n))
        _require(tilde == named_scheme(gaussian_forward(n, 2)), "doubling nodes are q=2")
        verdict = mz_check(tilde)
        _require(verdict.status == STATUS_MZ)
        certificate = verdict.certificate
        _require(certificate is not None and certificate.match is not None)
        _require(certificate.match.variant == GAUSSIAN_FORWARD)
        _require(certificate.match.q == 2)
        rows.append({"n": n, "status": verdict.status})
        lines.append(f"n={n}: doubling-node scheme is known-mz (forward q=2)")
    return lines, {"table": rows}


def _demo_ggr() -> tuple[list[str], dict]:
    full = mz_set_check(ggr_set(4))
    _require(full.status == STATUS_MZ)
    _require(full.certificate is not None and full.certificate.kind == CERT_GGR_SET)
    _require(full.certificate.reduced is False)
    reduced = mz_set_check(ggr_set(4, reduced=True))
    _require(reduced.status == STATUS_MZ)
    _require(reduced.certificate is not None)
    _require(reduced.certificate.kind == CERT_GGR_SET)
    _require(reduced.certificate.reduced is True)
    lines = [
        "the four backward shifts of the equispaced fourth difference form",
        "a known MZ-set (full certificate); the first two alone already do",
        "(reduced certificate)",
    ]
    facts = {"full": full.to_json_dict(), "reduced": reduced.to_json_dict()}
    return lines, facts


DEMOS: dict[str, Callable[[], tuple[list[str], dict]]] = {
    "E1": _demo_e1,
    "E2": _demo_e2,
    "E3": _demo_e3,
    "E13": _demo_e13,
    "E14": _demo_e14,
    "E15": _demo_e15,
    "P88": _demo_p88,
    "T14": _demo_t14,
    "T8": _demo_t8,
    "MZ": _demo_mz,
    "GGR": _demo_ggr,
}


# ---------------------------------------------------------------------------
# parser


_NEGATIVE_VALUE = re.compile(r"^-\d+(/\d+)?([.,].*)?$")


def _int(text: str) -> int:
    """``int(text)`` for integer options, refused with argparse's wording and a bounded echo."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_echo(repr(text))}") from None


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing never changes it."""
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
    p.add_argument("--no-fast", action="store_true", help="skip the fast paths")
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
    p.add_argument("name", help=f"one of: {', '.join(DEMOS)}")
    p.set_defaults(handler=_cmd_demo)

    return parser


def _run_single(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if getattr(args, "verb", None) is None or not hasattr(args, "handler"):
        parser.error("a verb is required (or use --batch FILE)")
    payload, lines = args.handler(args)
    _emit(payload, lines, args.output)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
                    words = shlex.split(line)
                except ValueError as exc:
                    raise CalculusError(f"cannot split batch line: {exc}") from exc
                if "--batch" in words:
                    raise CalculusError("batch files cannot nest --batch")
                sub_args = parser.parse_args(["--output", args.output] + words)
                status = _run_single(parser, sub_args)
                if status != 0:
                    return status
            return 0
        return _run_single(parser, args)
    except CalculusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
