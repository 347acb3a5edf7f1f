"""Judge one command's exit code and JSON output against the exact reference.

``judge`` returns ``(status, detail)`` where status is ``"ok"``, ``"failed"``
(nonzero exit or exception: the command did not complete) or ``"wrong"``
(the command completed but the output is rejected).  Nothing here imports
grdcalc.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial

from reference import (
    D2S,
    D31,
    F,
    auto_ratios,
    close,
    equivalent,
    fmt,
    from_json,
    geometric_nodes,
    in_subgroup,
    lagrange,
    moment,
    mz_tilde,
    normalize,
    order,
    parse_oracle,
    parts,
    quotient,
    riemann,
    scale,
    shift,
    witness_ok,
)

REFUSAL_FACTOR = "FactorizationBoundExceeded"


class Mismatch(Exception):
    """The output disagrees with the reference."""


def need(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def judge(expect: dict, rc, out: str, err: str) -> tuple[str, str]:
    """Classify one command outcome; ``rc`` is None when ``main`` raised."""
    if rc != 0:
        if rc == 2 and "cannot factor" in err:
            return "failed", REFUSAL_FACTOR
        return "failed", f"exit {rc}: {err.strip()[-200:]}"
    try:
        CHECKS[expect["kind"]](expect, json.loads(out))
    except Mismatch as exc:
        return "wrong", str(exc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return "wrong", f"malformed output: {exc!r}"
    return "ok", ""


def check_construct(e, out):
    n, nodes = e["n"], e["nodes"]
    s = from_json(out)
    need(sorted(s) == sorted(nodes), "constructed scheme is not on the requested nodes")
    need(all(moment(s, j) == 0 for j in range(n)), "a moment below the order is nonzero")
    need(moment(s, n) == factorial(n), "leading moment is not n!")
    need(s == lagrange(nodes, n), "coefficients differ from the Lagrange closed form")


def check_decompose(e, out):
    s = e["scheme"]
    plus, minus = parts(s, order(s)[0])
    need(from_json(out["plus"]) == plus, "symmetric part differs")
    need(from_json(out["minus"]) == minus, "skew part differs")


def check_scale(e, out):
    need(from_json(out) == scale(e["scheme"], e["r"]), "scaled scheme differs")


def check_equiv(e, out):
    a, b = e["a"], e["b"]
    truth = equivalent(a, b)
    need(e["label"] is None or e["label"] == truth, "generator label disagrees with reference")
    need(out["equivalent"] is truth, f"verdict {out['equivalent']} but reference says {truth}")
    need(out["normalized"] is (normalize(a) != a or normalize(b) != b), "normalized flag wrong")
    if truth:
        need(witness_ok(a, b, out["witness"]), "witness fails re-expansion")
        need(out["reason"] is None and out["path"] is not None, "positive verdict without path")
    else:
        need(out["witness"] is None and out["path"] is None, "negative verdict with a witness")
        if order(a)[0] != order(b)[0]:
            need(out["reason"] == "OrderMismatch", "orders differ but reason is not OrderMismatch")
        else:
            need(out["reason"] in ("SymmetricPartMismatch", "SkewPartMismatch", "SkewZeroVsNonzero"),
                 f"unknown reason {out['reason']!r}")


def _member(match: dict) -> dict:
    n = match["n"]
    return lagrange(geometric_nodes(match["variant"], n, F(match["q"])), n)


def _geometric_qs(s: dict, n: int) -> list:
    """Every ``q`` for which ``s`` can be equivalent to a forward or affine
    geometric member of order ``n``.  The symmetric part of such a member has
    node magnitudes ``|q|**i`` and that of ``s`` is an exact scale of it, so
    the ratio of its two smallest nonzero magnitudes is ``|q|`` or ``1/|q|``.
    With a single magnitude only the forward member of order 1 can match,
    and it does not depend on ``q``."""
    mags = sorted({abs(b) for b in parts(normalize(s), n)[0] if b != 0})
    if len(mags) < 2:
        return [F(2)]
    ratio = mags[1] / mags[0]
    return [ratio, -ratio, 1 / ratio, -1 / ratio]


def known_mz_match(s: dict) -> str | None:
    """The known-mz catalog member that ``s`` is equivalent to, if any: a
    doubling witness, the order-3 backward shift, or a forward or affine
    geometric member."""
    n = order(s)[0]
    if equivalent(s, mz_tilde(n)):
        return "the doubling witness"
    if n == 3 and equivalent(s, D31):
        return "the backward shift"
    for variant in ("GaussianForward", "GaussianAffine"):
        for q in _geometric_qs(s, n):
            if equivalent(s, lagrange(geometric_nodes(variant, n, q), n)):
                return f"{variant} q={fmt(q)}"
    return None


def check_mz_verdict(v: dict, s: dict, label) -> None:
    """A single-scheme verdict: the status matches the paper's catalog where
    the generator knows it, and every certificate is re-derived."""
    status, cert, conj = v["status"], v["certificate"], v["conjecture"]
    n = order(s)[0]
    need(label is None or status == label, f"status {status} but the catalog says {label}")
    if status == "open":
        need(cert is None, "open verdict with a certificate")
        match = known_mz_match(s)
        need(match is None, f"open, yet equivalent to {match}")
        expected = "R-MZ" if equivalent(s, riemann(n)) else "G-MZ"
        need(conj == expected, f"conjecture {conj} but expected {expected}")
        return
    need(conj == "none", "known verdict with a conjecture tag")
    kind = cert["kind"]
    if status == "known-mz":
        if kind == "EquivalentToGaussian":
            need(cert["match"]["variant"] in ("GaussianForward", "GaussianAffine"), "bad variant")
            need(cert["match"]["n"] == n and equivalent(_member(cert["match"]), s),
                 "not equivalent to the cited geometric member")
        elif kind == "EquivalentToMzTilde":
            need(cert["n"] == n and witness_ok(s, mz_tilde(n), cert["witness"]),
                 "doubling-witness certificate fails")
        elif kind == "EquivalentToD31":
            need(n == 3 and witness_ok(s, D31, cert["witness"]), "backward-shift certificate fails")
        else:
            raise Mismatch(f"unknown certificate {kind!r}")
    elif status == "known-not-mz":
        if kind == "RiemannProvenNotMZ":
            need(cert["n"] == n in (3, 7) and equivalent(s, riemann(n)), "equispaced certificate fails")
        elif kind == "SymmetricD2sNotMZ":
            need(n == 2 and equivalent(s, D2S), "symmetric second difference certificate fails")
        else:
            raise Mismatch(f"unknown certificate {kind!r}")
    else:
        raise Mismatch(f"unknown status {status!r}")


def check_mz(e, out):
    check_mz_verdict(out, e["scheme"], e["label"])


def check_mz_set(e, out):
    schemes, status = e["schemes"], out["status"]
    need(e["label"] is None or status == e["label"], f"set status {status} but expected {e['label']}")
    n = order(schemes[0])[0]
    cert = out["certificate"]
    if status == "known-mz" and cert["kind"] == "GgrSet":
        count = max(1, n // 2) if cert["reduced"] else n
        need(cert["n"] == n, "set certificate order wrong")
        for k in range(1, count + 1):
            need(any(equivalent(shift(n, -k), s) for s in schemes), f"shift {k} not covered")
    elif status == "known-mz":
        errors = []
        for s in schemes:
            try:
                return check_mz_verdict(out, s, None)
            except Mismatch as exc:
                errors.append(str(exc))
        raise Mismatch(f"no member carries the certificate: {errors}")
    else:
        need(status == "open" and cert is None, f"unexpected set verdict {status}")
        need(not any(known_mz_match(s) for s in schemes), "open set has a known-mz member")


def check_recognize(e, out):
    s, match = e["scheme"], out["match"]
    if match is None:
        need(not e["geometric"], "a scale of a geometric member was not recognized")
        need(out["partners"] == [], "partners without a match")
        return
    for m in [match] + out["partners"]:
        need(m["n"] == order(s)[0], "match order wrong")
        need(scale(_member(m), F(m["b"])) == s, f"{m} does not rebuild the scheme")


def check_ggr(e, out):
    n = e["n"]
    count = max(1, n // 2) if e["reduced"] else n
    need(out["n"] == n and out["reduced"] is e["reduced"], "echoed parameters wrong")
    members = [from_json(m) for m in out["members"]]
    need(members == [shift(n, -k) for k in range(1, count + 1)], "backward shifts differ")


def check_qggr(e, out):
    n, ell, q = e["n"], e["ell"], e["q"]
    need(out["n"] == n and out["ell"] == ell and F(out["q"]) == q, "echoed parameters wrong")
    got = [(w["k"], F(w["scale"])) for w in out["witnesses"]]
    need(got == [(k, q ** k) for k in range(ell, ell + n + 1)], "shift scales are not q^k")


def check_ntimes(e, out):
    chain = e["chain"]
    n = len(chain)
    need(out["orders_present"] == list(range(n + 1)), "orders_present wrong")
    statuses = []
    for j, (entry, s) in enumerate(zip(out["per_order"], chain), start=1):
        need(entry["order"] == j, "per_order out of sequence")
        check_mz_verdict(entry["verdict"], s, None)
        statuses.append(entry["verdict"]["status"])
    all_mz = all(st == "known-mz" for st in statuses)
    need(out["all_mz"] is all_mz, "all_mz disagrees with the stages")
    identity = (not all_mz and n == 3 and equivalent(chain[0], lagrange([0, 1], 1))
                and equivalent(chain[1], D2S) and equivalent(chain[2], D31))
    if all_mz:
        need(out["peano_equivalence"] == "EstablishedByAllMZ", "chain of MZ stages not certified")
    elif identity:
        need(out["peano_equivalence"] == "EstablishedByIdentity", "identity chain not certified")
        need(from_json(out["identity_certificate"]) == lagrange([0, 1, 2], 2), "identity certificate wrong")
    else:
        need(out["peano_equivalence"] == "Unknown", "uncertified chain reported as certified")
    need(identity or out["identity_certificate"] is None, "stray identity certificate")


# --- probes -----------------------------------------------------------------

DEFAULT_RATIOS = [F(1, 2), F(1, 3), F(1, 5)]
TOL = F(1, 10 ** 9)
J_MIN, J_MAX, TAIL = 4, 40, 5


def check_report(report: dict, s: dict, oracle_text: str, x: Fraction) -> None:
    """Recompute every sample exactly, then the settled tails and the verdict."""
    n = order(s)[0]
    oracle = parse_oracle(oracle_text)
    ratios = list(DEFAULT_RATIOS)
    if oracle[0] == "subgmono":
        ratios += [r for r in auto_ratios(oracle[2]) if r not in ratios]
    need(report["config"] == {"h0": "1/1", "ratios": [fmt(r) for r in ratios], "j_min": J_MIN,
                              "j_max": J_MAX, "tol": fmt(TOL)}, "probe configuration differs")
    need(report["numeric_evidence"] is True, "probe not flagged as numeric evidence")
    seqs = report["sequences"]
    need(len(seqs) == 2 * len(ratios), "wrong number of step sequences")
    summary = []
    for seq, (ratio, sign) in zip(seqs, [(r, sg) for r in ratios for sg in (1, -1)]):
        need(F(seq["ratio"]) == ratio and seq["sign"] == sign, "sequence order differs")
        hs = [sign * ratio ** j for j in range(J_MIN, J_MAX + 1)]
        values = [quotient(s, n, oracle, x, h) for h in hs]
        need([(F(p["h"]), F(p["value"])) for p in seq["samples"]] == list(zip(hs, values)),
             f"samples differ for ratio {fmt(ratio)} sign {sign}")
        tail = values[-TAIL:]
        settled = all(close(u, v, TOL) for u in tail for v in tail)
        need(seq["settled"] is settled, "settled flag differs")
        need(seq["candidate"] == (fmt(tail[-1]) if settled else None), "candidate differs")
        in_group = None
        if oracle[0] == "subgmono":
            flags = [in_subgroup(h, oracle[2]) for h in hs]
            in_group = all(flags) if all(flags) or not any(flags) else None
        need(seq["in_group"] == in_group, "in_group flag differs")
        summary.append((settled, tail[-1], (seq["ratio"], sign)))
    verdict, estimate, evidence = _classify(summary)
    need(report["verdict"] == verdict, f"verdict {report['verdict']} but expected {verdict}")
    need(report["estimate"] == (fmt(estimate) if estimate is not None else None), "estimate differs")
    need([(p["ratio"], p["sign"]) for p in report["evidence"]] == evidence, "evidence differs")
    if oracle[0] == "mono" and oracle[1] == n and normalize(s) == s:
        need(verdict == "converges" and estimate == factorial(n), "x^n probe does not give n!")


def _classify(summary):
    settled = [(value, key) for ok, value, key in summary if ok]
    for i, (u, key_u) in enumerate(settled):
        for v, key_v in settled[i + 1:]:
            if abs(u - v) > 10 * TOL * max(F(1), abs(u), abs(v)):
                return "diverges", None, [key_u, key_v]
    if len(settled) == len(summary):
        values = [v for v, _ in settled]
        if all(close(u, v, TOL) for u in values for v in values):
            return "converges", values[0], []
    return "inconclusive", None, []


def check_probe(e, out):
    check_report(out, e["scheme"], e["oracle"], e["x"])


def check_peano(e, out):
    stages = out["stages"]
    need(1 <= len(stages) <= e["depth"], "wrong number of stages")
    for j, stage in enumerate(stages, start=1):
        need(stage["order"] == j, "stage order out of sequence")
        check_report(stage["report"], mz_tilde(j), e["oracle"], e["x"])
        last = j == len(stages)
        converged = stage["report"]["verdict"] == "converges"
        need(converged or last, "staging continued past a stage that did not converge")
        need(not last or not converged or j == e["depth"], "staging stopped early")


CHECKS = {
    "construct": check_construct,
    "decompose": check_decompose,
    "scale": check_scale,
    "equiv": check_equiv,
    "mz-check": check_mz,
    "mz-set": check_mz_set,
    "recognize": check_recognize,
    "ggr": check_ggr,
    "qggr": check_qggr,
    "ntimes": check_ntimes,
    "probe": check_probe,
    "peano": check_peano,
}
