"""Equivalence of differentiation schemes and its decision procedure.

Two normalized schemes of the same order ``n`` are equivalent (they produce
the same derived limits on every function) exactly when their symmetric
parts are scales of each other and their skew parts are nonzero multiples
of dilations of each other:

    b_plus(h) = r**(-n) * a_plus(r*h)      for some nonzero r, and
    b_minus(h) = B * a_minus(s*h)          for some nonzero s and B,

with the degenerate case that both skew parts vanish.  The symmetric-part
constant is forced to ``r**(-n)`` because both sides are normalized; the
skew constant ``B`` is free.  The decision procedure below enumerates the
finitely many candidate ``r`` and ``s`` (extreme-node ratios) and verifies
exactly, with shortcuts for three structural special cases in which
equivalence collapses to being exact scales: both schemes symmetric, both
with only nonnegative nodes, or both exact with one of them having all
distinct node magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .families import (
    GAUSSIAN_AFFINE,
    GAUSSIAN_FORWARD,
    GAUSSIAN_SYMMETRIC,
    GaussianMatch,
    InvalidOrder,
    InvalidQ,
    gaussian_affine,
    gaussian_forward,
    gaussian_symmetric,
    named_scheme,
    recognize_gaussian,
)
from .scheme import (
    Rationalish,
    Scheme,
    ZeroScale,
    ZeroScheme,
    _require,
    _scale_witness,
    combine,
    decompose,
    format_rational,
    normalized,
    order_info,
    parse_rational,
)

PATH_GENERAL = "General"
PATH_FAST_NONNEG = "FastNonNegNodes"
PATH_FAST_DISTINCT = "FastDistinctAbs"
PATH_SYMMETRIC = "SymmetricScale"

REASON_ORDER = "OrderMismatch"
REASON_SYMMETRIC = "SymmetricPartMismatch"
REASON_SKEW = "SkewPartMismatch"
REASON_SKEW_ZERO = "SkewZeroVsNonzero"


@dataclass(frozen=True)
class Witness:
    """Constants realizing an equivalence of order-``n`` schemes.

    ``sym_factor`` is always ``r**(-n)``; ``skew_factor`` is the free
    constant on the skew parts, zero exactly when both skew parts vanish
    (then ``s`` is 1 by convention).
    """

    order: int
    r: Fraction
    s: Fraction
    sym_factor: Fraction
    skew_factor: Fraction

    def to_json_dict(self) -> dict:
        return {
            "n": self.order,
            "r": format_rational(self.r),
            "s": format_rational(self.s),
            "A": format_rational(self.sym_factor),
            "B": format_rational(self.skew_factor),
        }


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Outcome of a decision: a witnessed equivalence or a typed refusal."""

    equivalent: bool
    witness: Optional[Witness] = None
    path: Optional[str] = None
    reason: Optional[str] = None
    normalized_inputs: bool = False

    def to_json_dict(self) -> dict:
        return {
            "equivalent": self.equivalent,
            "witness": self.witness.to_json_dict() if self.witness else None,
            "path": self.path,
            "reason": self.reason,
            "normalized": self.normalized_inputs,
        }


def is_scale(a: Scheme, b: Scheme) -> Optional[Fraction]:
    """A factor ``r`` with ``scale(a, r) == b`` exactly, or None."""
    return _scale_witness(a, b)


def verify_witness(a: Scheme, b: Scheme, witness: Witness) -> bool:
    """Re-verify a witness by direct expansion of both defining identities."""
    n = witness.order
    a_plus, a_minus = decompose(a, n)
    b_plus, b_minus = decompose(b, n)
    sym_ok = combine([(witness.sym_factor, witness.r, a_plus)]) == b_plus
    skew_ok = combine([(witness.skew_factor, witness.s, a_minus)]) == b_minus
    return sym_ok and skew_ok


def _scale_verdict(n: int, r: Fraction, skew_zero: bool, path: str, flag: bool) -> EquivalenceVerdict:
    sym_factor = r ** -n
    if skew_zero:
        witness = Witness(n, r, Fraction(1), sym_factor, Fraction(0))
    else:
        witness = Witness(n, r, r, sym_factor, sym_factor)
    return EquivalenceVerdict(True, witness, path, None, flag)


def _general_verdict(
    n: int,
    a_plus: Scheme,
    a_minus: Scheme,
    b_plus: Scheme,
    b_minus: Scheme,
    path: str,
    flag: bool,
) -> EquivalenceVerdict:
    r = _scale_witness(a_plus, b_plus)
    if r is None:
        return EquivalenceVerdict(False, None, None, REASON_SYMMETRIC, flag)
    if a_minus.is_zero != b_minus.is_zero:
        return EquivalenceVerdict(False, None, None, REASON_SKEW_ZERO, flag)
    sym_factor = r ** -n
    if a_minus.is_zero:
        witness = Witness(n, r, Fraction(1), sym_factor, Fraction(0))
        return EquivalenceVerdict(True, witness, path, None, flag)
    ratio = max(abs(t.node) for t in b_minus) / max(abs(t.node) for t in a_minus)
    for s in (ratio, -ratio):
        dilated = combine([(1, s, a_minus)])
        lead = dilated.terms[-1]
        factor = b_minus.coeff_at(lead.node) / lead.coeff
        if factor != 0 and combine([(factor, 1, dilated)]) == b_minus:
            witness = Witness(n, r, s, sym_factor, factor)
            return EquivalenceVerdict(True, witness, path, None, flag)
    return EquivalenceVerdict(False, None, None, REASON_SKEW, flag)


def decide_equivalent(a: Scheme, b: Scheme, use_fast_paths: bool = True) -> EquivalenceVerdict:
    """Decide whether ``a`` and ``b`` are equivalent differentiation schemes.

    Inputs that are not normalized are normalized first and the verdict is
    flagged.  Positive verdicts carry a witness (re-checked by expansion
    before returning) and the decision path taken; negative verdicts carry
    the first structural reason found.
    """
    if a.is_zero or b.is_zero:
        raise ZeroScheme("equivalence is defined for nonzero schemes")
    flag = False
    if order_info(a).normalizer != 1:
        a, flag = normalized(a), True
    if order_info(b).normalizer != 1:
        b, flag = normalized(b), True
    n_a, n_b = order_info(a).order, order_info(b).order
    if n_a != n_b:
        return EquivalenceVerdict(False, None, None, REASON_ORDER, flag)
    n = n_a
    a_plus, a_minus = decompose(a, n)
    b_plus, b_minus = decompose(b, n)

    def general(path: str = PATH_GENERAL) -> EquivalenceVerdict:
        verdict = _general_verdict(n, a_plus, a_minus, b_plus, b_minus, path, flag)
        if verdict.equivalent:
            _require(
                verify_witness(a, b, verdict.witness), "witness failed re-verification"
            )
        return verdict

    if use_fast_paths:
        if a_minus.is_zero and b_minus.is_zero:
            r = _scale_witness(a, b)
            if r is None:
                return EquivalenceVerdict(False, None, None, REASON_SYMMETRIC, flag)
            return _scale_verdict(n, r, True, PATH_SYMMETRIC, flag)
        nonneg = all(t.node >= 0 for t in a) and all(t.node >= 0 for t in b)
        distinct_abs = len(a) == n + 1 == len(b) and (
            len({abs(t.node) for t in a}) == len(a)
            or len({abs(t.node) for t in b}) == len(b)
        )
        if nonneg or distinct_abs:
            path = PATH_FAST_NONNEG if nonneg else PATH_FAST_DISTINCT
            r = _scale_witness(a, b)
            if r is not None:
                verdict = _scale_verdict(n, r, a_minus.is_zero, path, flag)
                _require(
                    verify_witness(a, b, verdict.witness),
                    "witness failed re-verification",
                )
                return verdict
            verdict = general()
            _require(not verdict.equivalent, "fast path disagrees with general analysis")
            return verdict
    return general()


def class_member(
    a: Scheme, r: Rationalish, s: Rationalish, skew_factor: Rationalish
) -> Scheme:
    """A member of ``a``'s equivalence class with prescribed constants.

    Returns ``r**(-n) * a_plus(r*h) + skew_factor * a_minus(s*h)``
    canonicalized, where ``n`` is the detected order of ``a``.  The
    symmetric-part constant is the forced ``r**(-n)``; ``skew_factor`` must
    be nonzero whenever the skew part of ``a`` is nonzero, otherwise the
    result would leave the class.
    """
    if a.is_zero:
        raise ZeroScheme("class members are defined for nonzero schemes")
    r, s = parse_rational(r), parse_rational(s)
    skew_factor = parse_rational(skew_factor)
    if r == 0 or s == 0:
        raise ZeroScale("dilation constants r and s must be nonzero")
    n = order_info(a).order
    a_plus, a_minus = decompose(a, n)
    if skew_factor == 0 and not a_minus.is_zero:
        raise ZeroScale("skew_factor must be nonzero when the skew part is nonzero")
    return combine([(r ** -n, r, a_plus), (skew_factor, s, a_minus)])


def _candidate_ratios(sym_part: Scheme) -> list[Fraction]:
    positive = sorted(t.node for t in sym_part if t.node > 0)
    if len(positive) < 2:
        return [Fraction(2)]
    seen = []
    for low, high in zip(positive, positive[1:]):
        ratio = high / low
        if ratio not in seen:
            seen.append(ratio)
    return seen


def equivalent_gaussian(scheme: Scheme) -> Optional[GaussianMatch]:
    """Search for a geometric-node family member equivalent to ``scheme``.

    Exact scales are found by direct recognition.  Otherwise candidate
    ratios are read from consecutive positive nodes of the symmetric part
    (any equivalent geometric member must have a scaled copy of that node
    pattern), the corresponding members are constructed, and each is tested
    with :func:`decide_equivalent`.  For exact schemes with all distinct
    node magnitudes, equivalence to an exact member implies being a scale
    of it, so no search beyond recognition is needed.
    """
    if scheme.is_zero:
        raise ZeroScheme("cannot match the zero scheme")
    scheme = normalized(scheme)
    n = order_info(scheme).order
    if n < 1:
        return None
    direct = recognize_gaussian(scheme)
    if direct is not None:
        return direct
    if len(scheme) == n + 1 and len({abs(t.node) for t in scheme}) == len(scheme):
        return None
    sym_part, _ = decompose(scheme, n)
    constructors = (gaussian_forward, gaussian_affine, gaussian_symmetric)
    for ratio in _candidate_ratios(sym_part):
        for q in (ratio, -ratio):
            for make in constructors:
                try:
                    member = named_scheme(make(n, q))
                except (InvalidQ, InvalidOrder):
                    continue
                verdict = decide_equivalent(member, scheme)
                if verdict.equivalent:
                    variant = {
                        gaussian_forward: GAUSSIAN_FORWARD,
                        gaussian_affine: GAUSSIAN_AFFINE,
                        gaussian_symmetric: GAUSSIAN_SYMMETRIC,
                    }[make]
                    return GaussianMatch(variant, q, verdict.witness.r, n)
    return None
