"""Equivalence of differentiation schemes and its decision procedure.

Two normalized schemes of the same order ``n`` are equivalent (they produce
the same derived limits on every function) exactly when their symmetric
parts are scales of each other and their skew parts are nonzero multiples
of dilations of each other:

    b_plus(h) = r**(-n) * a_plus(r*h)      for some nonzero r, and
    b_minus(h) = B * a_minus(s*h)          for some nonzero s and B,

with the degenerate case that both skew parts vanish.  The symmetric-part
constant is forced to ``r**(-n)`` because both sides are normalized; the
skew constant ``B`` is free.  No search is needed: the parts' largest terms
force ``r``, ``s`` and ``B``, and each identity is checked once.  Three
structural special cases (fast paths) only label the verdict: both schemes
symmetric, both with only nonnegative nodes, or both exact with one of them
having all distinct node magnitudes.  On them equivalence collapses to being
an exact scale, which the decision must confirm.  Each identity is checked as
``combine(parts) == target``, the exit's re-check of every positive witness too."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .families import (
    GAUSSIAN_AFFINE,
    GAUSSIAN_FORWARD,
    FamilyKind,
    GaussianMatch,
    _common_ratio,
    named_scheme,
    recognize_gaussian,
)
from .scheme import (
    InvalidOrder,
    Rationalish,
    Scheme,
    ZeroScale,
    ZeroScheme,
    _Record,
    _require,
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


class Witness(_Record):
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


class EquivalenceVerdict(_Record):
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


def verify_witness(a: Scheme, b: Scheme, witness: Witness) -> bool:
    """Re-verify a witness against the class member it names, in one identity check.

    ``b`` must equal ``combine([(A, r, a_plus), (B, s, a_minus)])``, with ``a`` split at
    the witness order; ``b`` is not split.  A dilation keeps a part's parity and the split
    into parity parts is unique, so this holds exactly when both part identities do.
    """
    a_plus, a_minus = decompose(a, witness.order)
    return combine(
        [(witness.sym_factor, witness.r, a_plus), (witness.skew_factor, witness.s, a_minus)]
    ) == b


def _exact_distinct_magnitudes(scheme: Scheme, n: int) -> bool:
    """Whether ``scheme`` is exact (``n + 1`` terms) with all node magnitudes distinct."""
    return len(scheme) == n + 1 and len({abs(b) for b in scheme._ints[2]}) == len(scheme)


def _fast_path(a: Scheme, b: Scheme, witness: Witness) -> str:
    """The fast path that labels an equivalent pair, or ``PATH_GENERAL``.

    On each fast path the pair is equivalent exactly when ``b`` is a scale
    of ``a``; the symmetric one applies when both skew parts vanish (``B == 0``).
    """
    if witness.skew_factor == 0:
        return PATH_SYMMETRIC
    if a._ints[2][0] >= 0 and b._ints[2][0] >= 0:  # the nodes are sorted
        return PATH_FAST_NONNEG
    n = witness.order
    if len(a) == len(b) and (_exact_distinct_magnitudes(a, n) or _exact_distinct_magnitudes(b, n)):
        return PATH_FAST_DISTINCT
    return PATH_GENERAL


def _general_outcome(a: Scheme, b: Scheme, n: int) -> Witness | str:
    """The only witness that can work for a normalized same-order pair, read
    off the parts' last terms (a part has a parity, so its last node is its
    largest and positive, and ``B`` absorbs a dilation's sign), or the first
    negative reason.  Those terms are read as the last integers of the integer forms."""
    (a_plus, a_minus), (b_plus, b_minus) = decompose(a, n), decompose(b, n)
    (_, _, Ba, ea), (_, _, Bb, eb) = a_plus._ints, b_plus._ints
    r = Fraction(Bb[-1] * ea, eb * Ba[-1])
    if combine([(r ** -n, r, a_plus)]) != b_plus:
        return REASON_SYMMETRIC
    if a_minus.is_zero != b_minus.is_zero:
        return REASON_SKEW_ZERO
    if a_minus.is_zero:
        return Witness(n, r, Fraction(1), r ** -n, Fraction(0))
    (Aa, da, Ba, ea), (Ab, db, Bb, eb) = a_minus._ints, b_minus._ints
    s = Fraction(Bb[-1] * ea, eb * Ba[-1])
    skew_factor = Fraction(Ab[-1] * da, db * Aa[-1])
    if combine([(skew_factor, s, a_minus)]) != b_minus:
        return REASON_SKEW
    return Witness(n, r, s, r ** -n, skew_factor)


def decide_equivalent(a: Scheme, b: Scheme, use_fast_paths: bool = True) -> EquivalenceVerdict:
    """Decide whether ``a`` and ``b`` are equivalent differentiation schemes.

    Inputs that are not normalized are normalized first and the verdict is
    flagged.  ``use_fast_paths`` only chooses whether a positive verdict shows
    a fast-path label, with the witness as the scale ``b = scale(a, +-r)``
    that the path's theorem says it must be.  Every positive verdict leaves
    through one exit, which re-checks its witness with :func:`verify_witness`;
    negative verdicts carry the first structural reason found.
    """
    if a.is_zero or b.is_zero:
        raise ZeroScheme("equivalence is defined for nonzero schemes")
    info_a, info_b = order_info(a), order_info(b)
    flag = info_a.normalizer != 1 or info_b.normalizer != 1
    n = info_a.order
    if n != info_b.order:
        return EquivalenceVerdict(False, None, None, REASON_ORDER, flag)
    if n == 0:
        raise InvalidOrder("equivalence is defined for orders 1 and up; both schemes have order 0")
    a, b = normalized(a), normalized(b)
    outcome = _general_outcome(a, b, n)
    if isinstance(outcome, str):
        return EquivalenceVerdict(False, None, None, outcome, flag)
    path = _fast_path(a, b, outcome) if use_fast_paths else PATH_GENERAL
    if path != PATH_GENERAL:
        r, s, A, B = outcome.r, outcome.s, outcome.sym_factor, outcome.skew_factor
        _require(B == 0 or (s == r and B in (A, -A)), "fast path disagrees with general analysis")
        if B == -A:  # b = scale(a, -r); every other scale already has its witness form
            outcome = Witness(n, -r, -r, (-r) ** -n, (-r) ** -n)
    _require(verify_witness(a, b, outcome), "witness failed re-verification")
    return EquivalenceVerdict(True, outcome, path, None, flag)


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
    a_plus, a_minus = decompose(a)
    if skew_factor == 0 and not a_minus.is_zero:
        raise ZeroScale("skew_factor must be nonzero when the skew part is nonzero")
    return combine([(r ** -n, r, a_plus), (skew_factor, s, a_minus)])


def equivalent_gaussian(scheme: Scheme) -> Optional[GaussianMatch]:
    """Search for a geometric-node family member equivalent to ``scheme``.

    Exact scales are found by direct recognition; for exact schemes with all
    distinct node magnitudes, equivalence to an exact member implies being a
    scale of it, so the search ends there.  Otherwise three class invariants
    leave one variant and one ratio up to sign (members have the nodes
    ``0, 1, q, ..., q**(n-1)``, ``1, q, ..., q**n`` or ``+-|q|**i``):

    - the skew part vanishes only for symmetric members, whose class is
      their scales, so recognition has settled every skew-free scheme;
    - the symmetric part's positive nodes form one progression of ratio
      ``|q|`` or ``1/|q|``, so without a common ratio no member fits (with
      fewer than two positive nodes, 2 is tried);
    - of the members with a skew part, only forward ones have node 0.

    The member with ``q = ratio``, then ``-ratio``, is decided exactly.
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
    if _exact_distinct_magnitudes(scheme, n):
        return None
    sym_part, skew_part = decompose(scheme)
    ratio = _common_ratio([b for b in sym_part._ints[2] if b > 0])
    if skew_part.is_zero or ratio is None:
        return None
    variant = GAUSSIAN_FORWARD if 0 in scheme._ints[2] else GAUSSIAN_AFFINE
    for q in (ratio, -ratio):
        verdict = decide_equivalent(named_scheme(FamilyKind(variant, n, q=q)), scheme)
        if verdict.equivalent:
            return GaussianMatch(variant, q, verdict.witness.r, n)
    return None
