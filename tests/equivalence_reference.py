"""Independent references for the equivalence decision.

``reference_general_outcome`` is the body ``_general_outcome`` once had,
kept unchanged apart from its name: it tries the skew dilation ``s`` at
both signs of the extreme-node ratio.  The skew part of an order-``n``
scheme has the parity of ``n + 1``, so dilating it by ``-ratio`` only flips
its sign, which the free skew constant absorbs; the procedure now tries the
positive ratio only.  ``reference_general_verdict`` runs the steps
``decide_equivalent`` takes with the fast paths off, around that body.

``reference_decide_equivalent`` is ``decide_equivalent`` as it was before
it became one procedure, kept unchanged apart from its names: two engines,
an exact-scale trial through ``reference_is_scale`` on the fast paths, then
the general analysis (``reference_outcome``), which tries both signs of the
symmetric ratio through ``reference_is_scale`` and builds the dilated skew
part before it multiplies it.  ``reference_is_scale`` (from
``scheme_reference``) builds each candidate scale, so these references do not
share the integer check ``is_scale`` now makes.

``reference_verify_witness`` is the body ``verify_witness`` once had, and
``_witness_for_scale`` the helper that built the scale witnesses, both kept
unchanged: the re-verification split both schemes and expanded the two
part identities one at a time.  ``verify_witness`` now compares ``b`` whole
with the one class member the witness names; both references above use the
old body, so they stay independent of it.
"""

from fractions import Fraction

from grdcalc.equivalence import (
    PATH_FAST_DISTINCT,
    PATH_FAST_NONNEG,
    PATH_GENERAL,
    PATH_SYMMETRIC,
    REASON_ORDER,
    REASON_SKEW,
    REASON_SKEW_ZERO,
    REASON_SYMMETRIC,
    EquivalenceVerdict,
    Witness,
)
from grdcalc.scheme import (
    Scheme,
    ZeroScheme,
    _require,
    combine,
    decompose,
    normalized,
    order_info,
)
from scheme_reference import reference_is_scale


def _witness_for_scale(n: int, r: Fraction, skew_zero: bool) -> Witness:
    """The witness of ``b = scale(a, r)``: the skew part dilates by ``r`` too."""
    sym_factor = r ** -n
    if skew_zero:
        return Witness(n, r, Fraction(1), sym_factor, Fraction(0))
    return Witness(n, r, r, sym_factor, sym_factor)


def reference_verify_witness(a: Scheme, b: Scheme, witness: Witness) -> bool:
    """Re-verify a witness by direct expansion of both defining identities.

    Both schemes are decomposed at the witness order; :func:`decide_equivalent`
    applies this check to every positive verdict.
    """
    n = witness.order
    (a_plus, a_minus), (b_plus, b_minus) = decompose(a, n), decompose(b, n)
    return (
        combine([(witness.sym_factor, witness.r, a_plus)]) == b_plus
        and combine([(witness.skew_factor, witness.s, a_minus)]) == b_minus
    )


def reference_general_outcome(
    n: int, a_plus: Scheme, a_minus: Scheme, b_plus: Scheme, b_minus: Scheme
) -> Witness | str:
    r = reference_is_scale(a_plus, b_plus)
    if r is None:
        return REASON_SYMMETRIC
    if a_minus.is_zero != b_minus.is_zero:
        return REASON_SKEW_ZERO
    if a_minus.is_zero:
        return _witness_for_scale(n, r, True)
    ratio = max(abs(t.node) for t in b_minus) / max(abs(t.node) for t in a_minus)
    for s in (ratio, -ratio):
        dilated = combine([(1, s, a_minus)])
        lead = dilated.terms[-1]
        factor = b_minus.coeff_at(lead.node) / lead.coeff
        if factor != 0 and combine([(factor, 1, dilated)]) == b_minus:
            return Witness(n, r, s, r ** -n, factor)
    return REASON_SKEW


def reference_general_verdict(a: Scheme, b: Scheme) -> EquivalenceVerdict:
    """``decide_equivalent(a, b, use_fast_paths=False)`` on the reference body."""
    info_a, info_b = order_info(a), order_info(b)
    flag = info_a.normalizer != 1 or info_b.normalizer != 1
    n = info_a.order
    if n != info_b.order:
        return EquivalenceVerdict(False, None, None, REASON_ORDER, flag)
    a, b = normalized(a), normalized(b)
    outcome = reference_general_outcome(n, *decompose(a, n), *decompose(b, n))
    if isinstance(outcome, str):
        return EquivalenceVerdict(False, None, None, outcome, flag)
    assert reference_verify_witness(a, b, outcome)
    return EquivalenceVerdict(True, outcome, PATH_GENERAL, None, flag)


def reference_fast_path(a: Scheme, b: Scheme) -> str:
    """The fast path that applies to a same-order pair, or ``PATH_GENERAL``.

    On each fast path the pair is equivalent exactly when ``b`` is a scale
    of ``a``; the symmetric one applies when both skew parts vanish.
    """
    n = order_info(a).order
    if decompose(a, n)[1].is_zero and decompose(b, n)[1].is_zero:
        return PATH_SYMMETRIC
    if all(t.node >= 0 for t in a) and all(t.node >= 0 for t in b):
        return PATH_FAST_NONNEG
    if len(a) == n + 1 == len(b) and (
        len({abs(t.node) for t in a}) == len(a) or len({abs(t.node) for t in b}) == len(b)
    ):
        return PATH_FAST_DISTINCT
    return PATH_GENERAL


def reference_outcome(a: Scheme, b: Scheme) -> Witness | str:
    """A witness from the full part-by-part analysis of a same-order pair, or
    the negative reason."""
    n = order_info(a).order
    (a_plus, a_minus), (b_plus, b_minus) = decompose(a, n), decompose(b, n)
    r = reference_is_scale(a_plus, b_plus)
    if r is None:
        return REASON_SYMMETRIC
    if a_minus.is_zero != b_minus.is_zero:
        return REASON_SKEW_ZERO
    if a_minus.is_zero:
        return _witness_for_scale(n, r, True)
    # the skew part has the parity of n + 1, so dilating it by -s only flips
    # its sign, which the free constant absorbs: s > 0 covers both signs
    s = max(abs(t.node) for t in b_minus) / max(abs(t.node) for t in a_minus)
    dilated = combine([(1, s, a_minus)])
    lead = dilated.terms[-1]
    factor = b_minus.coeff_at(lead.node) / lead.coeff
    if factor != 0 and combine([(factor, 1, dilated)]) == b_minus:
        return Witness(n, r, s, r ** -n, factor)
    return REASON_SKEW


def reference_decide_equivalent(
    a: Scheme, b: Scheme, use_fast_paths: bool = True
) -> EquivalenceVerdict:
    """Decide whether ``a`` and ``b`` are equivalent differentiation schemes.

    Inputs that are not normalized are normalized first and the verdict is
    flagged.  Every verdict leaves through one exit, which re-checks each
    positive witness with :func:`reference_verify_witness`, whichever path found it;
    a fast path that finds no scale must agree with the general analysis.
    Positive verdicts carry the witness and the decision path taken;
    negative verdicts carry the first structural reason found.
    """
    if a.is_zero or b.is_zero:
        raise ZeroScheme("equivalence is defined for nonzero schemes")
    info_a, info_b = order_info(a), order_info(b)
    flag = info_a.normalizer != 1 or info_b.normalizer != 1
    n = info_a.order
    if n != info_b.order:
        outcome = REASON_ORDER
    else:
        a, b = normalized(a), normalized(b)
        path = reference_fast_path(a, b) if use_fast_paths else PATH_GENERAL
        r = None if path == PATH_GENERAL else reference_is_scale(a, b)
        if r is not None:
            outcome = _witness_for_scale(n, r, decompose(a, n)[1].is_zero)
        elif path == PATH_SYMMETRIC:
            outcome = REASON_SYMMETRIC
        else:
            outcome = reference_outcome(a, b)
            _require(
                path == PATH_GENERAL or isinstance(outcome, str),
                "fast path disagrees with general analysis",
            )
    if isinstance(outcome, str):
        return EquivalenceVerdict(False, None, None, outcome, flag)
    _require(reference_verify_witness(a, b, outcome), "witness failed re-verification")
    return EquivalenceVerdict(True, outcome, path, None, flag)
