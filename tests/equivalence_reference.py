"""Independent reference for the general equivalence analysis: both skew signs.

``reference_general_outcome`` is the body ``_general_outcome`` once had,
kept unchanged apart from its name: it tries the skew dilation ``s`` at
both signs of the extreme-node ratio.  The skew part of an order-``n``
scheme has the parity of ``n + 1``, so dilating it by ``-ratio`` only flips
its sign, which the free skew constant absorbs; the procedure now tries the
positive ratio only.  ``reference_general_verdict`` runs the steps
``decide_equivalent`` takes with the fast paths off, around that body.
"""

from grdcalc.equivalence import (
    PATH_GENERAL,
    REASON_ORDER,
    REASON_SKEW,
    REASON_SKEW_ZERO,
    REASON_SYMMETRIC,
    EquivalenceVerdict,
    Witness,
    _witness_for_scale,
    verify_witness,
)
from grdcalc.scheme import Scheme, combine, decompose, is_scale, normalized, order_info


def reference_general_outcome(
    n: int, a_plus: Scheme, a_minus: Scheme, b_plus: Scheme, b_minus: Scheme
) -> Witness | str:
    r = is_scale(a_plus, b_plus)
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
    assert verify_witness(a, b, outcome)
    return EquivalenceVerdict(True, outcome, PATH_GENERAL, None, flag)
