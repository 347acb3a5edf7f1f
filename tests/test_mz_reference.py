"""The MZ catalog and the general equivalence analysis agree with their old forms.

``mz_check`` no longer decides the doubling-node witnesses or the symmetric
second difference with equivalence calls of its own, because the Gaussian
search has matched every scheme those calls could accept; ``mz_set_check``
no longer looks for sets of scales of one known-MZ member, because the
member loop returns that verdict first; and the general analysis tries only
the positive skew ratio.  Each test compares verdict JSON with the
reference modules, which keep the old steps.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from equivalence_reference import reference_general_verdict
from grdcalc import (
    class_member,
    combine,
    construct_exact,
    construct_exact_symmetric,
    decide_equivalent,
    gaussian_affine,
    gaussian_forward,
    gaussian_symmetric,
    is_symmetric,
    mz_check,
    mz_set_check,
    mz_tilde,
    mz_tilde_symmetric,
    named_scheme,
    order_info,
    riemann,
    riemann_shift,
    scale,
    symmetric_riemann,
    verify_quantum_ggr,
)
from grdcalc.mz import MAX_QGGR_SIZE
from grdcalc.scheme import OrderBudgetExceeded
from mz_reference import (
    reference_mz_check,
    reference_mz_set_check,
    reference_verify_quantum_ggr,
)

D31 = construct_exact([-1, 0, 1, 2], 3)
D2S = construct_exact_symmetric([1], True, 2)
QS = (Fraction(2), Fraction(-2), Fraction(3), Fraction(1, 2), Fraction(-3, 2))

# the catalog's own members and the Gaussian members, at orders 1..6
BASES = (
    [D31, D2S]
    + [named_scheme(family(n)) for n in range(1, 7) for family in (mz_tilde, riemann, symmetric_riemann)]
    + [named_scheme(mz_tilde_symmetric(n)) for n in range(2, 7)]
    + [
        named_scheme(family(n, q))
        for n in range(1, 7)
        for q in QS
        for family in (gaussian_forward, gaussian_affine, gaussian_symmetric)
    ]
)

constants = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3
).filter(lambda x: x != 0)
nodes = st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3)


@st.composite
def class_members(draw):
    """An image ``r**-n a_plus(r h) + B a_minus(s h)`` of a base scheme."""
    base = draw(st.sampled_from(BASES))
    return class_member(base, draw(constants), draw(constants), draw(constants))


@st.composite
def random_schemes(draw):
    """Exact schemes on random distinct nodes, or symmetric ones on random pairs."""
    n = draw(st.integers(min_value=1, max_value=5))
    if draw(st.booleans()):
        return construct_exact(draw(st.lists(nodes, min_size=n + 1, max_size=n + 1, unique=True)), n)
    count = (n + 1) // 2
    pairs = draw(
        st.lists(nodes.filter(lambda x: x > 0), min_size=count, max_size=count, unique=True)
    )
    return construct_exact_symmetric(pairs, n % 2 == 0, n)


def verdicts(check, scheme):
    """The verdict JSON in plain mode, and in symmetric mode when it applies."""
    out = [check(scheme).to_json_dict()]
    if is_symmetric(scheme, order_info(scheme).order):
        out.append(check(scheme, True).to_json_dict())
    return out


def assert_same_verdicts(scheme):
    assert verdicts(mz_check, scheme) == verdicts(reference_mz_check, scheme)


@settings(max_examples=120, deadline=None)
@given(class_members())
@example(class_member(named_scheme(mz_tilde(3)), 3, Fraction(-1, 2), Fraction(5, 2)))
@example(class_member(named_scheme(mz_tilde(2)), 2, 3, Fraction(-1, 2)))
@example(class_member(named_scheme(mz_tilde(5)), Fraction(-1, 2), 3, 2))
@example(class_member(named_scheme(mz_tilde_symmetric(4)), Fraction(-3, 2), 1, 1))
@example(class_member(named_scheme(mz_tilde_symmetric(5)), 3, 2, Fraction(-1, 3)))
@example(scale(D2S, Fraction(5, 3)))
@example(class_member(D31, 2, -3, Fraction(-7, 4)))
def test_mz_check_matches_reference_on_class_members(scheme):
    assert_same_verdicts(scheme)


@settings(max_examples=80, deadline=None)
@given(random_schemes())
def test_mz_check_matches_reference_on_random_schemes(scheme):
    assert_same_verdicts(scheme)


@st.composite
def scale_sets(draw):
    """Scales of one scheme, or backward shifts at one order, scaled."""
    if draw(st.booleans()):
        base = draw(st.sampled_from(BASES) | random_schemes())
        members = [base]
    else:
        n = draw(st.integers(min_value=1, max_value=5))
        members = [named_scheme(riemann_shift(n, -k)) for k in range(1, n + 1)]
        members = draw(st.lists(st.sampled_from(members), min_size=1, max_size=n, unique_by=id))
    factors = draw(st.lists(constants, min_size=len(members), max_size=len(members) + 2))
    return [scale(members[i % len(members)], f) for i, f in enumerate(factors)]


@settings(max_examples=60, deadline=None)
@given(scale_sets())
@example([scale(named_scheme(gaussian_affine(2, Fraction(3, 2))), f) for f in (1, -2, Fraction(1, 3))])
@example([scale(named_scheme(riemann(3)), f) for f in (1, -2, Fraction(1, 3))])
def test_mz_set_check_matches_reference_on_scale_sets(schemes):
    assert mz_set_check(schemes).to_json_dict() == reference_mz_set_check(schemes).to_json_dict()


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(BASES),
    constants,
    constants.filter(lambda s: s < 0),
    constants,
    st.sampled_from([1, 1, Fraction(5, 2)]),
)
@example(D31, 2, -3, Fraction(-7, 4), 1)
@example(named_scheme(riemann(2)), Fraction(1, 2), -1, 3, 2)
def test_general_analysis_matches_reference_on_negative_s(base, r, s, skew, unnormalize):
    member = combine([(unnormalize, 1, class_member(base, r, s, skew))])
    for a, b in ((base, member), (member, base)):
        expected = reference_general_verdict(a, b).to_json_dict()
        assert decide_equivalent(a, b, use_fast_paths=False).to_json_dict() == expected


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(BASES), class_members())
def test_general_analysis_matches_reference_on_other_pairs(a, b):
    expected = reference_general_verdict(a, b).to_json_dict()
    assert decide_equivalent(a, b, use_fast_paths=False).to_json_dict() == expected


@pytest.mark.parametrize("q", [2, Fraction(-3, 2), Fraction(7, 5), Fraction(-1, 3)])
def test_quantum_ggr_matches_reference(q):
    # the shifted members the reference builds, the rewrite checks by their nodes
    for n in range(1, 13):
        for ell in (-3, 0, 2):
            assert verify_quantum_ggr(n, ell, q) == reference_verify_quantum_ggr(n, ell, q)


def _refused(check, *args) -> bool:
    try:
        check(*args)
    except OrderBudgetExceeded:
        return True
    return False


@pytest.mark.parametrize(
    "q", [Fraction(3, 2), Fraction(-3, 2), 10, Fraction(1, 10), Fraction(-1001, 7), Fraction(7, 100)]
)
def test_quantum_ggr_limit_matches_reference(q):
    # at order 1 the size is (|ell| + 2) * digits of q, and the last answered
    # shift is where the reference's own count puts it, in both directions
    digits = len(str(max(abs(Fraction(q).numerator), Fraction(q).denominator)))
    last = MAX_QGGR_SIZE // digits - 2
    for ell in (last, -last, last + 1, -last - 1):
        refused = _refused(reference_verify_quantum_ggr, 1, ell, q)
        assert refused == (abs(ell) > last)
        assert _refused(verify_quantum_ggr, 1, ell, q) == refused
