"""The Gaussian search and the candidate builder agree with their old forms.

``equivalent_gaussian`` no longer decides every consecutive node ratio of the
symmetric part at both signs against all three geometric variants: it reads
the variant and the ratio off the scheme and decides at most two members.
``families._match_candidates`` builds its parameterizations with one copy of
the code for the symmetric and the forward/affine patterns.
``recognize_gaussian`` decides a node pattern by its common ratio, and
``scale_partners`` reads the partners off the same progression in closed
form, instead of building, scaling and comparing every candidate member.
Each test compares the results with ``gaussian_reference``, which keeps the
old forms.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gaussian_reference import (
    reference_equivalent_gaussian,
    reference_match_candidates,
    reference_recognize_gaussian,
    reference_scale_partners,
    reference_search_without_shortcut,
)
from grdcalc import (
    GAUSSIAN_AFFINE,
    GAUSSIAN_FORWARD,
    GAUSSIAN_SYMMETRIC,
    RIEMANN,
    CalculusError,
    FamilyKind,
    GaussianMatch,
    InvalidQ,
    ZeroScale,
    canonicalize,
    class_member,
    combine,
    construct_exact,
    construct_exact_symmetric,
    equivalent_gaussian,
    family_nodes,
    gaussian_affine,
    gaussian_forward,
    gaussian_symmetric,
    match_to_json_dict,
    named_scheme,
    order_info,
    recognize_gaussian,
    riemann,
    scale,
    scale_partners,
    symmetric_riemann,
)
from grdcalc.families import _match_candidates

D31 = construct_exact([-1, 0, 1, 2], 3)
QS = (
    Fraction(2),
    Fraction(-2),
    Fraction(3, 2),
    Fraction(-3, 2),
    Fraction(1, 2),
    Fraction(-1, 3),
    Fraction(5, 2),
)
KINDS = [
    family(n, q)
    for n in range(1, 12)
    for q in QS
    for family in (gaussian_forward, gaussian_affine, gaussian_symmetric)
]
MEMBERS = [named_scheme(kind) for kind in KINDS if kind.n <= 7]
BASES = (
    MEMBERS
    + [named_scheme(family(n)) for n in range(1, 8) for family in (riemann, symmetric_riemann)]
    + [D31]
)

constants = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3
).filter(lambda x: x != 0)
nodes = st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3)


# images r**-n a_plus(r h) + B a_minus(s h) of members and catalog schemes
class_members = st.builds(class_member, st.sampled_from(BASES), constants, constants, constants)
member_scales = st.builds(scale, st.sampled_from(KINDS).map(named_scheme), constants)


@st.composite
def random_schemes(draw):
    """Exact schemes on random nodes, sums of two of them, or symmetric schemes."""
    n = draw(st.integers(min_value=1, max_value=5))
    exact = st.lists(nodes, min_size=n + 1, max_size=n + 1, unique=True).map(
        lambda xs: construct_exact(xs, n)
    )
    kind = draw(st.sampled_from(["exact", "sum", "symmetric"]))
    if kind == "exact":
        return draw(exact)
    if kind == "sum":
        scheme = combine([(draw(constants), 1, draw(exact)), (1, 1, draw(exact))])
        assume(not scheme.is_zero)
        return scheme
    count = (n + 1) // 2
    pairs = draw(
        st.lists(nodes.filter(lambda x: x > 0), min_size=count, max_size=count, unique=True)
    )
    return construct_exact_symmetric(pairs, n % 2 == 0, n)


def search_json(search, scheme):
    match = search(scheme)
    return None if match is None else match_to_json_dict(match)


def outcome(function, *args):
    """What ``function`` returns, or the type of what it raises."""
    try:
        return function(*args)
    except CalculusError as exc:
        return type(exc)


def fitting_reference_candidates(scheme, n):
    """The old candidates whose scaled member has the scheme's node set."""
    nodes = set(scheme.nodes)
    return [
        match
        for match in reference_match_candidates(scheme, n)
        if {match.scale_b * x for x in family_nodes(FamilyKind(match.variant, n, q=match.q))}
        == nodes
    ]


def assert_recognition_as_reference(scheme):
    """Equal recognition, and equal partners of the match and of every old candidate."""
    assert search_json(recognize_gaussian, scheme) == search_json(
        reference_recognize_gaussian, scheme
    )
    match = recognize_gaussian(scheme)
    n = order_info(scheme).order
    if n >= 1:
        for candidate in reference_match_candidates(scheme, n) + ([match] if match else []):
            assert outcome(scale_partners, candidate) == outcome(
                reference_scale_partners, candidate
            )


def assert_same_as_reference(scheme):
    assert search_json(equivalent_gaussian, scheme) == search_json(
        reference_equivalent_gaussian, scheme
    )
    n = order_info(scheme).order
    assert _match_candidates(scheme, n) == fitting_reference_candidates(scheme, n)
    assert_recognition_as_reference(scheme)


@settings(max_examples=150, deadline=None)
@given(class_members)
@example(class_member(named_scheme(gaussian_forward(3, -2)), Fraction(3, 2), -2, Fraction(-1, 3)))
@example(class_member(named_scheme(gaussian_affine(4, Fraction(3, 2))), -2, Fraction(1, 2), 5))
@example(class_member(named_scheme(gaussian_forward(1, 5)), -3, 2, Fraction(1, 2)))
@example(class_member(named_scheme(riemann(4)), 2, -1, 3))
@example(class_member(D31, 2, -3, Fraction(-7, 4)))
def test_search_matches_reference_on_class_members(scheme):
    assert_same_as_reference(scheme)


@settings(max_examples=80, deadline=None)
@given(member_scales)
@example(scale(named_scheme(gaussian_symmetric(5, -3)), Fraction(-2, 3)))
@example(scale(named_scheme(gaussian_symmetric(4, -3)), Fraction(1, 2)))
def test_search_matches_reference_on_member_scales(scheme):
    assert_same_as_reference(scheme)


@settings(max_examples=100, deadline=None)
@given(random_schemes())
def test_search_matches_reference_on_random_schemes(scheme):
    assert_same_as_reference(scheme)


def test_recognition_matches_reference_on_members_and_scales():
    for kind in KINDS:
        member = named_scheme(kind)
        for b in (1, Fraction(3, 2), -1, Fraction(-2, 5)):
            assert_recognition_as_reference(scale(member, b))


def test_candidates_match_reference_on_degenerate_patterns():
    for pairs in ([(-1, 0), (1, 1)], [(1, 1), (-1, 2)], [(-1, -1), (1, 1)], [(1, 2)]):
        scheme = canonicalize(pairs)
        for n in range(1, 4):
            assert _match_candidates(scheme, n) == fitting_reference_candidates(scheme, n)


@st.composite
def gaussian_matches(draw):
    """A ``GaussianMatch`` of any of the three geometric variants, with signed
    ``q`` and ``b``; now and then ``q`` in ``{0, 1, -1}``, ``b = 0``, or a
    variant that takes no ``q``."""
    variant = draw(
        st.sampled_from([GAUSSIAN_FORWARD, GAUSSIAN_AFFINE, GAUSSIAN_SYMMETRIC])
        | st.just(RIEMANN)
    )
    q = draw(constants | st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]))
    b = draw(constants | st.just(Fraction(0)))
    return GaussianMatch(variant, q, b, draw(st.integers(min_value=1, max_value=8)))


@settings(max_examples=200, deadline=None)
@given(gaussian_matches())
@example(GaussianMatch(GAUSSIAN_FORWARD, Fraction(1), Fraction(0), 1))
@example(GaussianMatch(GAUSSIAN_SYMMETRIC, Fraction(-1), Fraction(0), 2))
def test_partners_match_reference_on_random_matches(match):
    assert outcome(scale_partners, match) == outcome(reference_scale_partners, match)


def test_partner_error_paths_match_reference():
    for match, error in (
        (GaussianMatch(GAUSSIAN_AFFINE, Fraction(0), Fraction(2), 3), InvalidQ),
        (GaussianMatch(GAUSSIAN_SYMMETRIC, Fraction(-1), Fraction(2), 4), InvalidQ),
        (GaussianMatch(GAUSSIAN_FORWARD, Fraction(1), Fraction(2), 2), InvalidQ),
        (GaussianMatch(GAUSSIAN_AFFINE, Fraction(3, 2), Fraction(0), 2), ZeroScale),
        (GaussianMatch(GAUSSIAN_SYMMETRIC, Fraction(-2), Fraction(0), 5), ZeroScale),
        (GaussianMatch(RIEMANN, Fraction(2), Fraction(1), 3), CalculusError),
    ):
        assert outcome(scale_partners, match) is error
        assert outcome(reference_scale_partners, match) is error


SWEEP_QS = (Fraction(2), Fraction(-3, 2), Fraction(7, 5), Fraction(-1, 3))


@pytest.mark.parametrize("family", [gaussian_forward, gaussian_affine, gaussian_symmetric])
def test_recognition_and_partners_match_reference_to_order_16(family):
    """Every member at n = 1..16, four ratios and three scales: 192 cases a family."""
    for n in range(1, 17):
        for q in SWEEP_QS:
            member = named_scheme(family(n, q))
            for b in (1, Fraction(-2, 3), 5):
                scheme = scale(member, b)
                match = recognize_gaussian(scheme)
                assert match is not None and match == reference_recognize_gaussian(scheme)
                assert scale_partners(match) == reference_scale_partners(match)


@st.composite
def sign_flipped_geometric(draw):
    """An exact scheme on ``0, 1, q, ..., q**(n-1)`` or ``1, q, ..., q**n``
    with some nodes negated: all node magnitudes are distinct."""
    n = draw(st.integers(min_value=1, max_value=6))
    q = draw(st.sampled_from([q for q in QS if q > 0] + [Fraction(3), Fraction(2, 3)]))
    forward = draw(st.booleans())
    powers = [q ** i for i in range(n if forward else n + 1)]
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(powers), max_size=len(powers)))
    flipped = [sign * power for sign, power in zip(signs, powers)]
    return construct_exact(([0] if forward else []) + flipped, n)


@settings(max_examples=120, deadline=None)
@given(sign_flipped_geometric() | random_schemes())
@example(construct_exact([0, 1, -2, 4, -8], 4))
@example(construct_exact([-1, 2, 3], 2))
def test_distinct_magnitude_shortcut_misses_no_member(scheme):
    n = order_info(scheme).order
    assume(len(scheme) == n + 1 and len({abs(t.node) for t in scheme}) == len(scheme))
    assert search_json(equivalent_gaussian, scheme) == search_json(
        reference_search_without_shortcut, scheme
    )
