"""Generator-only subgroup membership agrees with factoring everything."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from grdcalc import FactorizationBoundExceeded, subgroup_membership
from membership_reference import reference_membership

GENERATOR_SETS = [
    (Fraction(1),),
    (Fraction(-1),),
    (Fraction(1), Fraction(-1)),
    (Fraction(-2), Fraction(3)),
    (Fraction(1, 2), Fraction(5)),
    (Fraction(6), Fraction(2, 3)),
    (Fraction(2), Fraction(3)),
    (Fraction(-12), Fraction(9, 4), Fraction(1, 7)),
]
SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def assert_agrees(x: Fraction, gens: tuple[Fraction, ...]) -> bool:
    """Compare with the reference wherever it answers; return whether it did."""
    try:
        expected = reference_membership(x, gens)
    except FactorizationBoundExceeded:
        subgroup_membership(x, gens)  # the new test still answers
        return False
    assert subgroup_membership(x, gens) == expected, (x, gens)
    return True


def reference_refuses(x: Fraction, gens: tuple[Fraction, ...]) -> bool:
    try:
        reference_membership(x, gens)
    except FactorizationBoundExceeded:
        return True
    return False


def near_member(rng: random.Random, gens: tuple[Fraction, ...]) -> Fraction:
    """A product of generator powers, a sign, and sometimes a stray small prime."""
    x = Fraction(rng.choice([1, -1]))
    for g in gens:
        x *= g ** rng.randint(-4, 4)
    if rng.random() < 0.5:
        x *= Fraction(rng.choice(SMALL_PRIMES)) ** rng.choice([-1, 1])
    return x


def test_near_members_agree_with_reference():
    rng = random.Random(2024)
    members = 0
    for gens in GENERATOR_SETS:
        for _ in range(300):
            x = near_member(rng, gens)
            assert_agrees(x, gens)
            members += subgroup_membership(x, gens)
    assert members > 500  # the sample is not all non-members


def test_arbitrary_values_agree_with_reference():
    rng = random.Random(99)
    for gens in GENERATOR_SETS:
        for _ in range(200):
            x = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
            assert_agrees(x, gens)


def test_large_points_answered_where_reference_refuses():
    big_prime = 1000003
    gens = (Fraction(2), Fraction(big_prime))
    member = Fraction(big_prime ** 3, 4)
    stranger = Fraction(big_prime * 1000033, 7)  # two primes above the bound
    assert reference_refuses(member, gens) and reference_refuses(stranger, gens)
    assert subgroup_membership(member, gens)
    assert not subgroup_membership(stranger, gens)
    assert subgroup_membership(Fraction(-(6 ** 40), 2 ** 81), [Fraction(-2), Fraction(3)])


generator = st.fractions(
    min_value=Fraction(-40), max_value=Fraction(40), max_denominator=40
).filter(lambda v: v != 0)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(generator, min_size=1, max_size=3),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=3),
    st.sampled_from([1, -1]),
    st.sampled_from([Fraction(1), Fraction(7), Fraction(1, 11), Fraction(2, 31)]),
)
def test_generator_products_agree_with_reference(gens, powers, sign, stray):
    x = Fraction(sign) * stray
    for g, k in zip(gens, powers):
        x *= g ** k
    assert assert_agrees(x, tuple(gens))
