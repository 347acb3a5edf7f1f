"""Subgroup membership over a coprime base agrees with factoring everything."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from grdcalc import probes, subgroup_membership
from grdcalc.probes import _coprime_base, _generator_lattice, _membership
from membership_reference import (
    FactorizationBoundExceeded,
    reference_coprime_membership,
    reference_membership,
)

GENERATOR_SETS = [
    (Fraction(1),),
    (Fraction(-1),),
    (Fraction(1), Fraction(-1)),
    (Fraction(-2), Fraction(3)),
    (Fraction(1, 2), Fraction(5)),
    (Fraction(6), Fraction(2, 3)),
    (Fraction(2), Fraction(3)),
    (Fraction(-12), Fraction(9, 4), Fraction(1, 7)),
    # generators sharing composite factors: the base refines them
    (Fraction(6), Fraction(10), Fraction(15)),
    (Fraction(12), Fraction(18)),
    (Fraction(4), Fraction(8), Fraction(1, 6)),
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


# 1000003 and 1000033 are primes above the reference's 10**6 bound; the last
# two are primes above 10**12
SEMIPRIME = 1000003 * 1000033
BIG_SEMIPRIME = 1000000000039 * 1000000000061


def test_generators_past_the_old_bound():
    rng = random.Random(11)
    for gens in [
        (Fraction(SEMIPRIME),),
        (Fraction(SEMIPRIME ** 2), Fraction(2)),
        (Fraction(-3, BIG_SEMIPRIME), Fraction(10)),
    ]:
        for _ in range(50):
            x = Fraction(1)
            for g in gens:
                x *= g ** rng.randint(-3, 3)
            assert subgroup_membership(x, gens)
            for stray in (5, 1000003, 1000000000039):
                assert not subgroup_membership(x * stray, gens)
                assert not subgroup_membership(x / stray, gens)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(1, 10 ** 4), min_size=1, max_size=3).map(prod), max_size=6))
def test_coprime_base_refines_its_inputs(values):
    base = _coprime_base(values)
    assert all(b > 1 for b in base)
    assert all(gcd(a, b) == 1 for a, b in combinations(base, 2))
    for value in values:
        for b in base:
            while value % b == 0:
                value //= b
        assert value == 1


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


# generators whose coprime base has composite elements (4, 6, 12/5 and 10/9
# refine to such bases together), with the units and a negative prime
COMPOSITE_BASE_GENERATORS = [
    Fraction(4), Fraction(6), Fraction(12, 5), Fraction(10, 9), Fraction(-1), Fraction(1),
    Fraction(-2),
]
STRAYS = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(2, 3), Fraction(5),
          Fraction(1, 6), Fraction(7, 4)]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(COMPOSITE_BASE_GENERATORS), min_size=1, max_size=4),
    st.lists(st.integers(-4, 4), min_size=4, max_size=4),
    st.sampled_from(STRAYS),
    st.sampled_from([1, -1]),
    st.integers(1, 10 ** 6),
)
def test_unreduced_pairs_agree_with_reference(gens, powers, stray, sign, g):
    """``_membership`` takes ``num/den`` with a common factor ``g`` left in."""
    gens = tuple(gens)
    x = sign * stray
    for gen, k in zip(gens, powers):
        x *= gen ** k
    want = reference_membership(x, gens)
    assert reference_coprime_membership(x, gens) == want
    assert _membership(x.numerator * g, x.denominator * g, _generator_lattice(gens)) == want


@pytest.mark.parametrize(
    "num, den, gens, member",
    [
        # |num| and den leave the cofactors 2 and 2 over the base {4}: 2/8 = 4**-1
        (2, 8, [4], True),
        (-8, 2, [4, -1], True),
        (2, 4, [4], False),
        (4, 2, [4], False),
        # cofactors 3 and 2 over the base {6}
        (3, 2, [6], False),
        (9, 6, [6], False),
        (12, 2, [6], True),
        (-3, 18, [6, -1], True),
        (3, 12, [6, -1], False),
        # the base {2, 3, 5} of 12/5 and 10/9 against 25 = 5**2
        (48, 25, [Fraction(12, 5), Fraction(10, 9)], False),
        (144 * 7, 25 * 7, [Fraction(12, 5), Fraction(10, 9)], True),
    ],
)
def test_cofactor_cases(num, den, gens, member):
    gens = tuple(Fraction(v) for v in gens)
    assert _membership(num, den, _generator_lattice(gens)) is member
    assert reference_membership(Fraction(num, den), gens) is member


# generator tuples whose lattice reduction meets each kind of Bezout pair
# (a, b), a on the pivot column: b dividing a, so that |b/g| = 1 (the
# exponents 3 and 1 of 8 and 2, and 2 and -1 of 9 and 1/3), a negative entry
# (-3 and 2 of 1/216 and 36 over 6) and entries sharing a factor (4 and 6 of
# 16 and 64 over 2); the sign rows and the reduced columns add more pairs
BEZOUT_GENERATORS = [
    (Fraction(2), Fraction(8)),
    (Fraction(1, 3), Fraction(9)),
    (Fraction(36), Fraction(1, 216)),
    (Fraction(6), Fraction(16), Fraction(64)),
    (Fraction(16), Fraction(-64)),
    (Fraction(-16, 27), Fraction(64, 9), Fraction(1, 6)),
    (Fraction(-8, 9), Fraction(1, 12), Fraction(36, 5), Fraction(-25)),
]


def test_bezout_pairs_of_every_kind_keep_the_lattice(monkeypatch):
    calls = []

    def spy(f):
        return lambda *args: calls.append((f, args)) or f(*args)

    monkeypatch.setattr(probes, "gcd", spy(gcd))
    monkeypatch.setattr(probes, "pow", spy(pow), raising=False)
    lattices = [_generator_lattice.__wrapped__(gens) for gens in BEZOUT_GENERATORS]
    monkeypatch.undo()
    # each pair's pow call follows the gcd of its two pivot entries
    pairs = [calls[i - 1][1] for i, (f, _) in enumerate(calls) if f is pow]
    assert any(abs(b // gcd(a, b)) == 1 for a, b in pairs)
    assert any(a < 0 or b < 0 for a, b in pairs)
    assert any(gcd(a, b) > 1 for a, b in pairs)
    rng = random.Random(36)
    for gens, lattice in zip(BEZOUT_GENERATORS, lattices):
        assert lattice == _generator_lattice(gens)
        for _ in range(60):
            x = Fraction(rng.choice([1, -1])) * rng.choice(STRAYS + [Fraction(5, 7)])
            for g in gens:
                x *= g ** rng.randint(-4, 4)
            want = reference_membership(x, gens)
            assert reference_coprime_membership(x, gens) == want
            assert _membership(x.numerator, x.denominator, lattice) == want, (x, gens)
