"""The closed-form constructors agree with exact elimination, error types included."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from construction_reference import qbinom_recurrence
from elimination_reference import (
    reference_construct_exact,
    reference_construct_exact_symmetric,
)
from grdcalc import (
    InconsistentSystem,
    UnderdeterminedSystem,
    construct_exact,
    construct_exact_symmetric,
    qbinom,
)

rationals = st.fractions(
    min_value=Fraction(-30), max_value=Fraction(30), max_denominator=12
)
positive_rationals = st.fractions(
    min_value=Fraction(1, 12), max_value=Fraction(30), max_denominator=12
)


def outcome(build, *args):
    """The built scheme, or the type of the error the builder raised."""
    try:
        return build(*args)
    except Exception as exc:  # the error type itself is under test
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=14).flatmap(
        lambda n: st.tuples(
            st.just(n), st.lists(rationals, min_size=n + 1, max_size=n + 1, unique=True)
        )
    )
)
def test_construct_exact_matches_elimination(case):
    n, nodes = case
    assert construct_exact(nodes, n) == reference_construct_exact(nodes, n)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=-1, max_value=8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.integers(min_value=-4, max_value=4).map(Fraction),
                min_size=max(n, 0),
                max_size=max(n, 0) + 2,
            ),
        )
    )
)
def test_construct_exact_errors_match_elimination(case):
    # small integer nodes and off-by-one lengths: duplicates, wrong counts
    # and invalid orders all occur
    n, nodes = case
    assert outcome(construct_exact, nodes, n) == outcome(reference_construct_exact, nodes, n)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=-1, max_value=12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.booleans(),
            st.lists(positive_rationals, max_size=max(n, 0) // 2 + 3, unique=True),
        )
    )
)
def test_construct_exact_symmetric_matches_elimination(case):
    n, include_zero, pairs = case
    assert outcome(construct_exact_symmetric, pairs, include_zero, n) == outcome(
        reference_construct_exact_symmetric, pairs, include_zero, n
    )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.booleans(),
    st.lists(
        st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=2),
        max_size=5,
    ),
)
def test_construct_exact_symmetric_bad_pairs_match_elimination(n, include_zero, pairs):
    # zero, negative and repeated pairs
    assert outcome(construct_exact_symmetric, pairs, include_zero, n) == outcome(
        reference_construct_exact_symmetric, pairs, include_zero, n
    )


def test_symmetric_unknown_counts_match_elimination():
    """Too few, exactly enough and too many unknowns, with and without zero."""
    pool = [Fraction(1), Fraction(3, 2), Fraction(2, 5), Fraction(4), Fraction(7, 3),
            Fraction(5, 8), Fraction(6), Fraction(9, 4)]
    seen = set()
    for n in range(1, 11):
        conditions = n // 2 + 1
        for include_zero in (False, True):
            for count in range(conditions + 2):
                pairs = pool[:count]
                got = outcome(construct_exact_symmetric, pairs, include_zero, n)
                assert got == outcome(
                    reference_construct_exact_symmetric, pairs, include_zero, n
                )
                seen.add(got if isinstance(got, type) else "scheme")
                if n % 2 == 0 and not include_zero and count == conditions:
                    # n/2 + 1 pairs: a valid scheme on n + 2 nodes
                    assert len(got) == n + 2
    assert {"scheme", InconsistentSystem, UnderdeterminedSystem} <= seen


def test_qbinom_closed_forms_match_the_recurrence_on_a_grid():
    qs = [Fraction(p, d) for p in range(-7, 8) for d in (1, 2, 3, 5) if p]
    for q in qs:
        for n in range(13):
            for i in range(n + 1):
                assert qbinom(n, i, q) == qbinom_recurrence(n, i, q), (n, i, q)
    for q in (Fraction(-1), Fraction(1)):
        for n in range(40):
            for i in range(n + 1):
                assert qbinom(n, i, q) == qbinom_recurrence(n, i, q), (n, i, q)
    for q in (Fraction(-1001, 1000), Fraction(7, 5), Fraction(-1), Fraction(1)):
        for n, i in ((40, 17), (41, 20), (64, 31)):
            assert qbinom(n, i, q) == qbinom_recurrence(n, i, q), (n, i, q)
