"""The single-pass decompose agrees with the reflect-and-canonicalize form."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import grdcalc.scheme
from decompose_reference import reference_decompose
from grdcalc import (
    InvalidOrder,
    Scheme,
    canonicalize,
    construct_exact,
    decompose,
    order_info,
    scheme_to_json_dict,
)
from scheme_reference import reference_moment

rationals = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6
)


@st.composite
def schemes(draw):
    """Random schemes, some with mirrored nodes so that parts cancel."""
    pairs = draw(st.lists(st.tuples(rationals, rationals), max_size=7))
    mirrored = draw(st.lists(st.sampled_from([-1, 1]), max_size=len(pairs)))
    pairs += [(sign * c, -b) for sign, (c, b) in zip(mirrored, pairs)]
    return canonicalize(pairs)


def outcome(split, *args):
    """The two parts, or the type of the error the split raised."""
    try:
        return split(*args)
    except Exception as exc:  # the error type itself is under test
        return type(exc)


EVEN = canonicalize([(1, -2), (1, 2), (-2, 0)])  # symmetric at even n, skew at odd n


@settings(max_examples=150, deadline=None)
@given(schemes(), st.integers(min_value=1, max_value=8))
@example(EVEN, 2)
@example(EVEN, 3)
@example(Scheme(), 1)
def test_decompose_matches_reference(scheme, n):
    assert decompose(scheme, n) == reference_decompose(scheme, n)
    # the detected order, which may be 0 (refused) and may differ from n
    assert outcome(decompose, scheme) == outcome(reference_decompose, scheme)


def test_decompose_rejects_bad_orders():
    d2 = construct_exact([0, 1, 2], 2)
    for n in (0, -1, Fraction(2), 2.0):
        with pytest.raises(InvalidOrder):
            decompose(d2, n)
        with pytest.raises(InvalidOrder):
            reference_decompose(d2, n)


def test_decompose_builds_no_intermediate_scheme(monkeypatch):
    def forbidden(*args):
        raise AssertionError("decompose must not reflect or canonicalize")

    d31 = construct_exact([-1, 0, 1, 2], 3)
    expected = reference_decompose(d31, 3)
    monkeypatch.setattr(grdcalc.scheme, "reflect", forbidden)
    monkeypatch.setattr(grdcalc.scheme, "canonicalize", forbidden)
    assert decompose(d31, 3) == decompose(d31) == expected


@settings(max_examples=150, deadline=None)
@given(schemes())
@example(EVEN)
@example(Scheme())
def test_kept_order_and_parts_change_nothing_observable(scheme):
    def fresh():
        return Scheme(scheme.terms)  # an equal object with nothing derived yet

    observed = (repr(scheme), hash(scheme), scheme_to_json_dict(scheme))
    for _ in range(2):  # the second round reads what the first one kept
        info = outcome(order_info, scheme)
        assert info == outcome(order_info, fresh())
        if not isinstance(info, type):
            assert reference_moment(scheme, info.order) == info.leading_moment
            assert all(reference_moment(scheme, j) == 0 for j in range(info.order))
        for n in (1, 2):
            assert decompose(scheme, n) == reference_decompose(fresh(), n)
        assert outcome(decompose, scheme) == outcome(reference_decompose, fresh())
        assert scheme == fresh() and hash(scheme) == hash(fresh())
        assert (repr(scheme), hash(scheme), scheme_to_json_dict(scheme)) == observed
