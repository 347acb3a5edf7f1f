"""The unchecked builds agree with the bodies that validated every build.

Each rewritten function is compared with its old body from
``scheme_reference``: the same terms, the same type for every coefficient
and node, or the same refusal with the same message.
"""

from fractions import Fraction

from hypothesis import assume, example, given, settings, strategies as st

import grdcalc.scheme
from grdcalc import (
    Scheme,
    Term,
    canonicalize,
    class_member,
    combine,
    construct_exact,
    decompose,
    format_rational,
    gaussian_affine,
    gaussian_forward,
    gaussian_symmetric,
    moment,
    named_scheme,
    normalized,
    reflect,
    scale,
    scheme_to_json_dict,
)
from grdcalc.scheme import _scheme, _split, _term
from scheme_reference import (
    reference_canonicalize,
    reference_combine,
    reference_moment,
    reference_normalized,
    reference_reflect,
    reference_scale,
    reference_split,
)


class Tagged(Fraction):
    """A ``Fraction`` subclass, to see which values a build keeps as given."""


rationals = st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=3)


def spellings(value: Fraction):
    """The ways a caller may hand ``value`` to ``canonicalize``."""
    forms = [value, Tagged(value), format_rational(value), f" {value} "]
    if value.denominator == 1:
        forms += [int(value), str(int(value))]
    if value.denominator in (1, 2):
        forms.append(str(float(value)))
    return st.sampled_from(forms)


# valid spellings mostly; booleans and malformed strings are refused
values = st.one_of(
    rationals.flatmap(spellings),
    st.booleans(),
    st.sampled_from(["x", "1/0", ""]),
)


@st.composite
def items(draw):
    """A (coeff, node) pair in any spelling, or a Term."""
    if draw(st.booleans()):
        return draw(st.tuples(values, values))
    return Term(draw(rationals.flatmap(spellings)), draw(rationals.flatmap(spellings)))


@st.composite
def item_lists(draw):
    """Pairs, some repeated with the opposite coefficient so that nodes cancel."""
    drawn = draw(st.lists(items(), max_size=8))
    cancelled = draw(st.lists(st.booleans(), max_size=len(drawn)))
    for cancel, item in zip(cancelled, drawn):
        if cancel and isinstance(item, Term):
            drawn.append((-item.coeff, item.node))
    return drawn


@st.composite
def schemes(draw, tagged: bool = True):
    """Schemes, some with mirrored nodes; with ``tagged``, some values are ``Tagged``."""
    pairs = draw(st.lists(st.tuples(rationals, rationals), max_size=7))
    mirrored = draw(st.lists(st.sampled_from([-1, 1]), max_size=len(pairs)))
    pairs += [(sign * c, -b) for sign, (c, b) in zip(mirrored, pairs)]
    scheme = reference_canonicalize(pairs)
    if not tagged:
        return scheme
    tags = draw(st.lists(st.tuples(st.booleans(), st.booleans()),
                         min_size=len(scheme), max_size=len(scheme)))
    return Scheme(tuple(
        Term(Tagged(t.coeff) if on_coeff else t.coeff, Tagged(t.node) if on_node else t.node)
        for t, (on_coeff, on_node) in zip(scheme, tags)
    ))


# factors: zero, negative, fractional, in each spelling
factors = rationals.flatmap(spellings)


def built(function, *args):
    """Each resulting scheme's terms with their value types, or the refusal's type and text."""
    try:
        result = function(*args)
    except Exception as exc:  # the refusal itself is under test
        return type(exc), str(exc)
    parts = result if isinstance(result, tuple) else (result,)
    assert all(type(part) is Scheme for part in parts)
    return [
        [(t.coeff, type(t.coeff), t.node, type(t.node)) for t in part] for part in parts
    ]


@settings(max_examples=200, deadline=None)
@given(item_lists())
@example([(1, 2), (2, 0), (-1, 2), (1, 1), (0, 5)])
@example([(Tagged(1, 2), Tagged(3)), ("1/2", 3), (1, Fraction(3))])
@example([(True, 1)])
@example([(1, False)])
def test_canonicalize_matches_reference(terms):
    assert built(canonicalize, terms) == built(reference_canonicalize, terms)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(factors, factors, schemes()), min_size=1, max_size=3))
def test_combine_matches_reference(parts):
    assert built(combine, parts) == built(reference_combine, parts)


# Gaussian members of orders 12..16 (nodes q**i, coefficients with large
# denominators); with r != s the two parts' nodes differ, so the sum has many terms
families = st.sampled_from([gaussian_forward, gaussian_affine, gaussian_symmetric])
ratios = st.sampled_from([Fraction(2), Fraction(3, 2), Fraction(-5, 3), Fraction(7, 4)])
constants = st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool)


@settings(max_examples=30, deadline=None)
@given(families, st.integers(12, 16), ratios, constants, constants, constants)
def test_multi_part_combine_matches_reference(family, n, q, r, s, skew):
    assume(r != s and skew not in (r ** -n, -(r ** -n)))
    member = named_scheme(family(n, q))
    plus, minus = decompose(member, n)
    parts = [(r ** -n, r, plus), (skew, s, minus)]
    expected = built(reference_combine, parts)
    assert built(combine, parts) == expected
    assert built(class_member, member, r, s, skew) == expected
    # a part given as a list of Terms, out of node order, is read through canonicalize
    listed = [(r ** -n, r, list(reversed(plus.terms))), (skew, s, list(minus.terms))]
    assert built(combine, listed) == expected


@settings(max_examples=150, deadline=None)
@given(schemes(), st.integers(-1, 8))
@example(Scheme(), 0)
@example(construct_exact([0, 1, 2], 2), 2)
def test_moment_matches_reference(scheme, j):
    def value(function):
        try:
            result = function(scheme, j)
        except Exception as exc:  # the refusal itself is under test
            return type(exc), str(exc)
        return result, type(result)

    assert value(moment) == value(reference_moment)


@settings(max_examples=60, deadline=None)
@given(factors, factors, schemes())
def test_one_part_combine_matches_the_merging_path(coeff, dilation, scheme):
    # a second part with coefficient 0 sends the same sum through canonicalize
    one, many = [(coeff, dilation, scheme)], [(coeff, dilation, scheme), (0, 1, scheme)]
    assert built(combine, one) == built(combine, many) == built(reference_combine, one)


@settings(max_examples=100, deadline=None)
@given(schemes(), factors)
@example(Scheme(), 2)
@example(construct_exact([0, 1, 2], 2), 0)
@example(construct_exact([0, 1, 2], 2), -1)
def test_scale_matches_reference(scheme, r):
    assert built(scale, scheme, r) == built(reference_scale, scheme, r)


@settings(max_examples=100, deadline=None)
@given(schemes(tagged=False))
@example(Scheme())
def test_normalized_and_reflect_match_reference(scheme):
    assert built(normalized, scheme) == built(reference_normalized, scheme)
    assert built(reflect, scheme) == built(reference_reflect, scheme)


@settings(max_examples=150, deadline=None)
@given(schemes(), st.booleans())
@example(Scheme(), True)
@example(canonicalize([(1, -2), (1, 2), (-2, 0)]), False)
def test_split_matches_reference(scheme, odd):
    assert built(_split, scheme, odd) == built(reference_split, scheme, odd)


def test_normalized_and_reflect_return_plain_fractions():
    # the one difference from the old bodies: a value each kept as given
    # (normalized a node, reflect a coefficient) is now multiplied by 1 or -1
    scheme = Scheme((Term(Tagged(-2), Tagged(0)), Term(Tagged(2), Tagged(1))))
    for new, old in ((normalized, reference_normalized), (reflect, reference_reflect)):
        assert new(scheme) == old(scheme)
        assert {type(v) for t in new(scheme) for v in (t.coeff, t.node)} == {Fraction}


def test_trusted_builds_equal_public_ones():
    terms = (Term(Fraction(-1), Fraction(0)), Term(Fraction(1), Fraction(1, 2)))
    trusted = _scheme(tuple(_term(t.coeff, t.node) for t in terms))
    public = Scheme(terms)
    assert trusted == public and hash(trusted) == hash(public)
    assert repr(trusted) == repr(public) and trusted.terms == public.terms
    assert scheme_to_json_dict(trusted) == scheme_to_json_dict(public)
    assert not hasattr(trusted.terms[0], "__dict__")


def test_trusted_builds_are_checked_when_asked(checked_builds):
    canonicalize([(1, 0), (-1, 1)])
    assert checked_builds.count == 1 and not checked_builds.faults
    grdcalc.scheme._scheme((Term(1, 1), Term(1, 0)))  # out of order
    grdcalc.scheme._scheme((Term(1, 0), Term(2, 0)))  # one node twice
    grdcalc.scheme._scheme((_term(1, 0),))  # an int coefficient
    assert len(checked_builds.faults) == 3
    checked_builds.faults.clear()
