"""The unchecked builds agree with the bodies that validated every build.

Each rewritten function is compared with its old body from
``scheme_reference``: the same terms, the same type for every coefficient
and node, or the same refusal with the same message.  The old bodies build
through the public ``Scheme(terms)``, which stores the integer form as every
build does, so a ``Fraction`` subclass given to either side is read back as a
plain ``Fraction``.
"""

from fractions import Fraction
from math import factorial

from hypothesis import assume, example, given, settings, strategies as st

import grdcalc.scheme
from grdcalc import (
    OrderInfo,
    Scheme,
    Term,
    canonicalize,
    class_member,
    combine,
    construct_exact,
    decompose,
    format_rational,
    format_scheme,
    gaussian_affine,
    gaussian_forward,
    gaussian_symmetric,
    is_scale,
    moment,
    named_scheme,
    normalized,
    order_info,
    reflect,
    riemann,
    riemann_shift,
    scale,
    scheme_from_json,
    scheme_to_json_dict,
    symmetric_riemann,
)
from grdcalc.scheme import _built, _over_common_denominator, _split
from scheme_reference import (
    reference_canonicalize,
    reference_coeff_at,
    reference_combine,
    reference_format_scheme,
    reference_is_scale,
    reference_moment,
    reference_normalized,
    reference_reflect,
    reference_scale,
    reference_scheme_to_json_dict,
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
    """Schemes, some with mirrored nodes; with ``tagged``, some values are handed to
    ``Scheme(terms)`` as ``Tagged`` (it stores them as plain ``Fraction``s)."""
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


def test_canonicalize_and_split_return_plain_fractions():
    # the old bodies hand Scheme(terms) each node as given (canonicalize the first for its
    # value, _split every one), and Terms keep a Fraction subclass; Scheme(terms) stores the
    # integer form, as canonicalize and _split do, so every value reads back as a Fraction
    pairs = [(Tagged(1, 2), Tagged(3)), ("1/2", 3), (Tagged(-1), Tagged(-3, 2))]
    terms = (Term(Tagged(-2), Tagged(-1)), Term(Tagged(2), Tagged(1)))
    assert {type(v) for t in terms for v in (t.coeff, t.node)} == {Tagged}
    scheme = Scheme(terms)
    for new, old in ((canonicalize(pairs), reference_canonicalize(pairs)),
                     (_split(scheme, False), reference_split(scheme, False)),
                     (_split(scheme, True), reference_split(scheme, True))):
        assert new == old
        parts = new + old if isinstance(new, tuple) else (new, old)
        assert {type(v) for part in parts for t in part for v in (t.coeff, t.node)} == {Fraction}
    assert {type(v) for t in scheme for v in (t.coeff, t.node)} == {Fraction}


def test_trusted_builds_equal_public_ones(monkeypatch):
    terms = (Term(Fraction(-1), Fraction(0)), Term(Fraction(1), Fraction(1, 2)))
    trusted = _built({0: -2, 1: 2}, 2, 2)  # coefficients -2/2, 2/2 at nodes 0/2, 1/2
    # the public build never calls the trusted one, which checked_builds compares it with
    monkeypatch.setattr(grdcalc.scheme, "_built", None)
    public = Scheme(terms)
    # each stores the integer form only, and forms its views on first read
    assert list(vars(trusted)) == list(vars(public)) == ["_ints"]
    assert "_ints" not in vars(Scheme)  # a stored field, not a property
    assert trusted._ints == public._ints == ((-1, 1), 1, (0, 1), 2)
    assert trusted == public and hash(trusted) == hash(public)
    assert repr(trusted) == repr(public) and trusted.terms == public.terms
    assert scheme_to_json_dict(trusted) == scheme_to_json_dict(public)
    assert not hasattr(trusted.terms[0], "__dict__")
    assert Scheme._fields == ("coeffs", "nodes")
    assert repr(public) == (
        "Scheme(coeffs=(Fraction(-1, 1), Fraction(1, 1)), nodes=(Fraction(0, 1), Fraction(1, 2)))"
    )


def test_trusted_builds_are_checked_when_asked(checked_builds):
    canonicalize([(1, 0), (-1, 1)])
    assert checked_builds.count == 1 and not checked_builds.faults
    grdcalc.scheme._built({0: 1, 1: -1}, -1, 1)  # a negative coefficient denominator
    grdcalc.scheme._built({0: 1, 1: -1}, 1, -2)  # a negative node denominator
    grdcalc.scheme._built({0: 1}, 0, 1)  # a zero coefficient denominator
    grdcalc.scheme._built({1: 1}, 1, 0)  # a zero node denominator
    assert len(checked_builds.faults) == 4
    checked_builds.faults.clear()


def assert_reads_as_its_terms(scheme: Scheme) -> None:
    """The two tuples hold plain ``Fraction``s, the nodes strictly increase, no
    coefficient is zero, the integer form is theirs over their least common denominators,
    and every reader agrees with the public rebuild ``Scheme(scheme.terms)`` and with the
    reader bodies of ``scheme_reference``."""
    coeffs, nodes = scheme.coeffs, scheme.nodes
    assert scheme._ints == (*_over_common_denominator(coeffs), *_over_common_denominator(nodes))
    assert type(coeffs) is tuple and type(nodes) is tuple and len(coeffs) == len(nodes)
    assert all(type(v) is Fraction for v in coeffs + nodes)
    assert all(coeffs) and all(left < right for left, right in zip(nodes, nodes[1:]))
    terms = tuple(Term(c, b) for c, b in zip(coeffs, nodes))
    assert scheme.terms == tuple(scheme) == terms and len(scheme) == len(terms)
    public = Scheme(scheme.terms)
    assert scheme == public and hash(scheme) == hash(public)
    for node in {*nodes, *(-b for b in nodes), Fraction(0), Fraction(1, 7)}:
        value, expected = scheme.coeff_at(node), reference_coeff_at(scheme, node)
        assert (value, type(value)) == (expected, type(expected))
    assert scheme_to_json_dict(scheme) == reference_scheme_to_json_dict(scheme)
    assert format_scheme(scheme) == reference_format_scheme(scheme)


pair_lists = st.lists(st.tuples(rationals, rationals), max_size=8)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["Scheme", "canonicalize", "scheme_from_json", "combine", "scale",
                        "normalized", "reflect", "decompose", "construct_exact"]), st.data())
def test_every_build_is_two_plain_sorted_tuples(builder, data):
    """Each builder's result against ``scheme_reference`` and ``assert_reads_as_its_terms``."""
    if builder == "construct_exact":
        nodes = data.draw(st.lists(rationals, min_size=2, max_size=6, unique=True))
        n = len(nodes) - 1
        results = [construct_exact(nodes, n)]
        assert [reference_moment(results[0], j) for j in range(n + 1)] == [0] * n + [factorial(n)]
    elif builder in ("Scheme", "canonicalize", "scheme_from_json"):
        pairs = data.draw(pair_lists)
        expected = reference_canonicalize(pairs)
        if builder == "Scheme":  # the public build of the same terms, in a drawn order
            results = [Scheme(data.draw(st.permutations(expected.terms)))]
        elif builder == "scheme_from_json":  # each value as 'p/q' over a drawn multiple
            k = data.draw(st.integers(1, 4))
            terms = [{"coeff": f"{k * c.numerator}/{k * c.denominator}",
                      "node": f"{k * b.numerator}/{k * b.denominator}"} for c, b in pairs]
            results = [scheme_from_json({"terms": terms})]
        else:
            results = [canonicalize(pairs)]
        assert results == [expected]
    elif builder == "combine":
        parts = data.draw(st.lists(st.tuples(rationals, constants, schemes(tagged=False)),
                                   min_size=1, max_size=3))
        results = [combine(parts)]
        assert results == [reference_combine(parts)]
    else:
        scheme = data.draw(schemes(tagged=False).filter(lambda s: not s.is_zero))
        if builder == "decompose":
            n = data.draw(st.integers(1, 4))
            results = list(decompose(scheme, n))
            assert results == list(reference_split(scheme, n % 2 == 1))
        elif builder == "scale":
            r = data.draw(constants)
            results = [scale(scheme, r)]
            assert results == [reference_scale(scheme, r)]
        else:
            build, reference = {"normalized": (normalized, reference_normalized),
                                "reflect": (reflect, reference_reflect)}[builder]
            results = [build(scheme)]
            assert results == [reference(scheme)]
    for result in results:
        assert_reads_as_its_terms(result)


VIEWS = {"coeffs", "nodes", "terms"}
MEMBERS = [riemann(1), riemann(2), riemann(3), symmetric_riemann(2), symmetric_riemann(3),
           riemann_shift(2, -1), gaussian_forward(2, 2), gaussian_affine(2, Fraction(3, 2)),
           gaussian_symmetric(2, 3)]


def stored_form_only(scheme: Scheme) -> Scheme:
    """``scheme``, checked to hold its integer form and none of its views."""
    assert "_ints" in vars(scheme) and not VIEWS & vars(scheme).keys()
    return scheme


@st.composite
def built_schemes(draw):
    """A scheme from a drawn builder, checked as that builder leaves it."""
    builder = draw(st.sampled_from(["Scheme", "canonicalize", "combine", "scheme_from_json",
                                    "construct_exact", "decompose", "named_scheme"]))
    if builder == "Scheme":
        terms = reference_canonicalize(draw(pair_lists)).terms
        return stored_form_only(Scheme(draw(st.permutations(terms))))
    if builder == "canonicalize":
        return stored_form_only(canonicalize(draw(pair_lists)))
    if builder == "combine":
        parts = draw(st.lists(st.tuples(rationals, constants, schemes()), min_size=1, max_size=2))
        return stored_form_only(combine(parts))
    if builder == "scheme_from_json":
        terms = [{"coeff": format_rational(c), "node": format_rational(b)}
                 for c, b in draw(pair_lists)]
        return stored_form_only(scheme_from_json({"terms": terms}))
    if builder == "construct_exact":
        nodes = draw(st.lists(rationals, min_size=2, max_size=5, unique=True))
        return stored_form_only(construct_exact(nodes, len(nodes) - 1))
    if builder == "decompose":
        parts = decompose(draw(schemes()), draw(st.integers(1, 4)))
        return stored_form_only(parts[draw(st.integers(0, 1))])
    named_scheme.cache_clear()  # a member as built, not as an earlier reader left it
    return stored_form_only(named_scheme(draw(st.sampled_from(MEMBERS))))


@st.composite
def rebuilds(draw, scheme: Scheme):
    """``scheme`` built again, through a drawn builder."""
    builder = draw(st.sampled_from(["Scheme", "canonicalize", "combine", "scheme_from_json",
                                    "construct_exact"]))
    if builder == "Scheme":
        return Scheme(reversed(scheme.terms))
    if builder == "canonicalize":
        return canonicalize([*scheme.terms, (1, 5), (-1, 5)])
    if builder == "combine":
        return combine([(2, 1, scheme), (-1, 1, scheme)])
    if builder == "construct_exact" and len(scheme) > 1:  # when it is the one it would build
        n = len(scheme) - 1
        if order_info(scheme) == OrderInfo(n, Fraction(factorial(n)), Fraction(1)):
            return construct_exact(scheme.nodes, n)
    return scheme_from_json(scheme_to_json_dict(scheme))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_equality_and_hash_are_those_of_the_views(data):
    """``==`` and ``hash`` read the stored integer form, which is reduced, so two schemes are
    equal exactly when their coefficient and node views are, from whichever builders; on
    schemes read from JSON, ``==``, ``hash`` and ``is_scale`` form no view."""
    a = data.draw(built_schemes())
    b = stored_form_only(data.draw(built_schemes() if data.draw(st.booleans()) else rebuilds(a)))
    read_a, read_b = (scheme_from_json(scheme_to_json_dict(s)) for s in (a, b))
    equal, hashes = read_a == read_b, (hash(read_a), hash(read_b))
    assert (read_a != read_b) is not equal
    factor = None if a.is_zero or b.is_zero else is_scale(read_a, read_b)
    assert not VIEWS & (vars(read_a).keys() | vars(read_b).keys())
    assert equal == (a == b) == ((a.coeffs, a.nodes) == (b.coeffs, b.nodes))
    assert read_a == a and hashes == (hash(a), hash(b))
    if equal:
        assert hash(a) == hash(b)
    if not (a.is_zero or b.is_zero):
        assert factor == reference_is_scale(a, b)
