"""Scheme algebra: construction, moments, decomposition, scaling, JSON."""

import decimal
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import grdcalc
from grdcalc import (
    CalculusError,
    DuplicateNodes,
    IdentityCheckFailed,
    InconsistentSystem,
    InvalidOrder,
    Scheme,
    Term,
    UnderdeterminedSystem,
    WrongNodeCount,
    ZeroDilation,
    ZeroNodeParityError,
    ZeroScale,
    ZeroScheme,
    canonicalize,
    combine,
    construct_exact,
    construct_exact_symmetric,
    decompose,
    format_rational,
    format_scheme,
    is_scale,
    is_symmetric,
    moment,
    named_scheme,
    normalized,
    order_info,
    parse_family,
    parse_rational,
    reflect,
    scale,
    scheme_from_json,
    scheme_to_json_dict,
)
from grdcalc import probes
from grdcalc.scheme import (
    _SPLIT_DIGITS,
    _digits,
    _matches,
    _read_int,
    _scheme,
    _term,
)
from rational_reference import reference_parse_rational
from scheme_reference import reference_combine, reference_is_scale, reference_moment
from test_cli import run_child

rationals = st.fractions(
    min_value=Fraction(-30), max_value=Fraction(30), max_denominator=12
)
small_orders = st.integers(min_value=1, max_value=5)


def distinct_nodes(n: int):
    return st.lists(rationals, min_size=n + 1, max_size=n + 1, unique=True)


def lagrange_coefficients(nodes, n):
    """Independent oracle: the exact coefficients are n! times the leading
    coefficients of the Lagrange basis polynomials on the nodes."""
    return [
        Fraction(factorial(n))
        / prod(nodes[k] - nodes[j] for j in range(len(nodes)) if j != k)
        for k in range(len(nodes))
    ]


# --- rationals, terms, canonical form -------------------------------------


def test_parse_and_format_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == -2
    assert parse_rational(Fraction(1, 3)) == Fraction(1, 3)
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(5)) == "5/1"
    assert format_rational(Fraction(-7, 3)) == "-7/3"
    with pytest.raises(CalculusError):
        parse_rational("pi")
    with pytest.raises(CalculusError):
        parse_rational("1/0")


def test_parse_rational_refuses_booleans():
    # bool is an int to Python, so JSON true and false once read as 1 and 0
    for flag in (True, False):
        with pytest.raises(CalculusError, match=rf"^not a rational: {flag}$"):
            parse_rational(flag)
    with pytest.raises(CalculusError, match=r"^not a rational: True$"):
        scheme_from_json('{"terms":[{"coeff":true,"node":1},{"coeff":-1,"node":0}]}')
    assert parse_rational(1) == 1


def test_parse_rational_past_the_int_digit_limit():
    # 9,543 digits over 4,516: past the default 4,300-digit int-from-str limit
    big = Fraction(-(3 ** 20000) - 2, 2 ** 15001)
    text = format_rational(big)
    assert parse_rational(text) == big
    assert parse_rational(f"  +{text[1:]} ") == -big
    assert parse_rational(text.split("/")[0]) == big.numerator
    assert parse_rational("1_000/1_0") == 100
    with pytest.raises(CalculusError, match=r"^not a rational: '1{99}\.\.\. \(5004 characters\)$"):
        parse_rational("1" * 5000 + "/0")
    with pytest.raises(CalculusError, match=r"^not a rational: 'pi'$"):
        parse_rational("pi")


def test_parse_rational_reads_long_decimals():
    # the mantissa digits pass the int-from-str limit; the exponent is within its own
    ones = int("1" * 2500) * 10 ** 2500 + int("1" * 2500)  # 5,000 ones, built below the limit
    assert parse_rational("0." + "1" * 5000) == Fraction(ones, 10 ** 5000)
    assert parse_rational("1" * 5000 + "e-2") == Fraction(ones, 100)
    assert parse_rational("-." + "1" * 5000 + "E+4_300") == -Fraction(ones, 10 ** 700)
    for text in ("1__0.5", "_1.5", "1.5_", "1.5e", "1.d", "inf", "nan", "1.5/2", "1 / 2"):
        with pytest.raises(CalculusError, match=r"^not a rational: "):
            parse_rational(text)


def test_parse_rational_bounds_the_exponent():
    # Fraction computes 10**exponent, so '1e999999' once ran for many seconds
    assert parse_rational("1.5e3") == 1500
    assert parse_rational(" -25E-1 ") == Fraction(-5, 2)
    assert parse_rational("1e4300") == 10 ** 4300
    assert parse_rational("1e-4_300") == Fraction(1, 10 ** 4300)
    assert parse_rational("2e+0000000000000000004300") == 2 * 10 ** 4300
    for text in ("1e4301", "1e-4301", "1e999999", "1e1_000_000", "-3.5E+99999"):
        with pytest.raises(CalculusError, match=r"exponent must be at most 4300 in magnitude"):
            parse_rational(text)
    with pytest.raises(
        CalculusError,
        match=r"^a rational's exponent must be at most 4300 in magnitude, "
        r"got '1e9{97}\.\.\. \(5004 characters\)$",
    ):
        parse_rational("1e" + "9" * 5000)
    with pytest.raises(CalculusError, match=r"exponent must be at most 4300"):
        scheme_from_json('{"terms":[{"coeff":"1e99999","node":1},{"coeff":-1,"node":0}]}')


def _parsed(parse, text):
    """What ``parse`` gives on ``text``: the Fraction, or the refusal's type and message."""
    try:
        return parse(text)
    except Exception as exc:  # noqa: BLE001 - compared by type and message
        return type(exc), str(exc)


# digit runs: a short head and tail of digits and underscores (leading zeros,
# doubled or stray underscores) around up to 20,000 repeats of one digit
digit_runs = st.builds(
    lambda head, fill, count, tail: head + fill * count + tail,
    st.text("0123456789_", max_size=5),
    st.sampled_from("0123456789"),
    st.sampled_from([0, 0, 1, 640, 4300, 4301, 20_000]),
    st.text("0123456789_", max_size=5),
)
signs = st.sampled_from(["", "", "+", "-"])
exponents = st.builds(
    lambda letter, sign, zeros, value, cut: letter + sign + "0" * zeros + (
        f"{value}"[:cut] + "_" + f"{value}"[cut:] if 0 < cut < len(f"{value}") else f"{value}"
    ),
    st.sampled_from("eE"),
    signs,
    st.integers(0, 2),
    st.integers(4290, 4310) | st.sampled_from([0, 1, 2, 17, 99999]),
    st.integers(0, 3),
)
rational_texts = st.one_of(
    st.builds(lambda sign, digits: sign + digits, signs, digit_runs),
    st.builds(lambda sign, p, q: f"{sign}{p}/{q}", signs, digit_runs, digit_runs),
    st.builds(
        lambda sign, whole, fraction, exponent: f"{sign}{whole}.{fraction}{exponent}",
        signs,
        digit_runs | st.just(""),
        digit_runs | st.just(""),
        exponents | st.just(""),
    ),
    st.builds(lambda sign, digits, exponent: sign + digits + exponent, signs, digit_runs, exponents),
).flatmap(lambda text: st.sampled_from([text, f" {text}\n"]))


@settings(max_examples=300, deadline=None)
@given(rational_texts)
def test_parse_rational_matches_the_decimal_reader(text):
    assert _parsed(parse_rational, text) == _parsed(reference_parse_rational, text)


class Text(str):
    """A ``str`` subclass whose ``str()`` is not itself: read as ``str(text)``, as before."""

    def __str__(self) -> str:
        return "5/3"


# 'p/q' strings take one regex and two integer reads; the reader tests the
# denominator's integer, so '1/00' is a zero denominator, and bounds an
# exponent only on the decimal branch; _read_int reads runs past _SPLIT_DIGITS in halves
@pytest.mark.parametrize(
    "text",
    [
        "1/00", "0/0", "-0/000", "1/" + "0" * _SPLIT_DIGITS, "+1/2", " 1/2 ", "1/2\n", "1_000/3", "007/010", "-0/5", "-7", "0", "--1",
        "1/-2", "-/2", "1/", "/2", "\u0661/\u0662", "\u0663", "1\u0660/3", "\uff11/2", Text("3/4"),
        Text("x"), "2e4301", "2.5e-0004301", "2.5e+43", "1/2e3", "1e4_301", *(
            f"{sign}{p}/{q}"
            for sign in ("", "-")
            for p in ("8" * (_SPLIT_DIGITS - 1), "9" * _SPLIT_DIGITS, "7" * (_SPLIT_DIGITS + 1),
                      "1")
            for q in ("3" * _SPLIT_DIGITS, "1" + "0" * _SPLIT_DIGITS, "6")
        ),
        "4" * (_SPLIT_DIGITS + 1), "-" + "4" * _SPLIT_DIGITS,
    ],
)
def test_plain_rationals_match_the_reference(text):
    assert _parsed(parse_rational, text) == _parsed(reference_parse_rational, text)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["", "-", "+"]),
    st.text("0123456789", min_size=1, max_size=_SPLIT_DIGITS + 2),
    st.none() | st.text("0123456789", min_size=0, max_size=_SPLIT_DIGITS + 2),
)
def test_plain_digit_runs_match_the_reference(sign, p, q):
    text = sign + p + ("" if q is None else "/" + q)
    assert _parsed(parse_rational, text) == _parsed(reference_parse_rational, text)


def test_read_int_is_int_at_any_length():
    for text in ("0", " -12 ", "+1_000", "\u0661\u0662", "007", "1__0", "_1", "1_", "", "1.0", "0x10"):
        try:
            expected = int(text)
        except ValueError:
            with pytest.raises(ValueError):
                _read_int(text)
        else:
            assert _read_int(text) == expected
    for value in (7 ** 40000, -(10 ** 5000) - 1, 10 ** 4300):
        digits = _digits(value)
        assert _read_int(f" {digits} ") == value
        assert _read_int(digits[:-1] + "_" + digits[-1:]) == value
    for text in ("1" * 5000 + "x", "1" * 5000 + "__1", "--" + "1" * 5000):
        with pytest.raises(ValueError):
            _read_int(text)


def test_reader_imports_on_an_interpreter_without_the_int_digit_limit():
    # before Python 3.10.7, sys.int_info has no str_digits_check_threshold and
    # int reads a digit string of any length
    source = (
        "import sys, types\n"
        "from fractions import Fraction\n"
        "getattr(sys, 'set_int_max_str_digits', lambda n: None)(0)\n"
        "info = sys.int_info\n"
        "sys.int_info = types.SimpleNamespace(\n"
        "    bits_per_digit=info.bits_per_digit, sizeof_digit=info.sizeof_digit)\n"
        "from grdcalc.scheme import _read_int, parse_rational\n"
        "digits = '7' * 5000\n"
        "assert _read_int(digits) == int(digits)\n"
        "assert parse_rational(digits + '/3') == Fraction(int(digits), 3)\n"
        "print('ok')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(grdcalc.__file__).resolve().parents[1])}
    child = subprocess.run(
        [sys.executable, "-c", source], capture_output=True, text=True, timeout=60, env=env
    )
    assert (child.returncode, child.stdout) == (0, "ok\n"), child.stderr[-300:]


def test_format_rational_past_the_int_digit_limit():
    # 9,543 and 4,516 digits: past the default 4,300-digit int-to-str limit
    big = Fraction(-(3 ** 20000) - 2, 2 ** 15001)
    source = (
        "import sys; getattr(sys, 'set_int_max_str_digits', lambda n: None)(0); "
        "n = -(3 ** 20000) - 2; d = 2 ** 15001; print(f'{n}/{d}')"
    )
    child = subprocess.run(
        [sys.executable, "-c", source], capture_output=True, text=True, timeout=60
    )
    assert child.returncode == 0, child.stderr
    digits = child.stdout.strip()
    assert format_rational(big) == digits
    numerator, denominator = digits.split("/")
    text = format_scheme(canonicalize([(big, Fraction(2 ** 15001)), (1, Fraction(1, 2 ** 15001))]))
    assert text == f"-({numerator[1:]}/{denominator})*f(x+{denominator}h) + f(x+(1/{denominator})h)"


def test_digits_past_the_limit_match_decimal_conversion():
    # about 100,000 digits, where Decimal(value) converts in quadratic time;
    # 2**(2**18) and 2**(2**18) - 1 split exactly at a power of two
    context = repr(decimal.getcontext())
    for value in (-(7 ** 118000) - 12345, 2 ** (2 ** 18), 2 ** (2 ** 18) - 1, 10 ** 99999):
        assert _digits(value) == format(Decimal(value), "f")
    assert repr(decimal.getcontext()) == context


def test_canonicalize_merges_and_drops():
    s = canonicalize([(1, 2), (2, 0), (-1, 2), (1, 1), (0, 5)])
    assert s.nodes == (0, 1)
    assert s.coeffs == (2, 1)


def test_scheme_rejects_duplicates_and_zero_coeffs():
    with pytest.raises(DuplicateNodes, match="^duplicate node 1$"):
        Scheme((Term(1, 1), Term(2, 1)))
    with pytest.raises(CalculusError, match="^zero coefficient at node 1$"):
        Scheme((Term(0, 1),))
    with pytest.raises(CalculusError, match="^not a rational: 'x'$"):
        Term("x", 1)


def test_term_keeps_no_instance_dict():
    # a scheme holds one term per node, so terms are slotted
    term = Term(Fraction(1, 2), 3)
    assert not hasattr(term, "__dict__")
    assert term == Term("1/2", "3") and hash(term) == hash(Term("1/2", "3"))
    assert repr(term) == "Term(coeff=Fraction(1, 2), node=Fraction(3, 1))"


def test_scheme_sorts_terms():
    s = Scheme((Term(1, 3), Term(2, -1)))
    assert s.nodes == (-1, 3)
    assert s.coeff_at(3) == 1
    assert s.coeff_at(7) == 0


@given(st.lists(st.tuples(rationals, rationals), max_size=8))
def test_canonicalize_idempotent(pairs):
    once = canonicalize(pairs)
    again = canonicalize(once)
    assert once == again


# --- construction ----------------------------------------------------------


def test_construct_second_difference():
    s = construct_exact([0, 1, 2], 2)
    assert s == canonicalize([(1, 0), (-2, 1), (1, 2)])


def test_construct_backward_third():
    s = construct_exact([-1, 0, 1, 2], 3)
    assert s == canonicalize([(-1, -1), (3, 0), (-3, 1), (1, 2)])


def test_construct_errors():
    with pytest.raises(InvalidOrder):
        construct_exact([0, 1], 0)
    # an order past the int-to-str digit limit is quoted by its first 100 characters
    with pytest.raises(InvalidOrder, match=r"got -9{99}\.\.\. \(5001 characters\)$"):
        construct_exact([0, 1], 1 - 10**5000)
    with pytest.raises(WrongNodeCount):
        construct_exact([0, 1, 2], 1)
    with pytest.raises(DuplicateNodes):
        construct_exact([0, 1, 1], 2)


@settings(max_examples=60)
@given(small_orders.flatmap(lambda n: st.tuples(st.just(n), distinct_nodes(n))))
def test_construct_matches_lagrange_oracle(case):
    n, nodes = case
    built = construct_exact(nodes, n)
    expected = canonicalize(zip(lagrange_coefficients(nodes, n), nodes))
    assert built == expected


@settings(max_examples=60)
@given(small_orders.flatmap(lambda n: st.tuples(st.just(n), distinct_nodes(n))))
def test_construct_moment_conditions(case):
    n, nodes = case
    s = construct_exact(nodes, n)
    for j in range(n):
        assert moment(s, j) == 0
    assert moment(s, n) == factorial(n)
    info = order_info(s)
    assert info.order == n and info.normalizer == 1


@settings(max_examples=60)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), distinct_nodes(n))))
def test_a_constructed_schemes_order_is_the_one_detected_afresh(case):
    n, nodes = case
    built = construct_exact(nodes, n)
    assert order_info(built) == order_info(Scheme(built.terms))


def test_symmetric_construction_fixtures():
    second = construct_exact_symmetric([1], True, 2)
    assert second == canonicalize([(1, -1), (-2, 0), (1, 1)])
    third = construct_exact_symmetric([1, 2], False, 3)
    assert third == canonicalize(
        [
            (Fraction(-1, 2), -2),
            (1, -1),
            (-1, 1),
            (Fraction(1, 2), 2),
        ]
    )
    for s, n in ((second, 2), (third, 3)):
        assert is_symmetric(s, n)
        assert order_info(s) == order_info(normalized(s))
        assert moment(s, n) == factorial(n)


def test_symmetric_construction_errors():
    with pytest.raises(ZeroNodeParityError):
        construct_exact_symmetric([1], True, 3)
    with pytest.raises(UnderdeterminedSystem):
        construct_exact_symmetric([1, 2, 3], False, 3)
    with pytest.raises(CalculusError):
        construct_exact_symmetric([-1], True, 2)
    with pytest.raises(DuplicateNodes):
        construct_exact_symmetric([1, 1], False, 3)


def test_symmetric_overdetermined_pairs_must_be_consistent():
    # one pair cannot satisfy the three parity conditions of order 4
    with pytest.raises(InconsistentSystem):
        construct_exact_symmetric([1], False, 4)


@settings(max_examples=40)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.fractions(
                    min_value=Fraction(1, 6), max_value=Fraction(8), max_denominator=6
                ),
                min_size=(n + 2) // 2,
                max_size=(n + 2) // 2,
                unique=True,
            ),
        )
    )
)
def test_symmetric_construction_properties(case):
    n, pairs = case
    include_zero = n % 2 == 0
    if include_zero:
        pairs = pairs[: n // 2]
    s = construct_exact_symmetric(pairs, include_zero, n)
    assert is_symmetric(s, n)
    assert order_info(s).order == n
    assert order_info(s).normalizer == 1


@st.composite
def symmetric_cases(draw):
    """An order 1..6, whether a zero node is asked for (even orders only), and
    as many distinct positive pairs as the symmetric conditions need."""
    n = draw(st.integers(min_value=1, max_value=6))
    include_zero = n % 2 == 0 and draw(st.booleans())
    count = n // 2 + 1 - include_zero
    positive = st.fractions(min_value=Fraction(1, 6), max_value=Fraction(8), max_denominator=6)
    return n, include_zero, draw(st.lists(positive, min_size=count, max_size=count, unique=True))


@settings(max_examples=60)
@given(symmetric_cases())
def test_symmetric_construction_is_the_symmetric_part_of_any_exact_solve(case):
    # the node set has n+1 nodes, or n+2 at even order without zero; then every
    # choice of the node left out gives the same symmetric part
    n, include_zero, pairs = case
    nodes = [-p for p in pairs] + [Fraction(0)] * include_zero + pairs
    built = construct_exact_symmetric(pairs, include_zero, n)
    subsets = list(combinations(nodes, n + 1))
    assert len(subsets) == (1 if len(nodes) == n + 1 else n + 2)
    for subset in subsets:
        assert decompose(construct_exact(subset, n), n)[0] == built


# --- order and normalization ------------------------------------------------


def test_order_info_zero_scheme():
    with pytest.raises(ZeroScheme):
        order_info(canonicalize([]))


def test_all_leading_moments_zero_is_an_identity_fault():
    # a canonical scheme never has a zero coefficient; one built unchecked is a fault
    with pytest.raises(IdentityCheckFailed, match="all leading moments zero"):
        order_info(_scheme((_term(Fraction(0), Fraction(1)),)))


def test_order_detection_not_exact_count():
    s = canonicalize([(1, 0), (-2, 1), (1, 2), (1, 3), (-1, 4)])
    info = order_info(s)
    assert info.order == 1
    assert info.leading_moment == reference_moment(s, 1)


def test_normalized():
    s = canonicalize([(2, 0), (-4, 1), (2, 2)])
    assert order_info(s).normalizer == Fraction(1, 2)
    norm = normalized(s)
    assert norm == construct_exact([0, 1, 2], 2)
    assert normalized(norm) is norm


# --- scale / reflect / decompose / combine ----------------------------------


def test_scale_fixture():
    member = canonicalize([(Fraction(2, 3), 1), (-1, 2), (Fraction(1, 3), 4)])
    scaled = scale(member, 2)
    assert scaled == canonicalize(
        [(Fraction(1, 6), 2), (Fraction(-1, 4), 4), (Fraction(1, 12), 8)]
    )


def test_scale_errors():
    s = construct_exact([0, 1], 1)
    with pytest.raises(ZeroScale):
        scale(s, 0)
    with pytest.raises(ZeroScheme):
        scale(canonicalize([]), 2)


@settings(max_examples=60)
@given(
    small_orders.flatmap(lambda n: st.tuples(st.just(n), distinct_nodes(n))),
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6).filter(
        lambda r: r != 0
    ),
)
def test_scale_properties(case, r):
    n, nodes = case
    s = construct_exact(nodes, n)
    scaled = scale(s, r)
    info = order_info(scaled)
    assert info.order == n and info.normalizer == 1
    assert scale(scaled, 1 / r) == s
    assert scale(s, 1) == s


SCALE_FACTORS = (2, Fraction(-1, 3), Fraction(-7, 5))
# schemes of orders 0 to 3 whose normalizers are 1/2, 1/2, 1/3 and 1/5
UNNORMALIZED_JSON = (
    '{"terms":[{"coeff":"1","node":"0"},{"coeff":"1","node":"1"}]}',
    '{"terms":[{"coeff":"-2","node":"0"},{"coeff":"2","node":"1"}]}',
    '{"terms":[{"coeff":"3","node":"0"},{"coeff":"-6","node":"1"},{"coeff":"3","node":"2"}]}',
    '{"terms":[{"coeff":"-5","node":"0"},{"coeff":"15","node":"1"},'
    '{"coeff":"-15","node":"2"},{"coeff":"5","node":"3"}]}',
)


def test_scale_keeps_its_inputs_order(derivations):
    # m_j of the scale is r**(j-n) * m_j, so order, leading moment and normalizer stay
    members = ("gauss-aff:n=3,q=3/2", "shift:n=4,k=-1", "gauss-sym:n=5,q=-2", "riemann-sym:n=2")
    inputs = [named_scheme(parse_family(text)) for text in members]
    inputs += [scheme_from_json(text) for text in UNNORMALIZED_JSON]
    assert [order_info(s).order for s in inputs] == [3, 4, 5, 2, 0, 1, 2, 3]
    for s in inputs:
        for r in SCALE_FACTORS:
            derivations.clear()
            scaled = scale(s, r)
            assert all(order_info(scaled) == order_info(s) for _ in range(3))
            assert derivations.orders == []
            assert order_info(scaled) == order_info(Scheme(scaled.terms)), (s, r)


def test_reflect_involution_and_even_scale():
    s = construct_exact([0, 1, 2], 2)
    assert reflect(reflect(s)) == s
    # at even order, reflection is exactly the scale by -1
    assert reflect(s) == scale(s, -1)


def test_decompose_backward_third_fixture():
    base = construct_exact([-1, 0, 1, 2], 3)
    plus, minus = decompose(base, 3)
    assert plus == canonicalize(
        [(Fraction(-1, 2), -2), (1, -1), (-1, 1), (Fraction(1, 2), 2)]
    )
    assert minus == canonicalize(
        [(Fraction(1, 2), -2), (-2, -1), (3, 0), (-2, 1), (Fraction(1, 2), 2)]
    )


@settings(max_examples=60)
@given(small_orders.flatmap(lambda n: st.tuples(st.just(n), distinct_nodes(n))))
def test_decompose_reconstruction_and_parity(case):
    n, nodes = case
    s = construct_exact(nodes, n)
    plus, minus = decompose(s, n)
    assert canonicalize(list(plus) + list(minus)) == s
    assert is_symmetric(plus, n)
    sign = Fraction(-1) ** n
    for t in minus:
        assert minus.coeff_at(-t.node) == -sign * t.coeff
    # the symmetric part keeps the parity-n moments, the skew part the others
    for j in range(n + 2):
        if j % 2 == n % 2:
            assert moment(plus, j) == moment(s, j) and moment(minus, j) == 0
        else:
            assert moment(minus, j) == moment(s, j) and moment(plus, j) == 0


def test_combine_half_difference_identity():
    # (3/5)*C(h) + (-2/5)*C(-h) collapses to the plain first difference
    c = canonicalize([(2, -1), (-5, 0), (3, 1)])
    combined = combine([(Fraction(3, 5), 1, c), (Fraction(-2, 5), -1, c)])
    assert combined == canonicalize([(-1, 0), (1, 1)])


def test_combine_rewrite_identity():
    # backward third plus the symmetric second gives the forward second
    d31 = construct_exact([-1, 0, 1, 2], 3)
    d2s = construct_exact_symmetric([1], True, 2)
    assert combine([(1, 1, d31), (1, 1, d2s)]) == construct_exact([0, 1, 2], 2)


def test_combine_zero_dilation():
    s = construct_exact([0, 1], 1)
    with pytest.raises(ZeroDilation):
        combine([(1, 0, s)])


# schemes with up to four terms, the zero scheme among them; a coefficient
# may be zero and two nodes may coincide, so canonicalize merges and drops
small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
small_schemes = st.lists(st.tuples(small, small), max_size=4).map(canonicalize)
dilations = small.filter(bool) | st.sampled_from([Fraction(-1), Fraction(0)])


@st.composite
def combination_cases(draw):
    """``(target, parts)``: 1 to 3 parts, some cancelling an earlier one, and a
    target that is the zero scheme, the true combination, a near miss or any scheme."""
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        if parts and draw(st.booleans()):
            c, d, part = draw(st.sampled_from(parts))
            # -c * S(d*h) or -c * reflect(S)(-d*h): nodes coincide and cancel
            parts.append(draw(st.sampled_from([(-c, d, part), (-c, -d, reflect(part))])))
        else:
            parts.append((draw(small | st.just(Fraction(0))), draw(dilations), draw(small_schemes)))
    how = draw(st.sampled_from(["zero", "true", "coeff", "node", "any"]))
    if how == "zero" or any(d == 0 for _, d, _ in parts):
        return canonicalize([]), parts
    if how == "any":
        return draw(small_schemes), parts
    true = reference_combine(parts)
    if how == "true" or true.is_zero:
        return true, parts
    i = draw(st.integers(0, len(true) - 1))
    terms = [(t.coeff, t.node) for t in true]
    coeff, node = terms[i]
    terms[i] = (coeff + 1, node) if how == "coeff" else (coeff, node + Fraction(1, 7))
    return canonicalize(terms), parts


def _match_outcomes(target, parts):
    """``_matches`` and the ``==`` of the reference's built combination, each as its value or
    raised type; ``combine`` itself shares ``_sums`` with ``_matches``."""

    def outcome(check):
        try:
            return check()
        except Exception as exc:  # noqa: BLE001 - compared by type
            return type(exc)

    return (outcome(lambda: _matches(target, parts)),
            outcome(lambda: reference_combine(parts) == target))


@settings(max_examples=400, deadline=None)
@given(combination_cases())
def test_matches_is_equality_with_the_built_combination(case):
    got, expected = _match_outcomes(*case)
    assert got == expected


def test_matches_fixtures():
    d31 = construct_exact([-1, 0, 1, 2], 3)
    plus, minus = decompose(d31)
    assert _matches(d31, [(1, 1, plus), (1, 1, minus)])
    assert not _matches(d31, [(1, 1, plus), (-1, 1, minus)])
    assert _matches(canonicalize([]), [(1, 2, d31), (-1, 2, d31)])
    assert _matches(canonicalize([]), [(0, 1, d31)])
    assert _matches(canonicalize([]), [])
    assert _matches(scale(d31, Fraction(-2, 3)), [(Fraction(-27, 8), Fraction(-2, 3), d31)])
    assert not _matches(d31, [(1, 1, canonicalize([]))])
    for parts in ([(1, 0, d31)], [(1, 1, d31), (2, 0, canonicalize([]))]):
        with pytest.raises(ZeroDilation):
            _matches(d31, parts)


def test_matches_under_optimize_flag():
    # the same property in a child with asserts stripped: _matches leans on none
    code = (
        f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from hypothesis import given, settings\n"
        "from test_scheme import _match_outcomes, combination_cases\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "@settings(max_examples=300, deadline=None, database=None)\n"
        "@given(combination_cases())\n"
        "def check(case):\n"
        "    got, expected = _match_outcomes(*case)\n"
        "    if got != expected:\n"
        "        sys.exit(f'{case}: {got} != {expected}')\n"
        "check()\n"
        "print('_matches agrees with reference_combine, asserts off')\n"
    )
    result = run_child([sys.executable, "-O", "-c", code])
    assert result.returncode == 0, result.stdout + result.stderr[-2000:]
    assert result.stdout == "_matches agrees with reference_combine, asserts off\n"


@given(small_schemes.filter(lambda s: not s.is_zero), dilations.filter(bool))
def test_a_scales_kept_order_is_the_one_detected_afresh(s, r):
    scaled = scale(s, r)
    assert order_info(scaled) == order_info(Scheme(scaled.terms))


@settings(max_examples=200, deadline=None)
@given(small_schemes.filter(lambda s: not s.is_zero), dilations.filter(bool), small_schemes)
def test_is_scale_matches_building_the_scale(a, r, other):
    for b in (scale(a, r), reflect(scale(a, r)), other):
        if b.is_zero:
            with pytest.raises(ZeroScheme):
                is_scale(a, b)
        else:
            assert is_scale(a, b) == reference_is_scale(a, b)


def test_is_scale_builds_no_scale(monkeypatch):
    a = construct_exact([-1, 0, 2], 2)
    b = scale(a, Fraction(-3, 2))
    for name in ("scale", "combine", "canonicalize"):
        monkeypatch.setattr(grdcalc.scheme, name, None)
    assert is_scale(a, b) == Fraction(-3, 2)
    assert is_scale(a, a) == 1
    assert is_scale(b, a) == Fraction(-2, 3)


def test_is_symmetric():
    assert is_symmetric(canonicalize([]))
    assert is_symmetric(construct_exact_symmetric([1, 2], False, 3))
    assert not is_symmetric(construct_exact([0, 1, 2], 2))
    constant = canonicalize([(1, 0)])  # order 0: symmetry is defined from order 1
    with pytest.raises(InvalidOrder):
        is_symmetric(constant)
    assert is_symmetric(constant, 2) and not is_symmetric(constant, 1)


def test_order_and_parts_derived_once_per_object(derivations):
    s = Scheme(construct_exact([-1, 0, 1, 2], 3).terms)
    for _ in range(3):
        order_info(s)
        normalized(s)
        scale(s, 2)
        is_symmetric(s)
        for n in (1, 2, 3, 4, None):
            decompose(s, n)
    derivations.assert_each_once()
    assert [x for x in derivations.orders if x is s] == [s]
    assert [odd for x, odd in derivations.splits if x is s] == [True, False]


def test_integer_form_is_derived_once_per_object(monkeypatch):
    # order, both splits and an abs quotient kernel read one integer form
    s = Scheme(construct_exact([-1, 0, 1, 2], 3).terms)
    calls = []
    over = grdcalc.scheme._over_common_denominator

    def counting(values):
        calls.append(values)
        return over(values)

    for module in (grdcalc.scheme, probes):
        monkeypatch.setattr(module, "_over_common_denominator", counting)
    order_info(s)
    decompose(s, 1)
    decompose(s, 2)
    probes._quotient_kernel(s, 3, probes.abs_oracle(), Fraction(1, 3))([Fraction(1, 2)])
    assert calls == [s.coeffs, s.nodes]


# --- JSON and formatting ----------------------------------------------------


def test_json_fixture():
    s = construct_exact([-1, 0, 1, 2], 3)
    data = scheme_to_json_dict(s)
    assert data == {
        "terms": [
            {"coeff": "-1/1", "node": "-1/1"},
            {"coeff": "3/1", "node": "0/1"},
            {"coeff": "-3/1", "node": "1/1"},
            {"coeff": "1/1", "node": "2/1"},
        ]
    }
    assert scheme_from_json(data) == s


def test_json_accepts_integer_shorthand():
    s = scheme_from_json('{"terms": [{"coeff": -1, "node": 0}, {"coeff": 1, "node": 1}]}')
    assert s == construct_exact([0, 1], 1)


@pytest.mark.parametrize(
    "terms",
    [
        [("1", "1"), ("-3", "0"), ("1", "1/2"), ("1", "2/4")],  # unsorted, one node twice
        [("1", "1/2"), ("-1", "2/4"), ("2", "3")],  # terms that cancel
        [("0", "1"), ("1", "2")],  # a zero coefficient
        [("2/4", "-1"), ("0/3", "0"), ("-1/2", "1")],
        [(1, 0), (-1, 0)],  # JSON integers that cancel
        [(-1, 0), (1, 1), (1, 1)],
        [(1, "1"), ("-1", 0)],
        [("0", "0")],
    ],
)
def test_json_that_is_not_canonical_is_canonicalized(terms, checked_builds):
    data = {"terms": [{"coeff": c, "node": b} for c, b in terms]}
    expected = canonicalize([(parse_rational(c), parse_rational(b)) for c, b in terms])
    read = scheme_from_json(data)
    assert read == expected and repr(read.terms) == repr(expected.terms)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(small, small, st.sampled_from(["int", "text", "doubled"])), max_size=5))
def test_json_matches_canonicalize(pairs):
    def written(value, how):
        if how == "int" and value.denominator == 1:
            return int(value)
        if how == "doubled":
            return f"{2 * value.numerator}/{2 * value.denominator}"
        return format_rational(value)

    data = {"terms": [{"coeff": written(c, how), "node": written(b, how)} for c, b, how in pairs]}
    read = scheme_from_json(data)
    expected = canonicalize([(c, b) for c, b, _ in pairs])
    assert read == expected and repr(read.terms) == repr(expected.terms)
    assert Scheme(read.terms) == read


def test_json_booleans_are_refused():
    for text in ('{"terms":[{"coeff":true,"node":1}]}', '{"terms":[{"coeff":1,"node":false}]}',
                 '{"terms":[{"coeff":1,"node":2},{"coeff":true,"node":1}]}'):
        with pytest.raises(CalculusError, match=r"^not a rational: (True|False)$"):
            scheme_from_json(text)


def test_json_errors():
    with pytest.raises(CalculusError):
        scheme_from_json("not json")
    with pytest.raises(CalculusError):
        scheme_from_json('{"nope": []}')
    with pytest.raises(CalculusError):
        scheme_from_json('{"terms": [{"coeff": "1"}]}')


def test_json_terms_that_are_not_a_list_are_refused():
    with pytest.raises(CalculusError, match=r"^'terms' must be a list$"):
        scheme_from_json('{"terms": {}}')


def test_format_rational_takes_an_int():
    assert format_rational(3) == "3/1"
    assert format_rational(-12) == "-12/1"


@settings(max_examples=60)
@given(st.lists(st.tuples(rationals, rationals), max_size=6))
def test_json_round_trip(pairs):
    s = canonicalize(pairs)
    assert scheme_from_json(scheme_to_json_dict(s)) == s


def test_format_scheme():
    s = construct_exact([-1, 0, 1, 2], 3)
    assert format_scheme(s) == "f(x+2h) - 3*f(x+h) + 3*f(x) - f(x-h)"
    assert format_scheme(canonicalize([])) == "0"
    half = canonicalize([(Fraction(1, 2), Fraction(1, 2))])
    assert format_scheme(half) == "(1/2)*f(x+(1/2)h)"
