"""Exact function oracles, subgroup membership, and numeric limit probes."""

import io
import json
import random
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from grdcalc import (
    CONTINUITY,
    CalculusError,
    InvalidOrder,
    ProbeBoundExceeded,
    ProbeConfig,
    Scheme,
    VERDICT_CONVERGES,
    VERDICT_DIVERGES,
    VERDICT_INCONCLUSIVE,
    ZeroInput,
    ZeroStep,
    abs_oracle,
    canonicalize,
    construct_exact,
    construct_exact_symmetric,
    eval_quotient,
    format_oracle,
    format_rational,
    gaussian_affine_shift,
    n_times_check,
    limit_probe,
    monomial_oracle,
    mz_tilde,
    parse_oracle,
    peano_probe,
    polynomial_oracle,
    riemann,
    named_scheme,
    order_info,
    parse_family,
    parse_rational,
    scale,
    sgnsq_oracle,
    subgroup_membership,
    subgroup_monomial_oracle,
    verify_quantum_ggr,
)
from grdcalc import cli, probes
from grdcalc.scheme import MAX_FAMILY_SIZE, _width
from membership_reference import _factor_rational
from probe_reference import _fraction_close, reference_limit_probe
from quotient_reference import _quotient as reference_quotient

D2_SYM = construct_exact_symmetric([1], True, 2)
FWD1 = construct_exact([0, 1], 1)


def _pair(value: Fraction) -> tuple[int, int]:
    """A Fraction as the reduced pair that the quotient kernel and ``_close`` read."""
    return value.numerator, value.denominator


# --- subgroup membership -------------------------------------------------------


def test_membership_fixtures():
    assert subgroup_membership(12, [2, 3])
    assert not subgroup_membership(5, [2, 3])
    assert not subgroup_membership(-8, [2])
    assert subgroup_membership(-8, [-2])
    assert subgroup_membership(Fraction(2, 3), [2, 3])
    assert subgroup_membership(1, [7])
    assert subgroup_membership(-1, [-1])
    assert not subgroup_membership(-1, [2])
    assert subgroup_membership(Fraction(9, 4), [6, Fraction(2, 3)])


def test_membership_zero_inputs():
    with pytest.raises(ZeroInput):
        subgroup_membership(0, [2])
    with pytest.raises(ZeroInput):
        subgroup_membership(2, [2, 0])


def test_membership_random_closure():
    rng = random.Random(42)
    for _ in range(100):
        a, b, c = (rng.randint(-3, 3) for _ in range(3))
        value = Fraction(2) ** a * Fraction(3) ** b * Fraction(5) ** c
        assert subgroup_membership(value, [2, 3, 5])
        assert not subgroup_membership(value * 7, [2, 3, 5])
        assert not subgroup_membership(-value, [2, 3, 5])


def test_membership_factorization_bound():
    big_prime = 1000003
    assert subgroup_membership(big_prime, [big_prime])
    assert not subgroup_membership(big_prime, [2])
    # nothing is factored into primes, so no input meets a bound
    assert not subgroup_membership(big_prime ** 2, [2])
    assert subgroup_membership(Fraction(big_prime ** 2, 8), [2, big_prime])
    assert subgroup_membership(2, [big_prime ** 2]) is False


# --- oracles ---------------------------------------------------------------------


def test_oracle_values():
    assert abs_oracle().evaluate(Fraction(-3, 2)) == Fraction(3, 2)
    assert sgnsq_oracle().evaluate(-2) == -4
    assert monomial_oracle(3).evaluate(Fraction(1, 2)) == Fraction(1, 8)
    assert polynomial_oracle([1, 0, -2]).evaluate(3) == 1 - 18
    sub = subgroup_monomial_oracle(2, [2, 3])
    assert sub.evaluate(Fraction(4, 3)) == Fraction(16, 9)
    assert sub.evaluate(5) == 0
    assert sub.evaluate(0) == 0
    assert sub.evaluate(-2) == 0


def test_oracle_validation():
    with pytest.raises(CalculusError):
        parse_oracle("nope")
    with pytest.raises(CalculusError):
        parse_oracle("mono:3")
    with pytest.raises(CalculusError):
        parse_oracle("mono:k=x")
    with pytest.raises(CalculusError):
        parse_oracle("poly:")
    with pytest.raises(CalculusError):
        parse_oracle("subgmono:k=2")
    with pytest.raises(CalculusError):
        parse_oracle("subgmono:k=2;gens=2,3;z=1")
    with pytest.raises(CalculusError):
        monomial_oracle(-1)
    with pytest.raises(ZeroInput):
        subgroup_monomial_oracle(2, [2, 0])
    with pytest.raises(CalculusError, match=r"^unknown oracle kind 'nope'$"):
        probes.FunctionOracle("nope")
    with pytest.raises(CalculusError, match=r"^subgroup monomials need generators$"):
        probes.FunctionOracle("subgmono", degree=2)


@pytest.mark.parametrize(
    "text, repeated",
    [
        ("subgmono:k=1;k=2;gens=2", "'k=2'"),
        ("subgmono:k=1;gens=2;gens=3", "'gens=3'"),
        ("subgmono:gens=2;k=1; k =1", "' k =1'"),
        ("subgmono:k=1;gens=2;gens=" + "3" * 200, "'gens=" + "3" * 94 + "... (207 characters)"),
    ],
)
def test_repeated_subgroup_fields_are_refused(text, repeated):
    # the second k or gens was once read over the first
    with pytest.raises(CalculusError) as refused:
        parse_oracle(text)
    assert str(refused.value) == f"bad subgroup oracle field {repeated}"


@pytest.mark.parametrize("text", ["mono:k=-1", "subgmono:k=-1;gens=2"])
def test_negative_degree_reports_the_bound(text):
    with pytest.raises(CalculusError, match=">= 0"):
        parse_oracle(text)
    with pytest.raises(CalculusError, match="must be an integer"):
        parse_oracle(text.replace("-1", "1/2", 1))


def test_oracle_string_round_trip():
    for oracle in (
        abs_oracle(),
        sgnsq_oracle(),
        monomial_oracle(3),
        polynomial_oracle([1, 0, Fraction(-2, 3)]),
        subgroup_monomial_oracle(2, [2, 3]),
    ):
        assert parse_oracle(format_oracle(oracle)) == oracle
    assert parse_oracle("mono:k=3") == monomial_oracle(3)
    assert parse_oracle("subgmono:k=2;gens=2,3") == subgroup_monomial_oracle(2, [2, 3])
    # a degree past the interpreter's int-to-str limit is printed by its digits
    k = "1" + "0" * 5000
    assert format_oracle(monomial_oracle(10 ** 5000)) == f"mono:k={k}"
    assert format_oracle(subgroup_monomial_oracle(10 ** 5000, [2])) == f"subgmono:k={k};gens=2/1"
    for oracle in (monomial_oracle(10 ** 5000), subgroup_monomial_oracle(10 ** 5000, [2, 3])):
        assert parse_oracle(format_oracle(oracle)) == oracle
    # every kind with every field it takes, straight from the constructor
    samples = {"degree": [0, 5], "coeffs": [(Fraction(1, 2), -3)], "generators": [(-2, 5)]}
    for kind, taken in probes._ORACLE_FIELDS.items():
        for values in product(*(samples[f] for f in taken)):
            oracle = probes.FunctionOracle(kind, **dict(zip(taken, values)))
            assert parse_oracle(format_oracle(oracle)) == oracle


@pytest.mark.parametrize(
    "kind, fields",
    [
        ("abs", {"degree": 32}),
        ("abs", {"coeffs": (1,)}),
        ("sgnsq", {"generators": (2,)}),
        ("mono", {"degree": 2, "coeffs": (1, 2)}),
        ("mono", {"generators": (2,)}),
        ("poly", {"coeffs": (1,), "degree": 3}),
        ("subgmono", {"degree": 2, "generators": (2,), "coeffs": (1,)}),
    ],
)
def test_oracle_refuses_fields_its_kind_does_not_take(kind, fields):
    # FunctionOracle("abs", degree=32) once printed as "abs", and its degree
    # counted against the probe size
    with pytest.raises(CalculusError, match=f"^oracle kind '{kind}' takes no "):
        probes.FunctionOracle(kind, **fields)


# --- exact quotients ----------------------------------------------------------------


def test_limit_probe_reads_order_once(derivations):
    scheme = Scheme(D2_SYM.terms)  # a fresh object: its order is not derived yet
    oracle = subgroup_monomial_oracle(2, [2, 3])
    report = limit_probe(scheme, oracle, Fraction(1, 3))
    assert len(derivations.orders) == 1 and derivations.orders[0] is scheme
    for sequence in report.sequences:
        for h, value in sequence.samples:
            assert eval_quotient(D2_SYM, oracle, Fraction(1, 3), h) == value


def test_limit_probe_looks_up_the_generator_lattice_per_probe(monkeypatch):
    lookups = []
    lookup = probes._generator_lattice

    def counting(generators):
        lookups.append(generators)
        return lookup(generators)

    monkeypatch.setattr(probes, "_generator_lattice", counting)
    oracle = subgroup_monomial_oracle(2, [2, 3])
    for j_max in (10, 40):
        lookups.clear()
        limit_probe(D2_SYM, oracle, Fraction(1, 3), ProbeConfig(j_max=j_max))
        # the auto ratios, the quotient kernel and the in-group flags: once each,
        # however many samples the probe takes
        assert lookups == [oracle.generators] * 3


def test_in_group_flags_are_decided_once_per_sequence_and_lattice():
    oracle = subgroup_monomial_oracle(2, [Fraction(7, 3), 11])
    config = ProbeConfig(j_max=23)
    probes._sequence.cache_clear()
    start = probes._membership.cache_info().misses
    first = limit_probe(D2_SYM, oracle, Fraction(1, 3), config)
    middle = probes._membership.cache_info().misses
    assert middle - start == len(first.sequences) * (23 - 4 + 1)
    # another scheme and point, the same configuration and generators
    second = limit_probe(FWD1, oracle, 0, config)
    assert probes._membership.cache_info().misses == middle
    assert [s.in_group for s in second.sequences] == [s.in_group for s in first.sequences]


# the steps of a subgmono:k=2;gens=2,3 probe, with the ratio -2/3 added
SUBGROUP_STEPS = [
    sign * ratio ** j
    for ratio in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(-2, 3))
    for sign in (1, -1)
    for j in range(4, 41)
]


def _subgroup_flags(oracle) -> list[bool]:
    """The in-group flags ``_sequence`` gives for ``SUBGROUP_STEPS``, in their order."""
    lattice = probes._generator_lattice(oracle.generators)
    return [
        flag
        for ratio in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(-2, 3))
        for sign in (1, -1)
        for flag in probes._sequence(Fraction(sign), ratio, 4, 40, lattice)[2]
    ]


def _passing_terms(scheme: Scheme, x: Fraction, steps) -> int:
    """The terms at nonzero nodes whose u_i the cofactor of the shared D (what 2 and 3
    leave of it) divides; the zero node's u_i/D is x at every step, decided once."""
    _, _, nodes, db = scheme._ints
    passing = 0
    for h in steps:
        cofactor = x.denominator * db * h.denominator
        for p in (2, 3):
            while cofactor % p == 0:
                cofactor //= p
        base, step = x.numerator * db * h.denominator, x.denominator * h.numerator
        passing += sum(1 for b in nodes if b and (u := base + b * step) and u % cofactor == 0)
    return passing


@pytest.mark.parametrize("x", [Fraction(-3, 7), Fraction(4, 3), Fraction(0)])
def test_subgroup_kernel_strips_only_what_it_must(monkeypatch, x):
    scheme = named_scheme(riemann(2))
    oracle = subgroup_monomial_oracle(2, [2, 3])
    steps = SUBGROUP_STEPS
    passing = _passing_terms(scheme, x, steps)
    if x == Fraction(-3, 7):
        # 7 stays in every D and divides no u_i = -3*DH + 7*B_i*H
        assert passing == 0
    flags = _subgroup_flags(oracle)
    quotients = probes._quotient_kernel(scheme, 2, oracle, x)
    stripped = []
    strip = probes._strip
    monkeypatch.setattr(probes, "_strip", lambda v, base: stripped.append(v) or strip(v, base))
    values = quotients(steps, flags)
    if x == 0:
        # every nonzero node of riemann(2) is in <2, 3>: a step in the group gives
        # K*H**k, and a step outside it leaves no node to test
        assert stripped == []
    else:
        # one strip of D per sample, and one per term that passes the cofactor test
        assert len(stripped) <= len(steps) + passing
    monkeypatch.undo()
    assert values == [_pair(reference_quotient(scheme, 2, oracle, x, h)) for h in steps]


def test_subgroup_kernel_decides_membership_in_one_function(monkeypatch):
    scheme, x = named_scheme(riemann(2)), Fraction(4, 3)
    oracle = subgroup_monomial_oracle(2, [2, 3])
    calls = []
    in_group = probes._in_group
    monkeypatch.setattr(probes, "_in_group", lambda *args: calls.append(args) or in_group(*args))
    misses = probes._membership.cache_info().misses
    quotients = probes._quotient_kernel(scheme, 2, oracle, x)
    assert len(calls) == 1  # the zero node: x itself
    values = quotients(SUBGROUP_STEPS)
    # once more per term that passes the cofactor test, and never through _membership
    assert len(calls) == 1 + _passing_terms(scheme, x, SUBGROUP_STEPS) > 1
    assert probes._membership.cache_info().misses == misses
    monkeypatch.undo()
    assert values == [_pair(reference_quotient(scheme, 2, oracle, x, h)) for h in SUBGROUP_STEPS]


def test_an_in_group_step_at_zero_costs_no_strip(monkeypatch):
    # gauss-fwd:n=3,q=-2 has the nodes 0, 1, -2 and 4; -2 is outside <2, 3>
    scheme = named_scheme(parse_family("gauss-fwd:n=3,q=-2"))
    oracle = subgroup_monomial_oracle(2, [2, 3])
    flags = _subgroup_flags(oracle)
    assert any(flags) and not all(flags)
    calls, stripped = [], []
    in_group, strip = probes._in_group, probes._strip
    monkeypatch.setattr(probes, "_in_group", lambda *args: calls.append(args) or in_group(*args))
    monkeypatch.setattr(probes, "_strip", lambda v, base: stripped.append(v) or strip(v, base))
    misses = probes._membership.cache_info().misses
    quotients = probes._quotient_kernel(scheme, 3, oracle, Fraction(0))
    # each nonzero node is decided once, through _in_group, over one strip of DB
    nodes = [b for b in scheme._ints[2] if b]
    assert [args[0] for args in calls] == nodes
    assert stripped == [scheme._ints[3]] + [abs(b) for b in nodes]
    calls.clear(), stripped.clear()
    values = quotients(SUBGROUP_STEPS, flags)
    # a step in <2, 3> costs no strip and no membership test; a step outside it
    # strips D once, and tests the one node outside, -2, when the cofactor allows
    outside = [h for h, flag in zip(SUBGROUP_STEPS, flags) if not flag]
    assert 0 < len(calls) <= len(outside) < len(SUBGROUP_STEPS)
    assert len(stripped) == len(outside) + len(calls)  # _in_group strips its numerator
    assert probes._membership.cache_info().misses == misses
    monkeypatch.undo()
    assert values == [_pair(reference_quotient(scheme, 3, oracle, Fraction(0), h)) for h in SUBGROUP_STEPS]
    # without flags the kernel decides each step itself, with the same values
    assert quotients(SUBGROUP_STEPS) == values


def test_a_stray_product_meets_the_group_at_zero():
    # 2 and the steps 3/6**j are outside <6>, and their product 6**(1-j) is in it;
    # f(0) - 2 f(h) + f(2h) over h**2 is 4 for h > 0 and 0 for h < 0
    argv = ["probe", "riemann:n=2", "--oracle", "subgmono:k=2;gens=6", "--x", "0",
            "--h0", "3", "--ratios", "1/6"]
    with redirect_stdout(io.StringIO()) as out:
        assert cli.main(["--output", "json", *argv]) == 0
    data = json.loads(out.getvalue())
    stray = [s for s in data["sequences"] if s["ratio"] == "1/6"]
    assert [(s["sign"], s["settled"], s["candidate"], s["in_group"]) for s in stray] == [
        (1, True, "4/1", False),
        (-1, True, "0/1", False),
    ]
    assert data["verdict"] == VERDICT_DIVERGES


# group elements over the generators -2, 6 and 2/3 (negative, composite, fractional),
# and values outside the group made from them by a stray factor: a node 5*g and a step
# g'/5, both outside, have a product in the group
ZERO_GENERATORS = [-2, 6, Fraction(2, 3)]


@st.composite
def _group_values(draw, gens):
    exponents = draw(st.lists(st.integers(-2, 2), min_size=len(gens), max_size=len(gens)))
    value = Fraction(1)
    for g, e in zip(gens, exponents):
        value *= Fraction(g) ** e
    stray = draw(st.sampled_from([1, 1, 5, Fraction(1, 5), -1, 7]))
    return value * stray


@st.composite
def _zero_point_cases(draw):
    gens = draw(st.lists(st.sampled_from(ZERO_GENERATORS), min_size=1, max_size=3, unique=True))
    values = _group_values(gens)
    n = draw(st.integers(1, 3))
    nodes = draw(st.lists(st.one_of(values, st.just(Fraction(0))), min_size=n + 1,
                          max_size=n + 1, unique=True))
    ratios = draw(st.lists(values.filter(lambda v: abs(v) != 1).map(
        lambda v: v if abs(v) < 1 else 1 / v), min_size=1, max_size=2, unique=True))
    h0 = draw(values)
    config = ProbeConfig(h0, tuple(ratios), draw(st.integers(0, 3)), draw(st.integers(4, 10)))
    oracle = subgroup_monomial_oracle(draw(st.integers(0, 3)), gens)
    return construct_exact(nodes, n), oracle, config


@settings(max_examples=150, deadline=None)
@given(_zero_point_cases())
def test_subgroup_probes_at_zero_match_the_references(case):
    scheme, oracle, config = case
    x, n = Fraction(0), order_info(scheme).order
    report = limit_probe(scheme, oracle, x, config)
    assert report == reference_limit_probe(scheme, oracle, x, config)
    assert report.to_json_dict() == reference_limit_probe(scheme, oracle, x, config).to_json_dict()
    lattice = probes._generator_lattice(oracle.generators)
    quotients = probes._quotient_kernel(scheme, n, oracle, x)
    for sequence in report.sequences:
        steps, _, flags = probes._sequence(
            sequence.sign * config.h0, sequence.ratio, config.j_min, config.j_max, lattice
        )
        want = [_pair(reference_quotient(scheme, n, oracle, x, h)) for h in steps]
        assert quotients(steps, flags) == quotients(steps) == want


R3 = named_scheme(riemann(3))


@pytest.mark.parametrize(
    "scheme, oracle, constant",
    [
        (D2_SYM, polynomial_oracle([]), 0),
        # degree below the order: every moment the quotient reads is zero
        (R3, polynomial_oracle([1, Fraction(-2, 3), 5]), 0),
        # degree equal to the order: n! times the leading coefficient, for every h
        (R3, polynomial_oracle([1, Fraction(-2, 3), 5, Fraction(5, 7)]), Fraction(30, 7)),
        (R3, monomial_oracle(32), None),
        (D2_SYM, polynomial_oracle([Fraction(j, 7) for j in range(-16, 17)]), None),
    ],
)
def test_moment_kernel_at_its_edges(scheme, oracle, constant):
    order = len(scheme.nodes) - 1
    steps = [Fraction(1, 3) ** 40, Fraction(-3, 5), Fraction(7), Fraction(-1, 2) ** 17]
    for x, n in product([Fraction(0), Fraction(1, 3)], [0, order, order + 2]):
        for h, (p, q) in zip(steps, probes._quotient_kernel(scheme, n, oracle, x)(steps)):
            assert gcd(p, q) == 1 and q > 0
            got = Fraction(p, q)
            assert got == reference_quotient(scheme, n, oracle, x, h)
            if constant is not None and n == order:
                assert got == constant


def test_eval_quotient_fixtures():
    assert eval_quotient(FWD1, abs_oracle(), 0, Fraction(1, 8)) == 1
    assert eval_quotient(FWD1, abs_oracle(), 0, Fraction(-1, 8)) == -1
    assert eval_quotient(D2_SYM, sgnsq_oracle(), 0, Fraction(1, 7)) == 0
    assert eval_quotient(named_scheme(riemann(3)), monomial_oracle(3), 0, 5) == 6
    with pytest.raises(ZeroStep):
        eval_quotient(FWD1, abs_oracle(), 0, 0)


@pytest.mark.parametrize("h", [0, "0", "0/5", Fraction(0)])
@pytest.mark.parametrize(
    "oracle",
    [
        abs_oracle(),
        sgnsq_oracle(),
        monomial_oracle(0),
        polynomial_oracle([Fraction(1, 2), -3]),
        subgroup_monomial_oracle(2, [-2, Fraction(3, 5)]),
    ],
)
def test_eval_quotient_refuses_zero_step(oracle, h):
    with pytest.raises(ZeroStep, match="^the step h must be nonzero$"):
        eval_quotient(D2_SYM, oracle, Fraction(1, 3), h)


rational = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
)
nonzero = rational.filter(lambda v: v != 0)

# oracles of every kind: rational polynomial coefficients (also none, or one),
# monomials down to degree 0, negative and fractional subgroup generators,
# and generators that leave composite base elements (4, 6 and 12/5 alone)
GENERATORS = [-2, Fraction(3, 5), Fraction(-1, 3), 2, Fraction(5, 2), -1, 6, Fraction(4),
              Fraction(12, 5)]
oracles = st.one_of(
    st.just(abs_oracle()),
    st.just(sgnsq_oracle()),
    st.integers(0, 5).map(monomial_oracle),
    st.lists(rational, max_size=5).map(polynomial_oracle),
    st.builds(
        subgroup_monomial_oracle,
        st.integers(0, 3),
        st.lists(st.sampled_from(GENERATORS), min_size=1, max_size=3),
    ),
)
# signed steps along the probe's geometric sequences, down to rho**40, or arbitrary
steps = st.one_of(
    st.builds(
        lambda sign, h0, rho, j: sign * h0 * rho ** j,
        st.sampled_from([1, -1]),
        nonzero,
        st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(-2, 3), Fraction(1, 5)]),
        st.integers(0, 40),
    ),
    nonzero,
)
points = st.one_of(st.just(Fraction(0)), nonzero)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(nonzero, rational), max_size=6),
    st.integers(0, 5),
    oracles,
    points,
    steps,
)
def test_quotient_kernel_matches_fraction_reference(pairs, n, oracle, x, h):
    scheme = canonicalize(pairs)
    got = probes._quotient_kernel(scheme, n, oracle, x)([h])
    assert got == [_pair(reference_quotient(scheme, n, oracle, x, h))]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(rational, min_size=n + 1, max_size=n + 1, unique=True)
    ),
    oracles,
    points,
    steps,
)
def test_eval_quotient_matches_fraction_reference(nodes, oracle, x, h):
    n = len(nodes) - 1
    scheme = construct_exact(nodes, n)
    assert eval_quotient(scheme, oracle, x, h) == reference_quotient(scheme, n, oracle, x, h)


@pytest.mark.parametrize(
    "scheme, oracle, x",
    [
        (FWD1, abs_oracle(), 0),
        (D2_SYM, sgnsq_oracle(), Fraction(-1, 5)),
        (named_scheme(riemann(3)), polynomial_oracle([Fraction(1, 2), -3, 0, 2]), Fraction(3, 2)),
        (D2_SYM, subgroup_monomial_oracle(2, [-2, Fraction(3, 5)]), 0),
        (construct_exact([Fraction(-1, 2), Fraction(1, 3), 2], 2), monomial_oracle(3), Fraction(4, 3)),
        # a zero node at a point in <2, 3>, and at one outside it (-1 is not in <2, 3>)
        (named_scheme(riemann(3)), subgroup_monomial_oracle(2, [2, 3]), Fraction(4, 3)),
        (named_scheme(riemann(3)), subgroup_monomial_oracle(2, [2, 3]), Fraction(-3, 2)),
    ],
)
def test_limit_probe_samples_match_fraction_reference(scheme, oracle, x):
    report = limit_probe(scheme, oracle, x)
    n = len(scheme.nodes) - 1
    for sequence in report.sequences:
        for h, value in sequence.samples:
            assert value == reference_quotient(scheme, n, oracle, Fraction(x), h)


def test_a_tail_of_one_repeated_pair_is_settled_without_close_tests(monkeypatch):
    # every quotient of x**3 under the third Riemann difference is m_3 = 6
    calls = []
    close = probes._close
    monkeypatch.setattr(probes, "_close", lambda *args: calls.append(args) or close(*args))
    report = limit_probe(R3, monomial_oracle(3), Fraction(1, 3))
    assert {value for s in report.sequences for value in s.values} == {(6, 1)}
    assert report.verdict == VERDICT_CONVERGES and report.estimate == 6
    assert calls == []


@settings(max_examples=40)
@given(
    st.lists(rational, min_size=4, max_size=4, unique=True),
    st.lists(rational, min_size=4, max_size=4),
    rational,
    nonzero,
)
def test_polynomial_quotient_is_leading_coefficient(nodes, coeffs, x, h):
    scheme = construct_exact(nodes, 3)
    oracle = polynomial_oracle(coeffs)
    assert eval_quotient(scheme, oracle, x, h) == coeffs[3] * 6


@settings(max_examples=40)
@given(
    st.lists(rational, min_size=3, max_size=3, unique=True),
    nonzero,
    nonzero,
    rational,
)
def test_quotient_scale_consistency(nodes, r, h, x):
    scheme = construct_exact(nodes, 2)
    oracle = abs_oracle()
    assert eval_quotient(scale(scheme, r), oracle, x, h) == eval_quotient(
        scheme, oracle, x, r * h
    )


# --- probe configuration -------------------------------------------------------------


def test_config_defaults_and_validation():
    cfg = ProbeConfig()
    assert cfg.h0 == 1
    assert cfg.ratios == (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    assert (cfg.j_min, cfg.j_max) == (4, 40)
    assert cfg.tol == Fraction(1, 10 ** 9)
    with pytest.raises(ZeroStep):
        ProbeConfig(h0=0)
    with pytest.raises(CalculusError):
        ProbeConfig(ratios=(2,))
    with pytest.raises(CalculusError):
        ProbeConfig(ratios=())
    with pytest.raises(CalculusError):
        ProbeConfig(j_min=7, j_max=7)
    with pytest.raises(CalculusError):
        ProbeConfig(tol=0)


# --- limit probes ----------------------------------------------------------------------


def test_probe_symmetric_first_difference_of_abs_converges():
    scheme = construct_exact([Fraction(-1, 2), Fraction(1, 2)], 1)
    report = limit_probe(scheme, abs_oracle())
    assert report.verdict == VERDICT_CONVERGES
    assert report.estimate == 0  # every sample is exactly zero
    assert all(s.settled for s in report.sequences)


def test_probe_forward_difference_of_abs_diverges():
    report = limit_probe(FWD1, abs_oracle())
    assert report.verdict == VERDICT_DIVERGES
    assert report.estimate is None
    first, second = report.evidence
    assert sorted([first.candidate, second.candidate]) == [-1, 1]


def test_probe_symmetric_second_of_sgnsq_converges_to_zero():
    report = limit_probe(D2_SYM, sgnsq_oracle())
    assert report.verdict == VERDICT_CONVERGES
    assert report.estimate == 0


def test_probe_monomial_converges_exactly():
    report = limit_probe(named_scheme(riemann(3)), monomial_oracle(3))
    assert report.verdict == VERDICT_CONVERGES
    assert report.estimate == 6


def test_probe_inconclusive_when_values_blow_up():
    config = ProbeConfig(j_min=4, j_max=10)
    report = limit_probe(D2_SYM, abs_oracle(), 0, config)
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert report.estimate is None
    assert not any(s.settled for s in report.sequences)
    assert report.evidence == ()


def test_probe_subgroup_clusters_in_and_out():
    oracle = subgroup_monomial_oracle(2, [2, 3])
    report = limit_probe(construct_exact([0, 1, 2], 2), oracle)
    assert report.verdict == VERDICT_DIVERGES
    first, second = report.evidence
    assert sorted([first.candidate, second.candidate]) == [0, 2]
    assert {first.in_group, second.in_group} == {True, False}
    # generators {2, 3} need no extra ratios: 1/2 and 1/5 already present
    assert report.config.ratios == ProbeConfig().ratios


def test_probe_adds_subgroup_ratios():
    oracle = subgroup_monomial_oracle(1, [7])
    report = limit_probe(FWD1, oracle)
    assert report.config.ratios == ProbeConfig().ratios + (Fraction(1, 7),)

    negative_gen = subgroup_monomial_oracle(1, [-2])
    report2 = limit_probe(FWD1, negative_gen)
    assert report2.config.ratios == ProbeConfig().ratios + (Fraction(1, 4),)


def test_probe_subgroup_off_zero_is_answered():
    # 1/7 + b*h is never in <2, 3>, and some of those points have prime
    # factors above 10**6
    report = limit_probe(
        named_scheme(mz_tilde(2)), subgroup_monomial_oracle(2, [2, 3]), Fraction(1, 7)
    )
    assert report.verdict == VERDICT_CONVERGES
    assert report.estimate == 0
    assert all(v == 0 for s in report.sequences for _, v in s.samples)


def reference_out_group_prime(generators):
    """The least prime outside the generators' primes, found as before."""
    used_primes = set()
    for g in generators:
        _, exps = _factor_rational(Fraction(g))
        used_primes |= set(exps)
    p = 2
    while p in used_primes or any(p % q == 0 for q in range(2, p)):
        p += 1
    return p


def test_auto_subgroup_ratios_unchanged():
    rng = random.Random(7)
    cases = [[2, 3, 5, 7, 11, 13], [30, Fraction(7, 11)], [-1], [1, -1], [Fraction(1, 2), 5]]
    for _ in range(200):
        cases.append(
            [Fraction(rng.choice([-1, 1]) * rng.randint(1, 3000), rng.randint(1, 3000))
             for _ in range(rng.randint(1, 3))]
        )
    config = ProbeConfig(ratios=(Fraction(-1, 2),))  # never an added ratio: those are > 0
    for gens in cases:
        oracle = subgroup_monomial_oracle(1, gens)
        assert probes._ratios(oracle, config)[-1] == Fraction(1, reference_out_group_prime(gens))


def test_probe_in_group_tag_mixed_is_none():
    oracle = subgroup_monomial_oracle(2, [2])
    config = ProbeConfig(ratios=(Fraction(-1, 2),))
    report = limit_probe(construct_exact([0, 1, 2], 2), oracle, 0, config)
    alternating = [s for s in report.sequences if s.ratio == Fraction(-1, 2)]
    assert alternating and all(s.in_group is None for s in alternating)


def test_probe_report_json_shape():
    data = limit_probe(D2_SYM, sgnsq_oracle()).to_json_dict()
    assert data["verdict"] == "converges"
    assert data["estimate"] == "0/1"
    assert data["numeric_evidence"] is True
    assert data["config"]["tol"] == "1/1000000000"
    assert data["evidence"] == []
    assert data["sequences"][0]["samples"][0]["h"] == "1/16"


def _assert_samples_unbuilt_then_reference(scheme, oracle, x, report):
    """No sequence of ``report`` has built ``samples``; read now, they are the reference's."""
    assert all("samples" not in seq.__dict__ for seq in report.sequences)
    want = reference_limit_probe(scheme, oracle, x, report.config)
    assert report == want
    n = order_info(scheme).order
    for got, ref in zip(report.sequences, want.sequences):
        assert got.samples == tuple(
            (h, reference_quotient(scheme, n, oracle, x, h)) for h in ref.steps
        )
        assert "samples" in got.__dict__  # built once, on that first read


@pytest.mark.parametrize(
    "scheme, oracle, x",
    [
        (FWD1, abs_oracle(), Fraction(0)),
        (D2_SYM, sgnsq_oracle(), Fraction(-1, 5)),
        (D2_SYM, subgroup_monomial_oracle(2, [-2, Fraction(3, 5)]), Fraction(0)),
        (named_scheme(riemann(3)), polynomial_oracle([Fraction(1, 2), -3, 0, 2]), Fraction(3, 2)),
    ],
)
def test_probe_json_builds_no_fraction_samples(scheme, oracle, x):
    report = limit_probe(scheme, oracle, x)
    report.to_json_dict()
    _assert_samples_unbuilt_then_reference(scheme, oracle, x, report)


@pytest.mark.parametrize("output", ["json", "text"])
@pytest.mark.parametrize(
    "argv",
    [
        ["probe", "riemann:n=2", "--oracle=sgnsq", "--x=1/3"],
        ["probe", "gauss-fwd:n=2,q=-2", "--oracle=subgmono:k=2;gens=2,3", "--x=0"],
        ["probe", "--peano=3", "--oracle=mono:k=3", "--x=1/2"],
    ],
)
def test_cli_probe_builds_no_fraction_samples(monkeypatch, argv, output):
    runs = []

    def recording(scheme, oracle, x=0, config=None):
        report = run_probe(scheme, oracle, x, config)
        runs.append((scheme, oracle, parse_rational(x), report))
        return report

    run_probe = probes.limit_probe
    # the CLI's probe handler and peano_probe's stages both read probes.limit_probe
    monkeypatch.setattr(probes, "limit_probe", recording)
    with redirect_stdout(io.StringIO()) as out:
        assert cli.main(["--output", output, *argv]) == 0
    assert runs and out.getvalue()
    for scheme, oracle, x, report in runs:
        _assert_samples_unbuilt_then_reference(scheme, oracle, x, report)


def test_sample_values_past_the_int_to_str_limit_are_printed():
    # h = +-(1/77...7)**j and S(h)/h**4 of |x| grows as h**-3: a value of up to
    # 4,790 characters, whose numerator alone passes the int-to-str limit
    ratio = Fraction(1, int("7" * 40))
    argv = ["probe", "shift:n=4,k=-1", "--oracle=abs", "--x=0", f"--ratios={ratio}"]
    scheme = named_scheme(parse_family("shift:n=4,k=-1"))

    def reference(h):
        return format_rational(reference_quotient(scheme, 4, abs_oracle(), Fraction(0), h))

    with redirect_stdout(io.StringIO()) as out:
        assert cli.main(["--output", "json", *argv]) == 0
    data = json.loads(out.getvalue())
    values = [
        (sample["value"], reference(parse_rational(sample["h"])))
        for sequence in data["sequences"]
        for sample in sequence["samples"]
    ]
    assert len(values) == 2 * 37 and all(got == want for got, want in values)
    longest = max(len(got.partition("/")[0]) for got, _ in values)
    assert longest > sys.get_int_max_str_digits()
    with redirect_stdout(io.StringIO()) as out:
        assert cli.main(["--output", "text", *argv]) == 0
    lasts = [line.rpartition(" last=")[2] for line in out.getvalue().splitlines() if " last=" in line]
    assert lasts == [reference(sign * ratio ** 40) for sign in (1, -1)]
    assert max(len(last) for last in lasts) == max(len(got) for got, _ in values)


# --- staged probes ----------------------------------------------------------------------


def test_peano_probe_stops_at_first_failure():
    stages = peano_probe(sgnsq_oracle(), 0, 4)
    assert [order for order, _ in stages] == [1, 2]
    assert stages[0][1].verdict == VERDICT_CONVERGES
    assert stages[1][1].verdict == VERDICT_DIVERGES
    first, second = stages[1][1].evidence
    assert sorted([first.candidate, second.candidate]) == [-2, 2]


def test_peano_probe_subgroup_second_stage():
    stages = peano_probe(subgroup_monomial_oracle(2, [2, 3]), 0, 2)
    assert [order for order, _ in stages] == [1, 2]
    assert stages[0][1].verdict == VERDICT_CONVERGES
    assert abs(stages[0][1].estimate) <= ProbeConfig().tol
    assert stages[1][1].verdict == VERDICT_DIVERGES


def test_peano_probe_full_depth():
    stages = peano_probe(monomial_oracle(3), 0, 3)
    assert [order for order, _ in stages] == [1, 2, 3]
    assert all(r.verdict == VERDICT_CONVERGES for _, r in stages)
    assert stages[2][1].estimate == 6  # constant sequences, exact value


def test_peano_probe_invalid_depth():
    with pytest.raises(CalculusError):
        peano_probe(monomial_oracle(2), 0, 0)
    with pytest.raises(CalculusError, match="^the probe depth n must be a positive integer$"):
        peano_probe(monomial_oracle(2), 0, True)


# --- booleans are not integers -------------------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        lambda: construct_exact([0, 1], True),
        lambda: n_times_check([(False, CONTINUITY), (True, construct_exact([0, 1], 1))]),
        lambda: verify_quantum_ggr(2, False, 3),
        lambda: gaussian_affine_shift(2, True, 3),
        lambda: monomial_oracle(True),
        lambda: ProbeConfig(j_min=False),
        lambda: ProbeConfig(j_max=True, j_min=0),
    ],
)
def test_booleans_are_refused_as_integers(call):
    with pytest.raises(CalculusError):
        call()


def test_boolean_order_refusal_quotes_the_boolean():
    with pytest.raises(InvalidOrder, match="^order must be a positive integer, got True$"):
        construct_exact([0, 1], True)


# --- limits on probe inputs -------------------------------------------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ProbeConfig(j_max=probes.MAX_J + 1), "j_max"),
        (lambda: peano_probe(abs_oracle(), 0, probes.MAX_PEANO_DEPTH + 1), "the probe depth n"),
    ],
)
def test_probe_inputs_above_their_limits_are_refused(call, message):
    with pytest.raises(ProbeBoundExceeded, match=f"^{message} must be at most "):
        call()


def test_probe_inputs_at_their_limits_are_accepted():
    assert ProbeConfig(j_max=probes.MAX_J).j_max == probes.MAX_J


def test_the_oracle_degree_has_no_cap_of_its_own():
    # an oracle of any degree is formed; the probe size refuses its probes
    assert not hasattr(probes, "MAX_ORACLE_DEGREE")
    assert monomial_oracle(10 ** 8).degree == 10 ** 8
    assert subgroup_monomial_oracle(10 ** 8, [2]).degree == 10 ** 8
    assert len(polynomial_oracle([1] * 1000).coeffs) == 1000


SIZE_REFUSAL = r"^the probe size depth \* max\(j_max, degree\)\*\*2 \* max\(degree, 1\) \* digits must"


@pytest.mark.parametrize("j_max", [1, 2, 40, probes.MAX_J])
def test_probe_size_is_the_old_product_at_every_degree_up_to_j_max(j_max):
    # up to j_max, max(j_max, degree) is j_max, so the size is the product bounded
    # before the degree cap went, depth * j_max**2 * max(degree, 1) * digits: the
    # largest depth it admits (0 where depth 1 is over) passes, the next is refused
    config = ProbeConfig(j_min=0, j_max=j_max)
    for degree in range(j_max + 1):
        old = j_max ** 2 * max(degree, 1)
        depth = probes.MAX_PROBE_SIZE // old
        for oracle in (
            monomial_oracle(degree),
            polynomial_oracle([1] * (degree + 1)),
            subgroup_monomial_oracle(degree, [2]),
        ):
            numbers = (0, config.h0, *probes._ratios(oracle, config))
            probes._check_size(oracle, depth, j_max, numbers)
            refused = rf"{SIZE_REFUSAL} .*, got {(depth + 1) * old}$"
            with pytest.raises(ProbeBoundExceeded, match=refused):
                probes._check_size(oracle, depth + 1, j_max, numbers)


def test_probe_size_counts_a_degree_above_j_max_in_the_squared_factor():
    # 161**3 = 4,173,281 is within 2**22 and 162**3 = 4,251,528 is not
    config = ProbeConfig()
    numbers = (Fraction(1, 3), config.h0, *config.ratios)
    assert 161 ** 3 <= probes.MAX_PROBE_SIZE < 162 ** 3
    probes._check_size(monomial_oracle(161), 1, config.j_max, numbers)
    probes._check_size(polynomial_oracle([1] * 162), 1, config.j_max, numbers)
    with pytest.raises(ProbeBoundExceeded, match=rf"{SIZE_REFUSAL} .*, got {162 ** 3}$"):
        probes._check_size(monomial_oracle(162), 1, config.j_max, numbers)
    with pytest.raises(ProbeBoundExceeded, match=rf"{SIZE_REFUSAL} .*, got {162 ** 3}$"):
        probes._check_size(polynomial_oracle([1] * 163), 1, config.j_max, numbers)


@pytest.mark.parametrize(
    "degree, config, size",
    [
        # 1000**3: with the cap simply deleted, the moment kernel took 8.1 s on this
        (1000, ProbeConfig(j_min=0, j_max=1), 10 ** 9),
        (10 ** 8, ProbeConfig(), 10 ** 24),
    ],
)
def test_high_degree_probes_are_refused_before_any_kernel(monkeypatch, degree, config, size):
    # with j_min 0 and j_max 1 the size is the one eval_quotient bounds for one sample
    def no_kernel(*args):
        raise AssertionError("the quotient kernel was set up")

    monkeypatch.setattr(probes, "_quotient_kernel", no_kernel)
    message = rf"{SIZE_REFUSAL} be at most {probes.MAX_PROBE_SIZE}, got {size}$"
    for oracle in (monomial_oracle(degree), subgroup_monomial_oracle(degree, [2])):
        with pytest.raises(ProbeBoundExceeded, match=message):
            limit_probe(named_scheme(riemann(2)), oracle, 1, config)
        with pytest.raises(ProbeBoundExceeded, match=message):
            peano_probe(oracle, 1, 1, config)
        # one sample is bounded as a probe of one step: size max(degree, 1)**3
        with pytest.raises(ProbeBoundExceeded, match=message):
            eval_quotient(named_scheme(riemann(2)), oracle, 1, Fraction(1, 2))


def test_eval_quotient_answers_up_to_degree_161():
    # 0.06 s at degree 161 (one process); with no bound, degree 1000 took 7.6 s
    # and degree 2000 more than 60 s for this one sample
    scheme, x, h = named_scheme(riemann(2)), Fraction(1, 3), Fraction(1, 2)
    top = monomial_oracle(161)
    assert eval_quotient(scheme, top, x, h) == reference_quotient(scheme, 2, top, x, h)
    with pytest.raises(ProbeBoundExceeded, match=rf"{SIZE_REFUSAL} .*, got {162 ** 3}$"):
        eval_quotient(scheme, monomial_oracle(162), x, h)


def test_probe_moments_stay_inside_the_moment_budget(monkeypatch):
    # mono and poly read the moments j = 0..degree, and the probe size admits degree 161
    # at most, so j * digits of the nodes stays inside the moment budget on nodes up to
    # 13,025 digits wide; wider nodes get the moment's own refusal
    sizes = []

    def recording(scheme, j, _original=probes.moment):
        _, _, nodes, db = scheme._ints
        sizes.append(j * _width([*nodes, db]))
        return _original(scheme, j)

    monkeypatch.setattr(probes, "moment", recording)
    scheme, x, h = named_scheme(riemann(4)), Fraction(1, 3), Fraction(1, 2)
    eval_quotient(scheme, monomial_oracle(161), x, h)
    eval_quotient(scheme, polynomial_oracle([1] * 162), x, h)
    assert max(sizes) == 161 and len(sizes) == 2 * 162
    assert 161 * 13025 <= MAX_FAMILY_SIZE < 161 * 13026


def test_eval_quotient_sizes_its_own_point_and_step(monkeypatch):
    # a 300-digit x once took 7 s here; the probe of the same point refuses it
    scheme, oracle = named_scheme(riemann(4)), monomial_oracle(161)
    wide = Fraction(int("7" * 300), 3)
    with pytest.raises(ProbeBoundExceeded) as probe:
        limit_probe(scheme, oracle, wide)
    assert str(probe.value).endswith(f", got {161 ** 3 * 300}")

    def no_kernel(*args):
        raise AssertionError("sampled before the size check")

    monkeypatch.setattr(probes, "_quotient_kernel", no_kernel)
    with pytest.raises(ProbeBoundExceeded) as single:
        eval_quotient(scheme, oracle, wide, Fraction(1, 3))
    assert str(single.value) == str(probe.value)
    with pytest.raises(ProbeBoundExceeded, match=rf"{SIZE_REFUSAL} .*, got {161 ** 3 * 300}$"):
        eval_quotient(scheme, oracle, Fraction(1, 3), 1 / wide)


def test_eval_quotient_sizes_no_ratio_it_does_not_run():
    # a probe adds the ratio 1/g of the 999-digit generator g and is refused; one
    # sample reads only its x and h and is answered
    scheme, oracle = named_scheme(riemann(2)), subgroup_monomial_oracle(32, [10 ** 998 + 1])
    with pytest.raises(ProbeBoundExceeded, match=rf"{SIZE_REFUSAL} .*, got {40 ** 2 * 32 * 999}$"):
        limit_probe(scheme, oracle, 0)
    x, h = Fraction(0), Fraction(1, 2)
    assert eval_quotient(scheme, oracle, x, h) == reference_quotient(scheme, 2, oracle, x, h)


def test_probe_size_is_bounded_on_the_product_of_the_limits():
    at_limits = ProbeConfig(j_max=probes.MAX_J)
    with pytest.raises(ProbeBoundExceeded, match=SIZE_REFUSAL):
        peano_probe(monomial_oracle(32), Fraction(1, 3), 16, at_limits)
    # 2 * 256**2 * 32 is the bound itself: accepted, checked without sampling
    top = polynomial_oracle([1] * 33)
    assert 2 * probes.MAX_J ** 2 * 32 == probes.MAX_PROBE_SIZE
    numbers = (0, at_limits.h0, *at_limits.ratios)
    probes._check_size(top, 2, probes.MAX_J, numbers)
    with pytest.raises(ProbeBoundExceeded, match=", got 6291456$"):
        probes._check_size(top, 3, probes.MAX_J, numbers)
    # degree 0 counts as 1
    probes._check_size(abs_oracle(), probes.MAX_PEANO_DEPTH, probes.MAX_J, numbers)


@pytest.mark.parametrize(
    "x, config, digits",
    [
        (Fraction(1, 3), ProbeConfig(), 1),
        (Fraction(-9, 7), ProbeConfig(h0=Fraction(-9, 8), ratios=(Fraction(-8, 9),)), 1),
        (Fraction(10, 3), ProbeConfig(), 2),
        (Fraction(1, 3), ProbeConfig(h0=Fraction(1, 10 ** 5)), 6),
        (Fraction(0), ProbeConfig(ratios=(Fraction(1, 2), Fraction(-999, 1000))), 4),
        (Fraction(-(10 ** 4999), 7), ProbeConfig(), 5000),
    ],
)
def test_probe_size_counts_the_digits_of_x_h0_and_the_ratios(x, config, digits):
    oracle = monomial_oracle(4)
    size = config.j_max ** 2 * 4
    # the most digits that the bound admits at this size, and one digit more
    numbers = (x, config.h0, *config.ratios)
    depth = probes.MAX_PROBE_SIZE // (size * digits)
    if depth:
        probes._check_size(oracle, depth, config.j_max, numbers)
    refused = probes.MAX_PROBE_SIZE // size + 1
    with pytest.raises(ProbeBoundExceeded, match=SIZE_REFUSAL):
        probes._check_size(oracle, -(-refused // digits), config.j_max, numbers)


def test_probe_size_counts_the_added_subgroup_ratios():
    # limit_probe adds the 13-digit ratio 1/1000036000099 from the generator;
    # counted, it puts this probe over the bound in limit_probe and peano_probe
    oracle = subgroup_monomial_oracle(5, [1000036000099])
    config = ProbeConfig(j_min=probes.MAX_J - 2, j_max=probes.MAX_J)
    size = config.j_max ** 2 * 5
    assert size <= probes.MAX_PROBE_SIZE < size * 13
    message = rf"{SIZE_REFUSAL} be at most \d+, got {size * 13}$"
    with pytest.raises(ProbeBoundExceeded, match=message):
        limit_probe(named_scheme(mz_tilde(2)), oracle, 0, config)
    with pytest.raises(ProbeBoundExceeded, match=message):
        peano_probe(oracle, 0, 1, config)
    # a negative generator adds its square: 1/(10**12 + 1)**2 has 25 digits
    negative = subgroup_monomial_oracle(5, [-(10 ** 12 + 1)])
    with pytest.raises(ProbeBoundExceeded, match=rf"got {size * 25}$"):
        limit_probe(named_scheme(mz_tilde(2)), negative, 0, config)
    # with every ratio of one digit the same probe is answered
    small = limit_probe(named_scheme(mz_tilde(2)), subgroup_monomial_oracle(5, [7]), 0, config)
    assert small.config.ratios == ProbeConfig().ratios + (Fraction(1, 7),)


def test_probe_limit_refusal_echo_is_bounded():
    with pytest.raises(ProbeBoundExceeded) as refused:
        ProbeConfig(j_max=10 ** 5000)
    assert str(refused.value).endswith("... (5001 characters)")


# --- the integer probe against the Fraction probe ------------------------------------------

RATIOS = [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-2, 3), Fraction(3, 4),
          Fraction(-1, 5), Fraction(2, 5), Fraction(5, 6)]
configs = st.builds(
    lambda h0, ratios, j_min, count, tol: ProbeConfig(h0, tuple(ratios), j_min, j_min + count, tol),
    # h0 sharing factors with the ratios' numerators and denominators, or any
    st.one_of(
        nonzero,
        st.builds(
            Fraction,
            st.sampled_from([2, 3, 4, 5, 6, 10, 12, 30, -6, -15]),
            st.sampled_from([1, 2, 3, 5, 9, 25]),
        ),
    ),
    st.lists(st.sampled_from(RATIOS), min_size=1, max_size=3, unique=True),
    st.integers(0, 8),
    st.integers(1, 12),
    st.sampled_from([Fraction(1, 10 ** 9), Fraction(1, 100), Fraction(1, 3), Fraction(2)]),
)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(rational, min_size=n + 1, max_size=n + 1, unique=True)
    ),
    oracles,
    points,
    configs,
)
def test_limit_probe_matches_fraction_reference(nodes, oracle, x, config):
    scheme = construct_exact(nodes, len(nodes) - 1)
    got = limit_probe(scheme, oracle, x, config)
    want = reference_limit_probe(scheme, oracle, x, config)
    assert got == want
    assert got.to_json_dict() == want.to_json_dict()


def test_steps_are_powers_of_the_ratio():
    # h0 = 6 and 10/9 share factors with the ratios' numerators and denominators
    for h0, ratio, sign, (j_min, j_max) in product(
        [Fraction(1), Fraction(-3, 4), Fraction(6), Fraction(10, 9)],
        [Fraction(1, 2), Fraction(-2, 3), Fraction(-1, 5), Fraction(3, 4), Fraction(-5, 6)],
        [1, -1],
        [(0, 1), (4, 40), (3, 17)],
    ):
        steps, texts, in_group = probes._sequence(sign * h0, ratio, j_min, j_max, None)
        assert steps == tuple(sign * h0 * ratio ** j for j in range(j_min, j_max + 1))
        assert texts == tuple(format_rational(h) for h in steps)
        assert in_group is None


def test_limit_probe_reports_do_not_depend_on_call_order():
    configs = [
        ProbeConfig(),
        ProbeConfig(Fraction(6), (Fraction(-2, 3), Fraction(1, 2)), 2, 14, Fraction(1, 100)),
    ]
    oracle = subgroup_monomial_oracle(2, [Fraction(4), Fraction(12, 5)])
    x = Fraction(1, 3)
    want = [reference_limit_probe(D2_SYM, oracle, x, c) for c in configs]
    for order in ([0, 1], [1, 0], [0, 1, 0, 1]):
        probes._sequence.cache_clear()
        for i in order:
            assert limit_probe(D2_SYM, oracle, x, configs[i]) == want[i]


wide = st.fractions(
    min_value=Fraction(-10 ** 6), max_value=Fraction(10 ** 6), max_denominator=10 ** 4
)
tolerances = st.fractions(min_value=0, max_value=Fraction(3), max_denominator=10 ** 4).filter(
    lambda t: t > 0
)


@settings(max_examples=200)
@given(wide, wide, tolerances)
def test_integer_close_matches_fraction_close(u, v, tol):
    assert probes._close(_pair(u), _pair(v), tol) == _fraction_close(u, v, tol)


@settings(max_examples=150)
@given(wide, tolerances.filter(lambda t: t < 1), st.sampled_from([1, -1]), st.booleans())
def test_integer_close_at_exact_ties(u, tol, sign, larger_v):
    if larger_v:
        # |v| is the largest of 1, |u|, |v|: v - u = tol * v
        assume(abs(u) >= 1)
        v = u / (1 - tol)
    else:
        # max(1, |u|) bounds |v|: v - u = +-tol * max(1, |u|)
        bound = max(Fraction(1), abs(u))
        v = u + sign * tol * bound
        assume(abs(v) <= bound)
    assert abs(u - v) == tol * max(1, abs(u), abs(v))
    assert probes._close(_pair(u), _pair(v), tol) and probes._close(_pair(v), _pair(u), tol)
    beyond = v + (v - u) / 10 ** 9 if v != u else v + Fraction(1, 10 ** 9)
    assert probes._close(_pair(u), _pair(beyond), tol) == _fraction_close(u, beyond, tol)
    assert probes._close(_pair(beyond), _pair(u), tol) == _fraction_close(beyond, u, tol)


@pytest.mark.parametrize(
    "u, v, tol, close",
    [
        (Fraction(2), Fraction(3, 2), Fraction(1, 4), True),
        (Fraction(2), Fraction(3, 2) - Fraction(1, 10 ** 30), Fraction(1, 4), False),
        (Fraction(3), Fraction(4), Fraction(1, 4), True),
        (Fraction(-3), Fraction(-4), Fraction(1, 4), True),
        (Fraction(1, 2), Fraction(3, 5), Fraction(1, 10), True),
        (Fraction(1, 2), Fraction(3, 5) + Fraction(1, 10 ** 30), Fraction(1, 10), False),
        (Fraction(0), Fraction(1, 10 ** 9), Fraction(1, 10 ** 9), True),
        (Fraction(0), Fraction(-2, 10 ** 9), Fraction(1, 10 ** 9), False),
    ],
)
def test_integer_close_fixed_ties(u, v, tol, close):
    assert _fraction_close(u, v, tol) is close
    assert probes._close(_pair(u), _pair(v), tol) is close
