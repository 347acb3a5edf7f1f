"""Exact function oracles, subgroup membership, and numeric limit probes."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grdcalc import (
    CalculusError,
    FactorizationBoundExceeded,
    ProbeConfig,
    VERDICT_CONVERGES,
    VERDICT_DIVERGES,
    VERDICT_INCONCLUSIVE,
    ZeroInput,
    ZeroStep,
    abs_oracle,
    construct_exact,
    construct_exact_symmetric,
    eval_quotient,
    format_oracle,
    limit_probe,
    monomial_oracle,
    mz_tilde,
    parse_oracle,
    peano_probe,
    polynomial_oracle,
    riemann,
    named_scheme,
    scale,
    sgnsq_oracle,
    subgroup_membership,
    subgroup_monomial_oracle,
)
from grdcalc import probes
from membership_reference import _factor_rational

D2_SYM = construct_exact_symmetric([1], True, 2)
FWD1 = construct_exact([0, 1], 1)


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
    # only the generators are factored, so a point beyond the bound is answered
    assert not subgroup_membership(big_prime ** 2, [2])
    assert subgroup_membership(Fraction(big_prime ** 2, 8), [2, big_prime])
    with pytest.raises(FactorizationBoundExceeded):
        subgroup_membership(2, [big_prime ** 2])


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


# --- exact quotients ----------------------------------------------------------------


def test_limit_probe_reads_order_once(monkeypatch):
    calls = []
    original = probes.order_info

    def counting(scheme):
        calls.append(scheme)
        return original(scheme)

    monkeypatch.setattr(probes, "order_info", counting)
    oracle = subgroup_monomial_oracle(2, [2, 3])
    report = limit_probe(D2_SYM, oracle, Fraction(1, 3))
    assert calls == [D2_SYM]
    monkeypatch.undo()
    for sequence in report.sequences:
        for h, value in sequence.samples:
            assert eval_quotient(D2_SYM, oracle, Fraction(1, 3), h) == value


def test_eval_quotient_fixtures():
    assert eval_quotient(FWD1, abs_oracle(), 0, Fraction(1, 8)) == 1
    assert eval_quotient(FWD1, abs_oracle(), 0, Fraction(-1, 8)) == -1
    assert eval_quotient(D2_SYM, sgnsq_oracle(), 0, Fraction(1, 7)) == 0
    assert eval_quotient(named_scheme(riemann(3)), monomial_oracle(3), 0, 5) == 6
    with pytest.raises(ZeroStep):
        eval_quotient(FWD1, abs_oracle(), 0, 0)


rational = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
)
nonzero = rational.filter(lambda v: v != 0)


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
    # factors beyond the trial-division bound
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
    for gens in cases:
        oracle = subgroup_monomial_oracle(1, gens)
        assert probes._auto_subgroup_ratios(oracle)[-1] == Fraction(
            1, reference_out_group_prime(gens)
        )


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
