"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion and prints a single
``[PASS]``/``[FAIL]`` line (visible under ``pytest tests/test_acceptance.py -s``).
Every arithmetic assertion is exact; the only tolerances are the probe
tolerance 1/10**9 (the library default) and the pinned time budgets
(1 second per equispaced search, 0.1 second per probe sequence run).
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

from construction_reference import affine_closed_form
from grdcalc import (
    PATH_FAST_DISTINCT,
    PATH_FAST_NONNEG,
    ProbeConfig,
    VERDICT_CONVERGES,
    VERDICT_DIVERGES,
    Witness,
    abs_oracle,
    canonicalize,
    class_member,
    combine,
    construct_exact,
    construct_exact_symmetric,
    decide_equivalent,
    decompose,
    equivalent_gaussian,
    gaussian_affine,
    gaussian_symmetric,
    is_scale,
    limit_probe,
    moment,
    mz_check,
    mz_tilde,
    mz_tilde_symmetric,
    named_scheme,
    peano_probe,
    riemann,
    scale,
    scheme_from_json,
    scheme_to_json_dict,
    sgnsq_oracle,
    subgroup_monomial_oracle,
    symmetric_riemann,
    verify_quantum_ggr,
    verify_witness,
)
from grdcalc.cli import main

D31 = construct_exact([-1, 0, 1, 2], 3)

PROBE_TIME_BUDGET = 0.1  # seconds per probe run
SEARCH_TIME_BUDGET = 1.0  # seconds per equispaced search


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:2d}: {description}")
        raise
    print(f"[PASS] criterion {num:2d}: {description}")


def random_fraction(rng, span=30, max_denominator=12):
    return Fraction(rng.randint(-span, span), rng.randint(1, max_denominator))


def random_distinct_nodes(rng, count):
    nodes = set()
    while len(nodes) < count:
        nodes.add(random_fraction(rng))
    return sorted(nodes)


def timed_probe(*args, **kwargs):
    start = time.perf_counter()
    report = limit_probe(*args, **kwargs)
    elapsed = time.perf_counter() - start
    assert elapsed < PROBE_TIME_BUDGET, f"probe took {elapsed:.3f}s"
    return report


def test_criterion_01_exact_construction_moments():
    with criterion(1, "constructed schemes satisfy the moment conditions exactly"):
        rng = random.Random(0)
        for _ in range(100):
            n = rng.randint(1, 8)
            nodes = random_distinct_nodes(rng, n + 1)
            scheme = construct_exact(nodes, n)
            for j in range(n):
                assert moment(scheme, j) == 0
            assert moment(scheme, n) == factorial(n)


def test_criterion_02_affine_closed_form_grid():
    with criterion(2, "closed formula == scaled member == linear solve on the grid"):
        ratios = [Fraction(2), Fraction(3), Fraction(-2), Fraction(1, 2), Fraction(5, 3)]
        for q in ratios:
            for n in range(1, 7):
                member = named_scheme(gaussian_affine(n, q))
                for k in range(-n, n + 1):
                    closed = affine_closed_form(n, k, q)
                    shifted = scale(member, q ** k)
                    solved = construct_exact([q ** (k + i) for i in range(n + 1)], n)
                    assert closed == shifted == solved


def test_criterion_03_third_order_decomposition_fixtures():
    with criterion(3, "backward-shift decomposition and skew-halved member match"):
        plus, minus = decompose(D31, 3)
        assert plus == canonicalize(
            [(Fraction(-1, 2), -2), (1, -1), (-1, 1), (Fraction(1, 2), 2)]
        )
        assert minus == canonicalize(
            [(Fraction(1, 2), -2), (-2, -1), (3, 0), (-2, 1), (Fraction(1, 2), 2)]
        )
        nabla = class_member(D31, 1, 1, Fraction(1, 2))
        quarter = Fraction(1, 4)
        assert nabla == canonicalize(
            [
                (quarter * 3, 2),
                (quarter * -8, 1),
                (quarter * 6, 0),
                (quarter * -1, -2),
            ]
        )


def test_criterion_04_first_order_witness_pair():
    with criterion(4, "the mixed first-order pair yields witnesses B=5 and B=1/5"):
        a = canonicalize([(-1, 0), (1, 1)])
        b = canonicalize([(2, -1), (-5, 0), (3, 1)])
        forward = decide_equivalent(a, b)
        reverse = decide_equivalent(b, a)
        assert forward.witness == Witness(
            1, Fraction(1), Fraction(1), Fraction(1), Fraction(5)
        )
        assert reverse.witness == Witness(
            1, Fraction(1), Fraction(1), Fraction(1), Fraction(1, 5)
        )


def test_criterion_05_backward_shift_is_mz_but_not_gaussian(capsys):
    with criterion(5, "backward shift: no geometric equivalent, still known MZ"):
        assert equivalent_gaussian(D31) is None
        verdict = mz_check(D31)
        assert verdict.status == "known-mz"
        assert main(["demo", "P88"]) == 0
        capsys.readouterr()


def test_criterion_06_equispaced_searches_fast_and_empty():
    with criterion(6, "equispaced schemes match no geometric member, each under 1s"):
        for n in range(3, 9):
            start = time.perf_counter()
            result = equivalent_gaussian(named_scheme(riemann(n)))
            elapsed = time.perf_counter() - start
            assert result is None
            assert elapsed < SEARCH_TIME_BUDGET, f"order {n} took {elapsed:.3f}s"


def test_criterion_07_dilation_combination_rebuilds_doubling_scheme():
    with criterion(7, "dilated backward shift minus 4x skew-member equals 4x doubling"):
        nabla = class_member(D31, 1, 1, Fraction(1, 2))
        result = combine([(1, 2, D31), (-4, 1, nabla)])
        assert [t.node for t in result] == [0, 1, 2, 4]
        tilde = named_scheme(mz_tilde(3))
        factor = moment(result, 3) / moment(tilde, 3)
        assert moment(result, 3) == 24
        assert factor == 4
        assert result == combine([(factor, 1, tilde)])


def test_criterion_08_shifted_geometric_scale_witnesses():
    with criterion(8, "every shifted geometric member is the exact q**k scale"):
        for q in (Fraction(2), Fraction(3), Fraction(1, 2)):
            for n in range(1, 7):
                for ell in (-n, 0):
                    witnesses = verify_quantum_ggr(n, ell, q)
                    assert witnesses == [
                        (k, q ** k) for k in range(ell, ell + n + 1)
                    ]


def test_criterion_09_probe_suite():
    with criterion(9, "probe verdicts match theory at tolerance 1e-9, <0.1s each"):
        tol = ProbeConfig().tol
        assert tol == Fraction(1, 10 ** 9)

        report = timed_probe(named_scheme(symmetric_riemann(1)), abs_oracle())
        assert report.verdict == VERDICT_CONVERGES and report.estimate == 0

        report = timed_probe(construct_exact([0, 1], 1), abs_oracle())
        assert report.verdict == VERDICT_DIVERGES

        report = timed_probe(construct_exact_symmetric([1], True, 2), sgnsq_oracle())
        assert report.verdict == VERDICT_CONVERGES and report.estimate == 0

        start = time.perf_counter()
        stages = peano_probe(sgnsq_oracle(), 0, 4)
        elapsed = time.perf_counter() - start
        assert elapsed < PROBE_TIME_BUDGET * len(stages)
        assert [order for order, _ in stages] == [1, 2]
        assert stages[0][1].verdict == VERDICT_CONVERGES
        assert abs(stages[0][1].estimate) <= tol
        assert stages[1][1].verdict == VERDICT_DIVERGES

        start = time.perf_counter()
        stages = peano_probe(subgroup_monomial_oracle(2, [2, 3]), 0, 2)
        elapsed = time.perf_counter() - start
        assert elapsed < PROBE_TIME_BUDGET * len(stages)
        assert stages[1][1].verdict == VERDICT_DIVERGES
        first, second = stages[1][1].evidence
        assert sorted([first.candidate, second.candidate]) == [0, 2]
        assert {first.in_group, second.in_group} == {True, False}


def test_criterion_10_relation_laws_and_fast_paths():
    with criterion(10, "relation laws on 200 triples; fast paths agree on 200 pairs"):
        rng = random.Random(0)

        def nonzero_fraction():
            while True:
                value = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                if value != 0:
                    return value

        for _ in range(200):
            n = rng.randint(1, 4)
            a = construct_exact(random_distinct_nodes(rng, n + 1), n)
            m1 = class_member(a, nonzero_fraction(), nonzero_fraction(), nonzero_fraction())
            m2 = class_member(m1, nonzero_fraction(), nonzero_fraction(), nonzero_fraction())
            assert decide_equivalent(a, a).equivalent  # reflexive
            assert decide_equivalent(a, m1).equivalent  # witnessed
            assert decide_equivalent(m1, a).equivalent  # symmetric
            assert decide_equivalent(a, m2).equivalent  # transitive chain

        for index in range(200):
            n = rng.randint(1, 4)
            if index % 2 == 0:
                nodes = set()
                while len(nodes) < n + 1:
                    nodes.add(Fraction(rng.randint(0, 40), rng.randint(1, 8)))
                a = construct_exact(sorted(nodes), n)
                assert all(t.node >= 0 for t in a)
                expected_path = PATH_FAST_NONNEG
            else:
                magnitudes = set()
                while len(magnitudes) < n + 1:
                    magnitudes.add(Fraction(rng.randint(1, 40), rng.randint(1, 8)))
                signed = [m * rng.choice([1, -1]) for m in sorted(magnitudes)]
                a = construct_exact(signed, n)
                expected_path = PATH_FAST_DISTINCT
            if rng.random() < 0.7:
                b = scale(a, nonzero_fraction())
            else:
                b = construct_exact(random_distinct_nodes(rng, n + 1), n)
            fast = decide_equivalent(a, b)
            slow = decide_equivalent(a, b, use_fast_paths=False)
            assert fast.equivalent == slow.equivalent
            if fast.equivalent:
                assert fast.path in (expected_path, PATH_FAST_NONNEG, PATH_FAST_DISTINCT)
                assert verify_witness(a, b, fast.witness)
                assert verify_witness(a, b, slow.witness)
            else:
                assert fast.reason == slow.reason

        symmetric_members = []
        for n in range(1, 7):
            members = [named_scheme(symmetric_riemann(n))]
            for q in (Fraction(2), Fraction(3), Fraction(1, 2)):
                members.append(named_scheme(gaussian_symmetric(n, q)))
            if n >= 2:
                members.append(named_scheme(mz_tilde_symmetric(n)))
            members.append(scale(members[0], Fraction(3, 2)))
            symmetric_members.append(members)
        for members in symmetric_members:
            for a in members:
                for b in members:
                    verdict = decide_equivalent(a, b)
                    assert verdict.equivalent == (is_scale(a, b) is not None)
        # across orders nothing is equivalent or a scale
        for low in symmetric_members[1]:
            for high in symmetric_members[3]:
                assert not decide_equivalent(low, high).equivalent
                assert is_scale(low, high) is None


def test_acceptance_round_trip_smoke():
    # JSON serialization must shuttle every acceptance fixture losslessly
    for scheme in (D31, named_scheme(mz_tilde(3)), scale(D31, Fraction(-2, 3))):
        assert scheme_from_json(scheme_to_json_dict(scheme)) == scheme
