"""Independent reference for limit probes: steps, tail tests and membership on Fractions.

``reference_limit_probe`` is the ``limit_probe`` that ``grdcalc.probes`` once
ran: each step is ``sign * h0 * ratio**j`` computed afresh, the tail test
``_fraction_close`` subtracts and compares Fractions, and the in-group flags
ask ``_fraction_membership`` of a Fraction over a lattice that
``_fraction_generator_lattice`` builds from Fractions, eliminating the
generator columns on every call with the former ``_lattice_member`` that
``membership_reference`` keeps.  They are kept as they were, renamed only,
so the integer versions can be compared with them exactly.  The quotients come from the library's kernel, which
``test_quotient_kernel_matches_fraction_reference`` pins to plain Fraction
sums; each is read back as a Fraction, one step at a time, and each
``ProbeSequence`` is built from these Fraction samples, so comparing a
report with the library's compares every sample.  The ratios a subgroup
oracle adds come from ``_added_subgroup_ratios``, a copy of the rule that
does not call the library's.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Optional, Sequence

from grdcalc import ProbeConfig, ProbeReport, ProbeSequence, order_info, parse_rational
from grdcalc.probes import (
    ORACLE_SUBGROUP_MONOMIAL,
    VERDICT_CONVERGES,
    VERDICT_DIVERGES,
    VERDICT_INCONCLUSIVE,
    _TAIL_LENGTH,
    _coprime_base,
    _quotient_kernel,
)
from membership_reference import _lattice_member


def _fraction_over_base(x: Fraction, base: Sequence[int]) -> Optional[list[int]]:
    """Sign bit and exponents of ``x != 0`` over a coprime base; None if a factor is left over."""
    num, den = abs(x.numerator), x.denominator
    vector = [1 if x < 0 else 0]
    for b in base:
        exp = 0
        while num % b == 0:
            num //= b
            exp += 1
        while den % b == 0:
            den //= b
            exp -= 1
        vector.append(exp)
    return vector if num == den == 1 else None


def _fraction_generator_lattice(generators):
    """A coprime base of the generators and their sign/exponent columns over it."""
    base = _coprime_base([v for g in generators for v in (abs(g.numerator), g.denominator)])
    columns = tuple(tuple(_fraction_over_base(g, base)) for g in generators)
    return base, columns + ((2,) + (0,) * len(base),)


def _fraction_membership(x: Fraction, lattice) -> bool:
    base, columns = lattice
    target = _fraction_over_base(x, base)
    return target is not None and _lattice_member(columns, target)


def _added_subgroup_ratios(generators) -> list[Fraction]:
    """The step ratios a probe adds for a subgroup oracle, by the rule it once kept apart:
    the first generator of magnitude != 1 (squared when negative, inverted if above 1),
    then 1/p for the least p > 1 that shares no factor with any generator."""
    added = []
    g = next((g for g in generators if abs(g) != 1), None)
    if g is not None:
        power = g if g > 0 else g * g
        added.append(power if power < 1 else 1 / power)
    p = 2
    while any(gcd(p, g.numerator * g.denominator) > 1 for g in generators):
        p += 1
    return added + [Fraction(1, p)]


def _fraction_close(u: Fraction, v: Fraction, tol: Fraction) -> bool:
    return abs(u - v) <= tol * max(Fraction(1), abs(u), abs(v))


def reference_limit_probe(scheme, oracle, x=0, config=None) -> ProbeReport:
    cfg = config or ProbeConfig()
    x = parse_rational(x)
    ratios = list(cfg.ratios)
    if oracle.kind == ORACLE_SUBGROUP_MONOMIAL:
        lattice = _fraction_generator_lattice(oracle.generators)
        for ratio in _added_subgroup_ratios(oracle.generators):
            if ratio not in ratios:
                ratios.append(ratio)
    effective = ProbeConfig(cfg.h0, tuple(ratios), cfg.j_min, cfg.j_max, cfg.tol)
    quotient = _quotient_kernel(scheme, order_info(scheme).order, oracle, x)
    sequences = []
    for ratio in ratios:
        for sign in (1, -1):
            samples = []
            for j in range(cfg.j_min, cfg.j_max + 1):
                h = sign * cfg.h0 * ratio ** j
                samples.append((h, Fraction(*quotient([h])[0])))
            in_group: Optional[bool] = None
            if oracle.kind == ORACLE_SUBGROUP_MONOMIAL:
                flags = [_fraction_membership(h, lattice) for h, _ in samples]
                in_group = all(flags) if all(flags) or not any(flags) else None
            tail = [v for _, v in samples[-_TAIL_LENGTH:]]
            settled = len(tail) >= _TAIL_LENGTH and all(
                _fraction_close(u, v, cfg.tol) for u, v in combinations(tail, 2)
            )
            candidate = tail[-1] if settled else None
            sequences.append(
                ProbeSequence(
                    ratio,
                    sign,
                    tuple(h for h, _ in samples),
                    tuple((v.numerator, v.denominator) for _, v in samples),
                    settled,
                    candidate,
                    in_group,
                )
            )
    settled_seqs = [s for s in sequences if s.settled]
    verdict, estimate, evidence = VERDICT_INCONCLUSIVE, None, ()
    pairs = combinations(settled_seqs, 2)
    separated = next(
        ((u, v) for u, v in pairs if not _fraction_close(u.candidate, v.candidate, 10 * cfg.tol)),
        None,
    )
    if separated is not None:
        verdict, evidence = VERDICT_DIVERGES, separated
    elif len(settled_seqs) == len(sequences):
        candidates = [s.candidate for s in settled_seqs]
        if all(_fraction_close(u, v, cfg.tol) for u, v in combinations(candidates, 2)):
            verdict = VERDICT_CONVERGES
            estimate = candidates[0]
    return ProbeReport(verdict, estimate, tuple(sequences), evidence, effective)
