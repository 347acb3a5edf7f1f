"""Numeric limit probes on exactly evaluable test functions.

The probe machinery samples difference quotients ``S(h)/h**n`` along
geometric step sequences ``h_j = sign * h0 * rho**j`` and classifies the
tails: one shared limit (converges), settled subsequences with separated
limits (diverges), or neither (inconclusive).  Every sample is an exact
rational because the test functions here are exactly evaluable on
rationals; the verdicts are still evidence, not proof, and the reports say
so.  The subgroup-supported monomials need exact membership in a finitely
generated multiplicative subgroup of the nonzero rationals.  Only the
generators are factored: their primes are divided out of the sample point,
any other prime left over rules it out, and the exponent vector over the
generators' primes is decided by integer lattice elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Optional, Sequence

from .families import mz_tilde, named_scheme
from .scheme import (
    CalculusError,
    Rationalish,
    Scheme,
    format_rational,
    order_info,
    parse_rational,
)

ORACLE_ABS = "abs"
ORACLE_SGNSQ = "sgnsq"
ORACLE_MONOMIAL = "mono"
ORACLE_POLYNOMIAL = "poly"
ORACLE_SUBGROUP_MONOMIAL = "subgmono"


class ZeroInput(CalculusError):
    """Subgroup membership is defined on nonzero rationals."""


class ZeroStep(CalculusError):
    """Difference quotients need a nonzero step."""


class FactorizationBoundExceeded(CalculusError):
    """A generator's prime factorization could not be completed below the bound."""


_TRIAL_DIVISION_BOUND = 10 ** 6


def _factor_positive(value: int) -> dict[int, int]:
    """Prime exponents of a positive integer by trial division.

    Primes are removed up to the bound; a leftover is accepted only when
    the scan already proves it prime (no divisor up to its square root).
    """
    exponents: dict[int, int] = {}
    remaining = value
    p = 2
    while p <= _TRIAL_DIVISION_BOUND and p * p <= remaining:
        while remaining % p == 0:
            exponents[p] = exponents.get(p, 0) + 1
            remaining //= p
        p += 1 if p == 2 else 2
    if remaining > 1:
        if p * p > remaining:
            exponents[remaining] = exponents.get(remaining, 0) + 1
        else:
            raise FactorizationBoundExceeded(
                f"cannot factor {value} by trial division up to {_TRIAL_DIVISION_BOUND}"
            )
    return exponents


def _factor_rational(value: Fraction) -> tuple[int, dict[int, int]]:
    """Sign bit and prime-exponent vector of a nonzero rational."""
    sign = 1 if value < 0 else 0
    exponents = _factor_positive(abs(value.numerator))
    for prime, exp in _factor_positive(value.denominator).items():
        exponents[prime] = exponents.get(prime, 0) - exp
    return sign, {p: e for p, e in exponents.items() if e != 0}


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with a*x + b*y = g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_x, x = x, old_x - quotient * x
        old_y, y = y, old_y - quotient * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _lattice_member(columns: Sequence[Sequence[int]], target: list[int]) -> bool:
    """Whether ``target`` lies in the integer column span of ``columns``.

    Row-by-row integer elimination: each processed row is reduced to one
    pivot column by gcd column operations (which preserve the lattice), the
    target is reduced against the pivot when divisible, and a row with no
    pivot admits no correction.
    """
    cols = [list(c) for c in columns]
    vec = list(target)
    used = 0
    for row in range(len(vec)):
        pivot = None
        for j in range(used, len(cols)):
            if cols[j][row] != 0:
                if pivot is None:
                    pivot = j
                else:
                    a, b = cols[pivot][row], cols[j][row]
                    g, x, y = _xgcd(a, b)
                    combo = [x * u + y * v for u, v in zip(cols[pivot], cols[j])]
                    kernel = [
                        -(b // g) * u + (a // g) * v
                        for u, v in zip(cols[pivot], cols[j])
                    ]
                    cols[pivot], cols[j] = combo, kernel
        if pivot is None:
            if vec[row] != 0:
                return False
            continue
        if vec[row] % cols[pivot][row] != 0:
            return False
        times = vec[row] // cols[pivot][row]
        vec = [v - times * u for v, u in zip(vec, cols[pivot])]
        cols[used], cols[pivot] = cols[pivot], cols[used]
        used += 1
    return all(v == 0 for v in vec)


@lru_cache(maxsize=256)
def _generator_lattice(
    generators: tuple[Fraction, ...]
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Sorted primes of the generators and their sign/exponent columns.

    The last column is the doubled sign coordinate: sign flips only matter
    mod 2.  An unfactorable generator raises ``FactorizationBoundExceeded``.
    """
    factored = [_factor_rational(g) for g in generators]
    primes = tuple(sorted({p for _, e in factored for p in e}))
    columns = tuple(
        (sign, *(exps.get(p, 0) for p in primes)) for sign, exps in factored
    )
    return primes, columns + ((2,) + (0,) * len(primes),)


# Not cached: sample points are fresh rationals, so a cache would only grow.
# The zero-size lru_cache keeps ``cache_info()`` (misses count the calls) for
# the membership counters of perfbench.
@lru_cache(maxsize=0)
def _membership(x: Fraction, generators: tuple[Fraction, ...]) -> bool:
    primes, columns = _generator_lattice(generators)
    num, den = abs(x.numerator), x.denominator
    target = [1 if x < 0 else 0]
    for p in primes:
        exp = 0
        while num % p == 0:
            num //= p
            exp += 1
        while den % p == 0:
            den //= p
            exp -= 1
        target.append(exp)
    if num != 1 or den != 1:
        return False
    return _lattice_member(columns, target)


def subgroup_membership(x: Rationalish, generators: Sequence[Rationalish]) -> bool:
    """Exact membership of ``x`` in the multiplicative group the generators span.

    Only the generators are factored.  Their primes are divided out of the
    numerator and denominator of ``x``; anything left over means ``x`` is
    not a member.  Otherwise membership is an integer lattice question on
    the exponents over those primes, with the sign over Z/2 encoded as an
    extra doubled coordinate.  A generator that cannot be factored below
    the trial-division bound raises ``FactorizationBoundExceeded``.
    """
    x = parse_rational(x)
    gens = tuple(parse_rational(g) for g in generators)
    if x == 0 or any(g == 0 for g in gens):
        raise ZeroInput("subgroup membership is defined on nonzero rationals")
    return _membership(x, gens)


@dataclass(frozen=True)
class FunctionOracle:
    """An exactly evaluable test function.

    Kinds: ``abs`` (|x|), ``sgnsq`` (x*|x|), ``mono`` (x**degree), ``poly``
    (rational coefficients, ascending powers), and ``subgmono`` (x**degree
    on a multiplicative subgroup, zero off it).
    """

    kind: str
    degree: int = 0
    coeffs: tuple[Fraction, ...] = ()
    generators: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (
            ORACLE_ABS,
            ORACLE_SGNSQ,
            ORACLE_MONOMIAL,
            ORACLE_POLYNOMIAL,
            ORACLE_SUBGROUP_MONOMIAL,
        ):
            raise CalculusError(f"unknown oracle kind {self.kind!r}")
        object.__setattr__(self, "coeffs", tuple(parse_rational(c) for c in self.coeffs))
        object.__setattr__(
            self, "generators", tuple(parse_rational(g) for g in self.generators)
        )
        if self.degree < 0:
            raise CalculusError("monomial degree must be >= 0")
        if self.kind == ORACLE_SUBGROUP_MONOMIAL:
            if not self.generators:
                raise CalculusError("subgroup monomials need generators")
            if any(g == 0 for g in self.generators):
                raise ZeroInput("subgroup generators must be nonzero")

    def evaluate(self, x: Rationalish) -> Fraction:
        x = parse_rational(x)
        if self.kind == ORACLE_ABS:
            return abs(x)
        if self.kind == ORACLE_SGNSQ:
            return x * abs(x)
        if self.kind == ORACLE_MONOMIAL:
            return x ** self.degree
        if self.kind == ORACLE_POLYNOMIAL:
            return sum(
                (c * x ** i for i, c in enumerate(self.coeffs)), Fraction(0)
            )
        if x == 0:
            return Fraction(0)
        if _membership(x, self.generators):
            return x ** self.degree
        return Fraction(0)


def abs_oracle() -> FunctionOracle:
    return FunctionOracle(ORACLE_ABS)


def sgnsq_oracle() -> FunctionOracle:
    return FunctionOracle(ORACLE_SGNSQ)


def monomial_oracle(degree: int) -> FunctionOracle:
    return FunctionOracle(ORACLE_MONOMIAL, degree=degree)


def polynomial_oracle(coeffs: Sequence[Rationalish]) -> FunctionOracle:
    return FunctionOracle(ORACLE_POLYNOMIAL, coeffs=tuple(coeffs))


def subgroup_monomial_oracle(
    degree: int, generators: Sequence[Rationalish]
) -> FunctionOracle:
    return FunctionOracle(
        ORACLE_SUBGROUP_MONOMIAL, degree=degree, generators=tuple(generators)
    )


def parse_oracle(text: str) -> FunctionOracle:
    """Parse oracle strings: ``abs``, ``sgnsq``, ``mono:k=3``, ``poly:1,0,-2``,
    ``subgmono:k=2;gens=2,3``."""
    head, _, tail = text.strip().partition(":")
    if head == ORACLE_ABS:
        return abs_oracle()
    if head == ORACLE_SGNSQ:
        return sgnsq_oracle()
    if head == ORACLE_MONOMIAL:
        key, eq, value = tail.partition("=")
        if key.strip() != "k" or not eq:
            raise CalculusError("monomial oracles look like mono:k=<degree>")
        try:
            return monomial_oracle(int(value))
        except ValueError as exc:
            raise CalculusError("monomial degree must be an integer") from exc
    if head == ORACLE_POLYNOMIAL:
        if not tail:
            raise CalculusError("polynomial oracles look like poly:c0,c1,...")
        return polynomial_oracle([parse_rational(c) for c in tail.split(",")])
    if head == ORACLE_SUBGROUP_MONOMIAL:
        degree: Optional[int] = None
        gens: Optional[list[Fraction]] = None
        for piece in tail.split(";"):
            key, eq, value = piece.partition("=")
            if key.strip() == "k" and eq:
                try:
                    degree = int(value)
                except ValueError as exc:
                    raise CalculusError("subgroup degree must be an integer") from exc
            elif key.strip() == "gens" and eq:
                gens = [parse_rational(g) for g in value.split(",")]
            else:
                raise CalculusError(f"bad subgroup oracle field {piece!r}")
        if degree is None or gens is None:
            raise CalculusError("subgroup oracles look like subgmono:k=2;gens=2,3")
        return subgroup_monomial_oracle(degree, gens)
    raise CalculusError(f"unknown oracle {text!r}")


def format_oracle(oracle: FunctionOracle) -> str:
    if oracle.kind == ORACLE_MONOMIAL:
        return f"mono:k={oracle.degree}"
    if oracle.kind == ORACLE_POLYNOMIAL:
        return "poly:" + ",".join(format_rational(c) for c in oracle.coeffs)
    if oracle.kind == ORACLE_SUBGROUP_MONOMIAL:
        gens = ",".join(format_rational(g) for g in oracle.generators)
        return f"subgmono:k={oracle.degree};gens={gens}"
    return oracle.kind


def eval_quotient(
    scheme: Scheme, oracle: FunctionOracle, x: Rationalish, h: Rationalish
) -> Fraction:
    """The exact difference quotient ``S(h,x;f) / h**n`` at the detected order."""
    x, h = parse_rational(x), parse_rational(h)
    if h == 0:
        raise ZeroStep("the step h must be nonzero")
    return _quotient(scheme, order_info(scheme).order, oracle, x, h)


def _quotient(
    scheme: Scheme, n: int, oracle: FunctionOracle, x: Fraction, h: Fraction
) -> Fraction:
    """``S(h,x;f) / h**n`` for a parsed nonzero step and the scheme's order ``n``."""
    total = sum(
        (t.coeff * oracle.evaluate(x + t.node * h) for t in scheme), Fraction(0)
    )
    return total / h ** n


@dataclass(frozen=True)
class ProbeConfig:
    """Step-sequence layout and tolerance for limit probes."""

    h0: Fraction = Fraction(1)
    ratios: tuple[Fraction, ...] = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    j_min: int = 4
    j_max: int = 40
    tol: Fraction = Fraction(1, 10 ** 9)

    def __post_init__(self) -> None:
        object.__setattr__(self, "h0", parse_rational(self.h0))
        object.__setattr__(
            self, "ratios", tuple(parse_rational(r) for r in self.ratios)
        )
        object.__setattr__(self, "tol", parse_rational(self.tol))
        if self.h0 == 0:
            raise ZeroStep("h0 must be nonzero")
        if not self.ratios or any(not 0 < abs(r) < 1 for r in self.ratios):
            raise CalculusError("ratios must satisfy 0 < |rho| < 1")
        if not (0 <= self.j_min < self.j_max):
            raise CalculusError("need 0 <= j_min < j_max")
        if self.tol <= 0:
            raise CalculusError("tolerance must be positive")

    def to_json_dict(self) -> dict:
        return {
            "h0": format_rational(self.h0),
            "ratios": [format_rational(r) for r in self.ratios],
            "j_min": self.j_min,
            "j_max": self.j_max,
            "tol": format_rational(self.tol),
        }


@dataclass(frozen=True)
class ProbeSequence:
    """Samples along one geometric step sequence and its settled tail value."""

    ratio: Fraction
    sign: int
    samples: tuple[tuple[Fraction, Fraction], ...]
    settled: bool
    candidate: Optional[Fraction]
    in_group: Optional[bool] = None

    def to_json_dict(self) -> dict:
        return {
            "ratio": format_rational(self.ratio),
            "sign": self.sign,
            "settled": self.settled,
            "candidate": format_rational(self.candidate) if self.settled else None,
            "in_group": self.in_group,
            "samples": [
                {"h": format_rational(h), "value": format_rational(v)}
                for h, v in self.samples
            ],
        }


VERDICT_CONVERGES = "converges"
VERDICT_DIVERGES = "diverges"
VERDICT_INCONCLUSIVE = "inconclusive"

_TAIL_LENGTH = 5


@dataclass(frozen=True)
class ProbeReport:
    """Probe verdict with full samples; numeric evidence, not proof."""

    verdict: str
    estimate: Optional[Fraction]
    sequences: tuple[ProbeSequence, ...]
    evidence: tuple[ProbeSequence, ...]
    config: ProbeConfig
    numeric_evidence: bool = True

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "estimate": format_rational(self.estimate) if self.estimate is not None else None,
            "numeric_evidence": self.numeric_evidence,
            "config": self.config.to_json_dict(),
            "evidence": [s.to_json_dict() for s in self.evidence],
            "sequences": [s.to_json_dict() for s in self.sequences],
        }


def _close(u: Fraction, v: Fraction, tol: Fraction) -> bool:
    return abs(u - v) <= tol * max(Fraction(1), abs(u), abs(v))


def _auto_subgroup_ratios(oracle: FunctionOracle) -> list[Fraction]:
    """One step ratio inside the oracle's subgroup and one outside it.

    The in-group ratio comes from the first generator of magnitude != 1
    (its reciprocal, or its square when the sign blocks the reciprocal);
    the out-group ratio is 1/p for the smallest prime untouched by the
    generators' factorizations.
    """
    extra: list[Fraction] = []
    for g in oracle.generators:
        if abs(g) == 1:
            continue
        if g > 1:
            extra.append(1 / g)
        elif 0 < g < 1:
            extra.append(g)
        else:
            square = g * g
            extra.append(1 / square if square > 1 else square)
        break
    used_primes = _generator_lattice(oracle.generators)[0]
    p = 2
    while p in used_primes or any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        p += 1
    extra.append(Fraction(1, p))
    return extra


def limit_probe(
    scheme: Scheme,
    oracle: FunctionOracle,
    x: Rationalish = 0,
    config: Optional[ProbeConfig] = None,
) -> ProbeReport:
    """Sample ``S(h,x;f)/h**n`` along geometric sequences and classify the tails.

    Each configured ratio is run with both signs of ``h0``.  For subgroup
    oracles one in-group and one out-of-group ratio are added
    automatically.  A sequence is settled when its last five samples agree
    within the relative tolerance; the probe converges when every settled
    candidate agrees, and diverges when two settled candidates sit further
    than ten tolerances apart.
    """
    cfg = config or ProbeConfig()
    x = parse_rational(x)
    ratios = list(cfg.ratios)
    if oracle.kind == ORACLE_SUBGROUP_MONOMIAL:
        for ratio in _auto_subgroup_ratios(oracle):
            if ratio not in ratios:
                ratios.append(ratio)
    effective = replace(cfg, ratios=tuple(ratios))
    n = order_info(scheme).order
    sequences = []
    for ratio in ratios:
        for sign in (1, -1):
            samples = []
            for j in range(cfg.j_min, cfg.j_max + 1):
                h = sign * cfg.h0 * ratio ** j
                samples.append((h, _quotient(scheme, n, oracle, x, h)))
            in_group: Optional[bool] = None
            if oracle.kind == ORACLE_SUBGROUP_MONOMIAL:
                flags = [_membership(h, oracle.generators) for h, _ in samples]
                in_group = all(flags) if all(flags) or not any(flags) else None
            tail = [v for _, v in samples[-_TAIL_LENGTH:]]
            settled = all(
                _close(u, v, cfg.tol) for u in tail for v in tail
            ) and len(tail) >= _TAIL_LENGTH
            candidate = tail[-1] if settled else None
            sequences.append(
                ProbeSequence(ratio, sign, tuple(samples), settled, candidate, in_group)
            )
    settled_seqs = [s for s in sequences if s.settled]
    verdict, estimate, evidence = VERDICT_INCONCLUSIVE, None, ()
    for i, first in enumerate(settled_seqs):
        for second in settled_seqs[i + 1 :]:
            gap = abs(first.candidate - second.candidate)
            scale_ref = max(Fraction(1), abs(first.candidate), abs(second.candidate))
            if gap > 10 * cfg.tol * scale_ref:
                verdict, evidence = VERDICT_DIVERGES, (first, second)
                break
        if verdict == VERDICT_DIVERGES:
            break
    if verdict != VERDICT_DIVERGES and len(settled_seqs) == len(sequences):
        candidates = [s.candidate for s in settled_seqs]
        if all(_close(u, v, cfg.tol) for u in candidates for v in candidates):
            verdict = VERDICT_CONVERGES
            estimate = candidates[0]
    return ProbeReport(verdict, estimate, tuple(sequences), evidence, effective)


def peano_probe(
    oracle: FunctionOracle,
    x: Rationalish,
    n: int,
    config: Optional[ProbeConfig] = None,
) -> list[tuple[int, ProbeReport]]:
    """Probe the doubling-node witness quotients for orders 1..n in turn.

    Settled estimates are numeric candidates for the Taylor coefficients;
    the staging stops at the first order whose probe fails to converge.
    """
    if not isinstance(n, int) or n < 1:
        raise CalculusError("the probe depth n must be a positive integer")
    stages = []
    for order in range(1, n + 1):
        report = limit_probe(named_scheme(mz_tilde(order)), oracle, x, config)
        stages.append((order, report))
        if report.verdict != VERDICT_CONVERGES:
            break
    return stages
