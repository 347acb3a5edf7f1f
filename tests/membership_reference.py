"""Independent references for subgroup membership.

``reference_membership`` is the membership test that ``grdcalc.probes`` once
ran: it factors the sample point and every generator by trial division up
to 10**6 and asks the integer lattice question on the full prime-exponent
vectors.  It is kept unchanged (only its result cache is dropped) so the
coprime-base membership test can be compared against it wherever it
answers; on a number it cannot factor it raises
``FactorizationBoundExceeded``.

``reference_coprime_membership`` is the coprime-base test that followed it:
a reduced pair is divided by the base elements (``_reduced_over_base``, the
library's former ``_over_base``, renamed only) and every call eliminates
the generator columns afresh with ``_lattice_member``, which is the
library's former ``_lattice_member`` as well.  Its ``_xgcd`` is the
library's former extended Euclid; the library now takes each Bezout pair
from ``pow(a, -1, m)``, so this file keeps the reference to compare with.
"""

from fractions import Fraction
from typing import Optional, Sequence

from grdcalc.probes import _coprime_base

_TRIAL_DIVISION_BOUND = 10 ** 6


class FactorizationBoundExceeded(Exception):
    """The reference cannot factor a number by trial division up to its bound."""


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


def _lattice_member(columns: list[list[int]], target: list[int]) -> bool:
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


def reference_membership(x: Fraction, generators: tuple[Fraction, ...]) -> bool:
    sign_x, exps_x = _factor_rational(x)
    factored = [_factor_rational(g) for g in generators]
    primes = sorted(set(exps_x) | {p for _, e in factored for p in e})
    columns = [[sign] + [exps.get(p, 0) for p in primes] for sign, exps in factored]
    columns.append([2] + [0] * len(primes))  # sign flips only matter mod 2
    target = [sign_x] + [exps_x.get(p, 0) for p in primes]
    return _lattice_member(columns, target)


def _reduced_over_base(num: int, den: int, base: Sequence[int]) -> Optional[list[int]]:
    """Sign bit and exponents of ``num/den != 0`` (``den > 0``, reduced) over a
    coprime base; None if a factor is left over."""
    vector = [1 if num < 0 else 0]
    num = abs(num)
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


def reference_coprime_membership(x: Fraction, generators: tuple[Fraction, ...]) -> bool:
    base = _coprime_base([v for g in generators for v in (abs(g.numerator), g.denominator)])
    columns = [_reduced_over_base(g.numerator, g.denominator, base) for g in generators]
    columns.append([2] + [0] * len(base))
    target = _reduced_over_base(x.numerator, x.denominator, base)
    return target is not None and _lattice_member(columns, target)
