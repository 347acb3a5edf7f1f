"""Independent reference for the scheme constructors: exact elimination.

``solve_exact`` is the Gaussian elimination over ``Fraction`` that
``construct_exact`` and ``construct_exact_symmetric`` once ran on the
Vandermonde moment system, kept unchanged so the closed-form constructors
can be compared against it, result for result and error type for error
type.
"""

from fractions import Fraction
from math import factorial
from typing import Sequence

from grdcalc import (
    CalculusError,
    DuplicateNodes,
    InconsistentSystem,
    InvalidOrder,
    Scheme,
    UnderdeterminedSystem,
    WrongNodeCount,
    ZeroNodeParityError,
    canonicalize,
    parse_rational,
)
from grdcalc.scheme import Rationalish


def solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve a (possibly overdetermined) exact linear system by elimination.

    Uses partial pivoting by magnitude; raises UnderdeterminedSystem when a
    column has no pivot and InconsistentSystem when a zero row meets a
    nonzero right-hand side.
    """
    n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots: list[tuple[int, int]] = []
    rank = 0
    for col in range(n_cols):
        best = None
        for i in range(rank, n_rows):
            if aug[i][col] != 0 and (best is None or abs(aug[i][col]) > abs(aug[best][col])):
                best = i
        if best is None:
            raise UnderdeterminedSystem(f"no pivot for unknown {col}")
        aug[rank], aug[best] = aug[best], aug[rank]
        pivot = aug[rank][col]
        for i in range(n_rows):
            if i != rank and aug[i][col] != 0:
                factor = aug[i][col] / pivot
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[rank])]
        pivots.append((rank, col))
        rank += 1
        if rank == n_rows:
            if col + 1 < n_cols:
                raise UnderdeterminedSystem("more unknowns than conditions")
            break
    for i in range(rank, n_rows):
        if aug[i][n_cols] != 0:
            raise InconsistentSystem("conditions cannot all hold")
    solution = [Fraction(0)] * n_cols
    for row, col in pivots:
        solution[col] = aug[row][n_cols] / aug[row][col]
    return solution


def reference_construct_exact(nodes: Sequence[Rationalish], n: int) -> Scheme:
    """The unique normalized scheme of order ``n`` on ``n+1`` distinct nodes.

    Solves the moment conditions ``m_j = 0`` for ``j < n`` and ``m_n = n!``
    by exact elimination on the node Vandermonde system.
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidOrder(f"order must be a positive integer, got {n!r}")
    points = [parse_rational(b) for b in nodes]
    if len(points) != n + 1:
        raise WrongNodeCount(f"order {n} needs exactly {n + 1} nodes, got {len(points)}")
    if len(set(points)) != len(points):
        raise DuplicateNodes("nodes must be distinct")
    rows = [[b ** j for b in points] for j in range(n + 1)]
    rhs = [Fraction(0)] * n + [Fraction(factorial(n))]
    coeffs = solve_exact(rows, rhs)
    return canonicalize(zip(coeffs, points))


def reference_construct_exact_symmetric(
    node_pairs: Sequence[Rationalish], include_zero: bool, n: int
) -> Scheme:
    """The normalized order-``n`` scheme on nodes ``{+-p}`` (and optionally 0)
    whose reflection satisfies ``S(-h) = (-1)**n * S(h)``.

    The symmetry fixes the coefficient at ``-p`` to ``(-1)**n`` times the one
    at ``p`` and makes every moment of parity opposite to ``n`` vanish, so the
    unknowns are one coefficient per pair (plus the zero-node coefficient for
    even ``n``) and the conditions are the moments ``j = n, n-2, ...``.
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidOrder(f"order must be a positive integer, got {n!r}")
    pairs = [parse_rational(p) for p in node_pairs]
    if any(p <= 0 for p in pairs):
        raise CalculusError("node pairs must be positive")
    if len(set(pairs)) != len(pairs):
        raise DuplicateNodes("node pairs must be distinct")
    if include_zero and n % 2 == 1:
        raise ZeroNodeParityError("a zero node forces a zero coefficient at odd order")
    sign = Fraction(-1) ** n
    exponents = list(range(n % 2, n + 1, 2))
    n_unknowns = len(pairs) + (1 if include_zero else 0)
    if n_unknowns > len(exponents):
        raise UnderdeterminedSystem(
            f"{n_unknowns} unknowns but only {len(exponents)} parity-matching conditions"
        )
    rows = []
    for j in exponents:
        row = [2 * p ** j for p in pairs]
        if include_zero:
            row.append(Fraction(1 if j == 0 else 0))
        rows.append(row)
    rhs = [Fraction(factorial(n)) if j == n else Fraction(0) for j in exponents]
    solution = solve_exact(rows, rhs)
    terms = []
    for coeff, p in zip(solution, pairs):
        terms.append((coeff, p))
        terms.append((sign * coeff, -p))
    if include_zero:
        terms.append((solution[-1], Fraction(0)))
    return canonicalize(terms)
