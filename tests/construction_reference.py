"""Independent reference for the geometric family members: the q-binomial formula.

``affine_closed_form`` builds the geometric-node member on ``q**k .. q**(k+n)``
from its product formula, with no linear solve and no Lagrange weights.  The
library builds every member by :func:`grdcalc.construct_exact` and checks the
build by its defining moments; this formula is a second route to the affine
members, so tests can compare the two member for member.

``qbinom_recurrence`` is the Pascal-style recurrence ``families.qbinom``
once ran, kept as the reference for its closed forms.
"""

from fractions import Fraction
from math import factorial

from grdcalc import Scheme, canonicalize, qbinom


def affine_closed_form(n: int, k: int, q: Fraction) -> Scheme:
    """Geometric-node scheme on ``q**k .. q**(k+n)`` by its closed formula.

    The coefficient at node ``q**(n+k-i)`` is
    ``q**(-n*k) * lam * (-1)**i * q**(i*(i-1)/2) * [n,i]_q`` with
    ``lam = n! / prod_{j<n} (q**n - q**j)``.
    """
    lam = Fraction(factorial(n))
    for j in range(n):
        lam /= q ** n - q ** j
    front = lam * q ** (-n * k)
    pairs = []
    for i in range(n + 1):
        coeff = front * Fraction(-1) ** i * q ** (i * (i - 1) // 2) * qbinom(n, i, q)
        pairs.append((coeff, q ** (n + k - i)))
    return canonicalize(pairs)


def qbinom_recurrence(n: int, i: int, q: Fraction) -> Fraction:
    """``[n, i]`` at ``q`` by ``[m,j] = [m-1,j-1] + q**j * [m-1,j]``, on integers.

    The recurrence is polynomial in ``q``, so it also holds at ``q = +-1``;
    it runs up to column ``min(i, n-i)``.
    """
    i = min(i, n - i)
    a, b = q.numerator, q.denominator
    row = [1]  # P[m,j] = [m,j] * b**(j*(m-j)) = P[m-1,j-1] * b**(m-j) + a**j * P[m-1,j]
    for m in range(1, n + 1):
        inner = [row[j - 1] * b ** (m - j) + a ** j * row[j] for j in range(1, min(m, i + 1))]
        row = [1] + inner + [1] * (m <= i)
    return Fraction(row[i], b ** (i * (n - i)))
