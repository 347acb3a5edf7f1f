"""Independent reference for the geometric family members: the q-binomial formula.

``affine_closed_form`` builds the geometric-node member on ``q**k .. q**(k+n)``
from its product formula, with no linear solve and no Lagrange weights.  The
library builds every member by :func:`grdcalc.construct_exact` and checks the
build by its defining moments; this formula is a second route to the affine
members, so tests can compare the two member for member.
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
