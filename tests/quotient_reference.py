"""Independent reference for probe difference quotients: plain ``Fraction`` sums.

``_quotient`` is the quotient ``grdcalc.probes`` once computed term by term:
each argument ``x + b*h`` is a ``Fraction``, the oracle is evaluated through
the public ``FunctionOracle.evaluate``, and the weighted sum is divided by
``h**n``.  It is kept unchanged so the integer kernel can be compared with
it exactly.
"""

from fractions import Fraction

from grdcalc import FunctionOracle, Scheme


def _quotient(
    scheme: Scheme, n: int, oracle: FunctionOracle, x: Fraction, h: Fraction
) -> Fraction:
    """``S(h,x;f) / h**n`` for a parsed nonzero step and the scheme's order ``n``."""
    total = sum(
        (t.coeff * oracle.evaluate(x + t.node * h) for t in scheme), Fraction(0)
    )
    return total / h ** n
