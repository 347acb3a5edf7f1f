"""Independent reference for the symmetric/skew split: the two-scheme form.

``reference_decompose`` is the body ``decompose`` once had, kept unchanged:
it reflects the scheme and canonicalizes each half-sum separately, so the
single-pass ``decompose`` can be compared against it part for part.  It
reflects and canonicalizes with the reference copies in ``scheme_reference``,
so it shares no scheme-building code with the package.
"""

from fractions import Fraction
from typing import Optional

from grdcalc import InvalidOrder, Scheme, order_info
from scheme_reference import reference_canonicalize as canonicalize
from scheme_reference import reference_reflect as reflect


def reference_decompose(scheme: Scheme, n: Optional[int] = None) -> tuple[Scheme, Scheme]:
    if n is None:
        n = order_info(scheme).order
    if not isinstance(n, int) or n < 1:
        raise InvalidOrder(f"order must be a positive integer, got {n!r}")
    sign = Fraction(-1) ** n
    half = Fraction(1, 2)
    mirrored = reflect(scheme)
    plus = canonicalize(
        [(half * t.coeff, t.node) for t in scheme]
        + [(half * sign * t.coeff, t.node) for t in mirrored]
    )
    minus = canonicalize(
        [(half * t.coeff, t.node) for t in scheme]
        + [(-half * sign * t.coeff, t.node) for t in mirrored]
    )
    return plus, minus
