"""Independent reference for reading rationals.

``reference_parse_rational`` is the body ``parse_rational`` once had, with
the two patterns it read by, kept unchanged apart from their names.  It read
every digit string through ``Decimal``, which is exact at any length but
takes time quadratic in the digit count.  ``parse_rational`` now reads the
digits through ``_read_int``, which splits a long digit string in halves,
and builds a decimal as its mantissa times a power of ten; the reference
tests pin that rewrite to this form.
"""

import re
from decimal import Decimal
from fractions import Fraction

from grdcalc.scheme import MAX_EXPONENT, CalculusError, Rationalish, _echo, _is_int

_REFERENCE_INTEGER_OR_RATIO = re.compile(r"([-+]?\d+(?:_\d+)*)(?:/(\d+(?:_\d+)*))?")
_REFERENCE_DECIMAL = re.compile(
    r"[-+]?(?=\d|\.\d)\d*(?:_\d+)*(?:\.(?:\d+(?:_\d+)*)?)?(?:[eE][-+]?(\d+(?:_\d+)*))?"
)


def reference_parse_rational(text: Rationalish) -> Fraction:
    if isinstance(text, Fraction):
        return text
    if _is_int(text):
        return Fraction(text)
    body = str(text).strip()
    ratio = _REFERENCE_INTEGER_OR_RATIO.fullmatch(body)
    decimal = None if ratio else _REFERENCE_DECIMAL.fullmatch(body)
    digits = (decimal[1] or "").replace("_", "").lstrip("0") if decimal else ""
    if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
        raise CalculusError(
            f"a rational's exponent must be at most {MAX_EXPONENT} in magnitude,"
            f" got {_echo(repr(text))}"
        )
    if ratio is not None:
        num, den = int(Decimal(ratio[1])), int(Decimal(ratio[2] or 1))
        if den:
            return Fraction(num, den)
    elif decimal:
        return Fraction(Decimal(body))
    raise CalculusError(f"not a rational: {_echo(repr(text))}")
