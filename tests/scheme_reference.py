"""Independent reference for building schemes: the bodies that validated every build.

``reference_canonicalize``, ``reference_scale``, ``reference_normalized``,
``reference_reflect``, ``reference_combine``, ``reference_split``,
``reference_is_scale`` and ``reference_moment`` are the bodies
``canonicalize``, ``scale``, ``normalized``, ``reflect``, ``combine``,
``_split``, ``is_scale`` and ``moment`` once had, kept unchanged apart from
the names they call.
Each builds its result through the public ``Scheme(...)`` and ``Term(...)``,
which sort, reject duplicate nodes and zero coefficients, and parse every
value again.  The package now builds the same results through the one trusted
``_built(sums, C, D)``, which stores a scheme's reduced integer form and forms
its coefficient and node tuples only when read; the reference tests pin that
rewrite to these forms.  These bodies hand ``Scheme(...)`` a ``Fraction``
subclass as given, but ``Scheme(terms)`` stores the integer form too, never
through ``_built``, so their results read back as plain ``Fraction``s, as the
package's do.
``reference_coeff_at``, ``reference_scheme_to_json_dict`` and
``reference_format_scheme`` are the readers' bodies from when a ``Scheme``
stored ``Term`` objects: they read its ``Term`` view, where the package reads
the coefficient and node tuples and their sort order.
``reference_is_scale`` builds each candidate scale through ``reference_scale`` and
compares it; ``is_scale`` now builds each candidate as one ``combine`` of the kept
integer forms and compares canonical forms with ``==``, and the other references
call this one, so none of them shares that build.
``reference_combine`` and ``reference_moment`` sum ``Fraction``s term by term;
``combine`` and ``moment`` now sum the kept integer forms.
"""

from fractions import Fraction
from typing import Iterable, Optional

from grdcalc.scheme import (
    CalculusError,
    PairLike,
    Rationalish,
    Scheme,
    Term,
    ZeroDilation,
    ZeroScale,
    ZeroScheme,
    _format_factor,
    _format_node,
    format_rational,
    order_info,
    parse_rational,
)


def reference_canonicalize(terms: Iterable[PairLike]) -> Scheme:
    acc: dict[Fraction, Fraction] = {}
    for item in terms:
        coeff, node = (item.coeff, item.node) if isinstance(item, Term) else item
        coeff, node = parse_rational(coeff), parse_rational(node)
        acc[node] = acc.get(node, Fraction(0)) + coeff
    return Scheme(tuple(Term(c, b) for b, c in sorted(acc.items()) if c != 0))


def reference_normalized(scheme: Scheme) -> Scheme:
    info = order_info(scheme)
    if info.normalizer == 1:
        return scheme
    return Scheme(tuple(Term(t.coeff * info.normalizer, t.node) for t in scheme))


def reference_scale(scheme: Scheme, r: Rationalish) -> Scheme:
    r = parse_rational(r)
    if r == 0:
        raise ZeroScale("scale factor must be nonzero")
    if scheme.is_zero:
        raise ZeroScheme("cannot scale the zero scheme")
    factor = r ** -order_info(scheme).order
    return Scheme(tuple(Term(t.coeff * factor, r * t.node) for t in scheme))


def reference_reflect(scheme: Scheme) -> Scheme:
    return Scheme(tuple(Term(t.coeff, -t.node) for t in scheme))


def reference_split(scheme: Scheme, odd: bool) -> tuple[Scheme, Scheme]:
    coeffs = {t.node: t.coeff for t in scheme}
    zero = Fraction(0)
    plus, minus = [], []
    for node in sorted(coeffs.keys() | {-b for b in coeffs}):
        here, mirror = coeffs.get(node, zero), coeffs.get(-node, zero)
        if odd:
            mirror = -mirror
        sym, skew = (here + mirror) / 2, (here - mirror) / 2
        if sym:
            plus.append(Term(sym, node))
        if skew:
            minus.append(Term(skew, node))
    return Scheme(tuple(plus)), Scheme(tuple(minus))


def reference_combine(parts: Iterable[tuple[Rationalish, Rationalish, Scheme]]) -> Scheme:
    terms: list[tuple[Fraction, Fraction]] = []
    for coeff, dilation, part in parts:
        coeff, dilation = parse_rational(coeff), parse_rational(dilation)
        if dilation == 0:
            raise ZeroDilation("dilation factors must be nonzero")
        terms.extend((coeff * t.coeff, dilation * t.node) for t in part)
    return reference_canonicalize(terms)


def reference_is_scale(a: Scheme, b: Scheme) -> Optional[Fraction]:
    if a.is_zero or b.is_zero:
        raise ZeroScheme("scale witnesses are defined for nonzero schemes")
    if len(a) != len(b):
        return None
    max_a = max(abs(t.node) for t in a)
    max_b = max(abs(t.node) for t in b)
    if max_a == 0 or max_b == 0:
        return Fraction(1) if a == b else None
    ratio = max_b / max_a
    for candidate in (ratio, -ratio):
        if reference_scale(a, candidate) == b:
            return candidate
    return None


def reference_moment(scheme: Scheme, j: int) -> Fraction:
    if j < 0:
        raise CalculusError("moment exponent must be >= 0")
    return sum((t.coeff * t.node ** j for t in scheme), Fraction(0))


def reference_coeff_at(scheme: Scheme, node: Rationalish) -> Fraction:
    node = parse_rational(node)
    for term in scheme.terms:
        if term.node == node:
            return term.coeff
    return Fraction(0)


def reference_scheme_to_json_dict(scheme: Scheme) -> dict:
    return {
        "terms": [
            {"coeff": format_rational(t.coeff), "node": format_rational(t.node)}
            for t in scheme
        ]
    }


def reference_format_scheme(scheme: Scheme) -> str:
    if scheme.is_zero:
        return "0"
    pieces = []
    for term in sorted(scheme, key=lambda t: t.node, reverse=True):
        mag = abs(term.coeff)
        if mag == 1:
            body = _format_node(term.node)
        else:
            body = f"{_format_factor(mag)}*{_format_node(term.node)}"
        pieces.append(("- " if term.coeff < 0 else "+ ") + body)
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]
