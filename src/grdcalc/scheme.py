"""Exact finite-difference schemes with rational coefficients and nodes.

A scheme is a finite formal combination ``sum_i a_i * f(x + b_i*h)`` stored
as terms ``(a_i, b_i)`` with nonzero rational coefficients at strictly
increasing rational nodes.  A scheme differentiates ``n`` times when its
moments ``m_j = sum_i a_i * b_i**j`` vanish for ``j < n`` with ``m_n != 0``;
it is normalized when ``m_n = n!``.  All arithmetic is exact over
:class:`fractions.Fraction`, so orders, normalizers, decompositions and
equality are computed without rounding.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from math import factorial, lcm, prod
from typing import Iterable, Iterator, Optional, Sequence, Union

Rationalish = Union[Fraction, int, str]


class CalculusError(ValueError):
    """Base class for input and domain errors raised by this package."""


class IdentityCheckFailed(AssertionError):
    """An internal exactness identity did not hold (a fault, not bad input)."""


def _require(condition: bool, message: str = "", *args: object) -> None:
    """Raise ``IdentityCheckFailed`` unless ``condition``; unlike ``assert``, kept by ``-O``.

    As with ``assert``, the message ``message % args`` is built only on failure.
    """
    if not condition:
        raise IdentityCheckFailed(message % args if args else message)


class ZeroScheme(CalculusError):
    """An operation that needs a nonzero scheme received the zero scheme."""


class DuplicateNodes(CalculusError):
    """A node list contains a repeated node."""


class WrongNodeCount(CalculusError):
    """A node list has the wrong number of nodes for the requested order."""


class UnderdeterminedSystem(CalculusError):
    """The defining linear system has more unknowns than independent conditions."""


class InconsistentSystem(CalculusError):
    """The defining linear system has no solution."""


class ZeroNodeParityError(CalculusError):
    """A node at zero is incompatible with odd-order symmetry."""


class ZeroScale(CalculusError):
    """Scale factors must be nonzero."""


class ZeroDilation(CalculusError):
    """Dilation factors in combinations must be nonzero."""


class InvalidOrder(CalculusError):
    """The differentiation order must be a positive integer."""


# Integer and 'p/q' strings.  Decimal reads their digits exactly at any
# length; Fraction and int stop at the interpreter's int-from-str digit limit.
_INTEGER_OR_RATIO = re.compile(r"([-+]?\d+(?:_\d+)*)(?:/(\d+(?:_\d+)*))?")
_ECHO_CHARS = 100


def _echo(shown: str, length: Optional[int] = None) -> str:
    """``shown`` cut to its first 100 characters, then its length: how refusals quote input.

    With ``length``, ``shown`` is the start, at least 100 characters long, of
    a text of that length that is never built whole.
    """
    length = len(shown) if length is None else length
    cut = f"... ({length} characters)" if length > _ECHO_CHARS else ""
    return shown[:_ECHO_CHARS] + cut


def _is_int(value: object) -> bool:
    """Whether ``value`` is an integer: a ``bool`` is an ``int`` to Python, not to this package."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_rational(text: Rationalish) -> Fraction:
    """Parse a rational from an int, Fraction, or a 'p/q' / 'p' string.

    A ``bool`` is an ``int`` to Python but not a rational: JSON ``true`` is refused.
    """
    if isinstance(text, Fraction):
        return text
    if _is_int(text):
        return Fraction(text)
    body = str(text).strip()
    ratio = _INTEGER_OR_RATIO.fullmatch(body)
    try:
        if ratio is None:
            return Fraction(body)
        return Fraction(int(Decimal(ratio[1])), int(Decimal(ratio[2] or 1)))
    except (ValueError, ZeroDivisionError) as exc:
        raise CalculusError(f"not a rational: {_echo(repr(text))}") from exc


def _digits(value: int) -> str:
    """Decimal digits of an integer, also past the interpreter's int-to-str limit."""
    try:
        return str(value)
    except ValueError:
        # Decimal converts an int exactly, and its "f" format ignores that limit
        return format(Decimal(value), "f")


def _check_order(n: object) -> None:
    """Raise ``InvalidOrder`` unless ``n`` is a positive integer; the refusal quotes ``n`` bounded."""
    if not _is_int(n) or n < 1:
        shown = _digits(n) if _is_int(n) else repr(n)
        raise InvalidOrder(f"order must be a positive integer, got {_echo(shown)}")


def format_rational(value: Fraction) -> str:
    """Format a rational as a reduced 'p/q' string (denominator always shown)."""
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return f"{_digits(value.numerator)}/{_digits(value.denominator)}"


@dataclass(frozen=True, slots=True)
class Term:
    """One summand ``coeff * f(x + node*h)`` of a scheme."""

    coeff: Fraction
    node: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeff", parse_rational(self.coeff))
        object.__setattr__(self, "node", parse_rational(self.node))


@dataclass(frozen=True)
class Scheme:
    """A canonical scheme: nonzero coefficients at strictly increasing nodes.

    Construct directly only from already-clean term lists; use
    :func:`canonicalize` to merge duplicate nodes and drop zero coefficients.
    The empty scheme represents the zero combination.
    """

    terms: tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        clean = tuple(sorted(self.terms, key=lambda t: t.node))
        object.__setattr__(self, "terms", clean)
        for left, right in zip(clean, clean[1:]):
            if left.node == right.node:
                raise DuplicateNodes(f"duplicate node {left.node}")
        for term in clean:
            if term.coeff == 0:
                raise CalculusError(f"zero coefficient at node {term.node}")

    def __iter__(self) -> Iterator[Term]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def nodes(self) -> tuple[Fraction, ...]:
        return tuple(t.node for t in self.terms)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(t.coeff for t in self.terms)

    # Order and parts, derived on first use and kept on the frozen instance
    # (dataclass ==, hash and repr read fields only); see order_info, decompose.
    @cached_property
    def _order(self) -> OrderInfo:
        return _find_order(self)

    @cached_property
    def _even_parts(self) -> tuple[Scheme, Scheme]:
        return _split(self, odd=False)

    @cached_property
    def _odd_parts(self) -> tuple[Scheme, Scheme]:
        return _split(self, odd=True)

    def coeff_at(self, node: Rationalish) -> Fraction:
        """Coefficient at a node, zero when the node is absent."""
        node = parse_rational(node)
        for term in self.terms:
            if term.node == node:
                return term.coeff
        return Fraction(0)


PairLike = Union[Term, Sequence[Rationalish]]


def canonicalize(terms: Iterable[PairLike]) -> Scheme:
    """Build a scheme from (coeff, node) pairs: merge nodes, drop zeros, sort."""
    acc: dict[Fraction, Fraction] = {}
    for item in terms:
        coeff, node = (item.coeff, item.node) if isinstance(item, Term) else item
        coeff, node = parse_rational(coeff), parse_rational(node)
        acc[node] = acc.get(node, Fraction(0)) + coeff
    return Scheme(tuple(Term(c, b) for b, c in sorted(acc.items()) if c != 0))


def _over_common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers ``N_i`` and one denominator ``d`` with ``values[i] = N_i / d``."""
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def moment(scheme: Scheme, j: int) -> Fraction:
    """The j-th node moment ``sum_i a_i * b_i**j`` (exact)."""
    if j < 0:
        raise CalculusError("moment exponent must be >= 0")
    return sum((t.coeff * t.node ** j for t in scheme), Fraction(0))


@dataclass(frozen=True)
class OrderInfo:
    """Order data: first nonvanishing moment index, its value, and n!/m_n."""

    order: int
    leading_moment: Fraction
    normalizer: Fraction


def order_info(scheme: Scheme) -> OrderInfo:
    """Detect the differentiation order of a nonzero scheme.

    The order is the least ``j`` with ``m_j != 0``.  For a nonzero canonical
    scheme some moment below ``len(scheme)`` is nonzero (a Vandermonde system
    on distinct nodes is nonsingular), so the search is bounded.  It is run
    once per scheme object.
    """
    if scheme.is_zero:
        raise ZeroScheme("the zero scheme has no order")
    return scheme._order


def _find_order(scheme: Scheme) -> OrderInfo:
    # one running-power pass over integers: m_j = sum_i A_i * B_i**j / (da * db**j)
    powers, da = _over_common_denominator(scheme.coeffs)
    bases, db = _over_common_denominator(scheme.nodes)
    for j in range(len(scheme)):
        total = sum(powers)
        if total != 0:
            m_j = Fraction(total, da * db ** j)
            return OrderInfo(j, m_j, Fraction(factorial(j)) / m_j)
        powers = [a * b for a, b in zip(powers, bases)]
    raise AssertionError("nonzero scheme with all leading moments zero")


def normalized(scheme: Scheme) -> Scheme:
    """Rescale coefficients so the leading moment equals order factorial."""
    info = order_info(scheme)
    if info.normalizer == 1:
        return scheme
    return Scheme(tuple(Term(t.coeff * info.normalizer, t.node) for t in scheme))


def _lagrange_weights(points: Sequence[Fraction], top: int) -> list[Fraction]:
    """The weights ``w_i = top / prod_{j != i} (t_i - t_j)`` on distinct points.

    They are the unique solution of ``sum_i w_i * t_i**j = 0`` for
    ``j < k-1`` and ``sum_i w_i * t_i**(k-1) = top`` on ``k`` points:
    ``top`` times the last row of the inverse Vandermonde matrix
    (Bjorck and Pereyra, Math. Comp. 24, 1970; Fornberg, Math. Comp. 51,
    1988).  The differences run on integers over a common denominator.
    """
    ints, d = _over_common_denominator(points)
    numerator = top * d ** (len(ints) - 1)
    return [Fraction(numerator, prod(x - y for y in ints if y != x)) for x in ints]


def construct_exact(nodes: Sequence[Rationalish], n: int) -> Scheme:
    """The unique normalized scheme of order ``n`` on ``n+1`` distinct nodes.

    The moment conditions ``m_j = 0`` for ``j < n`` and ``m_n = n!`` have the
    closed-form (Lagrange) solution ``a_i = n! / prod_{j != i} (b_i - b_j)``:
    ``n!`` times the leading coefficient of the i-th Lagrange basis
    polynomial on the nodes.
    """
    _check_order(n)
    points = [parse_rational(b) for b in nodes]
    if len(points) != n + 1:
        raise WrongNodeCount(
            f"order {_echo(_digits(n))} needs exactly {_echo(_digits(n + 1))} nodes,"
            f" got {len(points)}"
        )
    if len(set(points)) != len(points):
        raise DuplicateNodes("nodes must be distinct")
    return canonicalize(zip(_lagrange_weights(points, factorial(n)), points))


def construct_exact_symmetric(
    node_pairs: Sequence[Rationalish], include_zero: bool, n: int
) -> Scheme:
    """The normalized order-``n`` scheme on nodes ``{+-p}`` (and optionally 0)
    whose reflection satisfies ``S(-h) = (-1)**n * S(h)``.

    The symmetry fixes the coefficient at ``-p`` to ``(-1)**n`` times the one
    at ``p`` and makes every moment of parity opposite to ``n`` vanish.  The
    remaining ``n//2 + 1`` conditions, the moments ``j = n, n-2, ...``, read
    ``sum_t w_t * t**k = [k = n//2] * n!`` in the squared nodes ``t = p**2``,
    with weights ``w_p = 2 * c_p * p**(n % 2)`` and ``w_0 = c_0`` at the zero
    node.  With one unknown per condition the weights have the closed-form
    (Lagrange) solution ``w_t = n! / prod_{s != t} (t - s)``; with fewer
    unknowns no solution exists.
    """
    _check_order(n)
    pairs = [parse_rational(p) for p in node_pairs]
    if any(p <= 0 for p in pairs):
        raise CalculusError("node pairs must be positive")
    if len(set(pairs)) != len(pairs):
        raise DuplicateNodes("node pairs must be distinct")
    if include_zero and n % 2 == 1:
        raise ZeroNodeParityError("a zero node forces a zero coefficient at odd order")
    squares = [p * p for p in pairs] + ([Fraction(0)] if include_zero else [])
    n_conditions = n // 2 + 1
    if len(squares) > n_conditions:
        raise UnderdeterminedSystem(
            f"{len(squares)} unknowns but only {n_conditions} parity-matching conditions"
        )
    if len(squares) < n_conditions:
        raise InconsistentSystem("conditions cannot all hold")
    weights = _lagrange_weights(squares, factorial(n))
    sign = Fraction(-1) ** n
    terms = []
    for w, p in zip(weights, pairs):
        coeff = w / (2 * p ** (n % 2))
        terms.append((coeff, p))
        terms.append((sign * coeff, -p))
    if include_zero:
        terms.append((weights[-1], Fraction(0)))
    return canonicalize(terms)


def scale(scheme: Scheme, r: Rationalish) -> Scheme:
    """Scale by ``r``: nodes become ``r*b`` and coefficients ``a/r**n``.

    This is the change of variable ``h -> r*h`` compensated so that the
    result differentiates ``n`` times with the same normalizer.
    """
    r = parse_rational(r)
    if r == 0:
        raise ZeroScale("scale factor must be nonzero")
    if scheme.is_zero:
        raise ZeroScheme("cannot scale the zero scheme")
    n = order_info(scheme).order
    return Scheme(tuple(Term(t.coeff / r ** n, r * t.node) for t in scheme))


def reflect(scheme: Scheme) -> Scheme:
    """The scheme evaluated at ``-h``: every node negated."""
    return Scheme(tuple(Term(t.coeff, -t.node) for t in scheme))


def decompose(scheme: Scheme, n: Optional[int] = None) -> tuple[Scheme, Scheme]:
    """Split into the symmetric and skew parts at reference order ``n``.

    Returns ``(plus, minus)`` with ``plus = (S(h) + (-1)**n S(-h)) / 2`` and
    ``minus = (S(h) - (-1)**n S(-h)) / 2``, so ``S = plus + minus``.  The
    symmetric part keeps every moment of the same parity as ``n`` and the
    skew part the opposite-parity ones.  ``n`` defaults to the detected order.
    The split depends on the parity of ``n`` only; it is made once per scheme
    object and parity, in one pass over the node set closed under negation.
    """
    if n is None:
        n = order_info(scheme).order
    _check_order(n)
    return scheme._odd_parts if n % 2 == 1 else scheme._even_parts


def _split(scheme: Scheme, odd: bool) -> tuple[Scheme, Scheme]:
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


def is_symmetric(scheme: Scheme, n: Optional[int] = None) -> bool:
    """Whether ``S(-h) = (-1)**n * S(h)`` exactly: the zero scheme, or the skew
    part from :func:`decompose` vanishes."""
    return scheme.is_zero or decompose(scheme, n)[1].is_zero


def combine(parts: Iterable[tuple[Rationalish, Rationalish, Scheme]]) -> Scheme:
    """Form ``sum_k c_k * S_k(d_k * h)`` and canonicalize.

    Each part is ``(c_k, d_k, S_k)``; the dilation ``d_k`` multiplies nodes
    only (no normalizing division, unlike :func:`scale`).
    """
    terms: list[tuple[Fraction, Fraction]] = []
    for coeff, dilation, part in parts:
        coeff, dilation = parse_rational(coeff), parse_rational(dilation)
        if dilation == 0:
            raise ZeroDilation("dilation factors must be nonzero")
        terms.extend((coeff * t.coeff, dilation * t.node) for t in part)
    return canonicalize(terms)


def is_scale(a: Scheme, b: Scheme) -> Optional[Fraction]:
    """A factor ``r`` with ``scale(a, r) == b`` exactly, or None.

    Any valid ``r`` maps the largest-magnitude nodes of ``a`` onto those of
    ``b``, so only the two signed ratios of those magnitudes can work; each
    candidate is verified by exact comparison.
    """
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
        if scale(a, candidate) == b:
            return candidate
    return None


def scheme_to_json_dict(scheme: Scheme) -> dict:
    """JSON form: ``{"terms": [{"coeff": "p/q", "node": "p/q"}, ...]}``."""
    return {
        "terms": [
            {"coeff": format_rational(t.coeff), "node": format_rational(t.node)}
            for t in scheme
        ]
    }


def scheme_from_json(data: Union[str, dict]) -> Scheme:
    """Read a scheme from a JSON string or dict produced by scheme_to_json_dict.

    Coefficients and nodes may be 'p/q' strings, integer strings, or ints.
    """
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise CalculusError(f"invalid scheme JSON: {exc}") from exc
    if not isinstance(data, dict) or "terms" not in data:
        raise CalculusError("scheme JSON must be an object with a 'terms' list")
    terms = data["terms"]
    if not isinstance(terms, list):
        raise CalculusError("'terms' must be a list")
    pairs = []
    for entry in terms:
        if not isinstance(entry, dict) or "coeff" not in entry or "node" not in entry:
            raise CalculusError("each term needs 'coeff' and 'node'")
        pairs.append((parse_rational(entry["coeff"]), parse_rational(entry["node"])))
    return canonicalize(pairs)


def _format_factor(mag: Fraction) -> str:
    """A positive rational as a factor: ``p`` when integral, else ``(p/q)``."""
    if mag.denominator == 1:
        return _digits(mag.numerator)
    return f"({format_rational(mag)})"


def _format_node(node: Fraction) -> str:
    if node == 0:
        return "f(x)"
    sign = "+" if node > 0 else "-"
    mag = abs(node)
    if mag == 1:
        return f"f(x{sign}h)"
    return f"f(x{sign}{_format_factor(mag)}h)"


def format_scheme(scheme: Scheme) -> str:
    """Human-readable rendering, largest node first."""
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
