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

from dataclasses import dataclass
from fractions import Fraction
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


def parse_rational(text: Rationalish) -> Fraction:
    """Parse a rational from an int, Fraction, or a 'p/q' / 'p' string."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise CalculusError(f"not a rational: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Format a rational as a reduced 'p/q' string (denominator always shown)."""
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
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
        if isinstance(item, Term):
            coeff, node = item.coeff, item.node
        else:
            coeff, node = item
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
    on distinct nodes is nonsingular), so the search is bounded.
    """
    if scheme.is_zero:
        raise ZeroScheme("the zero scheme has no order")
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
    if not isinstance(n, int) or n < 1:
        raise InvalidOrder(f"order must be a positive integer, got {n!r}")
    points = [parse_rational(b) for b in nodes]
    if len(points) != n + 1:
        raise WrongNodeCount(f"order {n} needs exactly {n + 1} nodes, got {len(points)}")
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
    if not isinstance(n, int) or n < 1:
        raise InvalidOrder(f"order must be a positive integer, got {n!r}")
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
    """
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


def is_symmetric(scheme: Scheme, n: Optional[int] = None) -> bool:
    """Whether ``S(-h) = (-1)**n * S(h)`` exactly (the skew part vanishes)."""
    if scheme.is_zero:
        return True
    if n is None:
        n = order_info(scheme).order
    sign = Fraction(-1) ** n
    return all(scheme.coeff_at(-t.node) == sign * t.coeff for t in scheme)


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


def _scale_witness(a: Scheme, b: Scheme) -> Optional[Fraction]:
    """A factor ``r`` with ``scale(a, r) == b``, or None.

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
    import json

    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
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


def _format_node(node: Fraction) -> str:
    if node == 0:
        return "f(x)"
    sign = "+" if node > 0 else "-"
    mag = abs(node)
    if mag == 1:
        return f"f(x{sign}h)"
    if mag.denominator == 1:
        return f"f(x{sign}{mag.numerator}h)"
    return f"f(x{sign}({mag.numerator}/{mag.denominator})h)"


def format_scheme(scheme: Scheme) -> str:
    """Human-readable rendering, largest node first."""
    if scheme.is_zero:
        return "0"
    pieces = []
    for term in sorted(scheme, key=lambda t: t.node, reverse=True):
        mag = abs(term.coeff)
        if mag == 1:
            body = _format_node(term.node)
        elif mag.denominator == 1:
            body = f"{mag.numerator}*{_format_node(term.node)}"
        else:
            body = f"({mag.numerator}/{mag.denominator})*{_format_node(term.node)}"
        pieces.append(("- " if term.coeff < 0 else "+ ") + body)
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]
