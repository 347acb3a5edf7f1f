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
import sys
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact
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


# Integer, 'p/q' and decimal strings, as Fraction reads them; a decimal's
# groups are its sign, whole digits, fraction digits and exponent sign and
# digits.  _read_int reads their digits at any length; Fraction and int stop
# at the interpreter's int-from-str digit limit.  A decimal such as '15e-1'
# costs 10**exponent, so its exponent is bounded first, by that limit.
_INTEGER = re.compile(r"([-+]?)(\d+(?:_\d+)*)")
_INTEGER_OR_RATIO = re.compile(r"([-+]?\d+(?:_\d+)*)(?:/(\d+(?:_\d+)*))?")
_DECIMAL = re.compile(
    r"([-+]?)(?=\d|\.\d)(\d*(?:_\d+)*)(?:\.(\d+(?:_\d+)*)?)?(?:[eE]([-+]?)(\d+(?:_\d+)*))?"
)
MAX_EXPONENT = 4300
_ECHO_CHARS = 100
# int reads this many digits under any limit (Python before 3.10.7 has none)
_SPLIT_DIGITS = getattr(sys.int_info, "str_digits_check_threshold", 640)


def _echo(shown: str, length: Optional[int] = None) -> str:
    """``shown`` cut to its first 100 characters, then its length: how refusals quote input.

    With ``length``, ``shown`` is the start, at least 100 characters long, of
    a text of that length that is never built whole; a length of more than
    100 digits is quoted by its digit count.
    """
    length = len(shown) if length is None else length
    count = _digits(length)
    told = count if len(count) <= _ECHO_CHARS else f"a {len(count)}-digit number of"
    cut = f"... ({told} characters)" if length > _ECHO_CHARS else ""
    return shown[:_ECHO_CHARS] + cut


def _is_int(value: object) -> bool:
    """Whether ``value`` is an integer: a ``bool`` is an ``int`` to Python, not to this package."""
    return isinstance(value, int) and not isinstance(value, bool)


def _read_int(text: str) -> int:
    """``int(text)``, also past the interpreter's int-from-str digit limit.

    The mirror of :func:`_exact_decimal`: past the limit, where ``int`` would
    take time quadratic in the digits, the digit string is split in halves,
    read alike, and joined as ``high * 10**len(low) + low``, each power built
    once.  The syntax is ``int``'s, and a refusal is its ``ValueError``.
    """
    try:
        return int(text)
    except ValueError:
        number = _INTEGER.fullmatch(text.strip())
        if number is None:
            raise
    powers: dict[int, int] = {}

    def read(digits: str) -> int:
        if len(digits) <= _SPLIT_DIGITS:
            return int(digits)
        high, low = digits[: len(digits) // 2], digits[len(digits) // 2 :]
        if len(low) not in powers:
            powers[len(low)] = 10 ** len(low)
        return read(high) * powers[len(low)] + read(low)

    value = read(number[2].replace("_", ""))
    return -value if number[1] == "-" else value


def _int_field(text: str, refusal: str) -> int:
    """An integer field of a parsed string: ``_read_int(text)``, else ``CalculusError(refusal)``."""
    try:
        return _read_int(text)
    except ValueError as exc:
        raise CalculusError(refusal) from exc


def parse_rational(text: Rationalish) -> Fraction:
    """Parse a rational from an int, Fraction, or a 'p/q' / 'p' / decimal string.

    A ``bool`` is an ``int`` to Python but not a rational: JSON ``true`` is refused.
    A decimal exponent above ``MAX_EXPONENT`` in magnitude is refused up front.
    Digits are read by :func:`_read_int`, in time subquadratic in their count;
    a decimal is its mantissa (whole and fraction digits) times
    ``10**(exponent - len(fraction))``.
    """
    if isinstance(text, Fraction):
        return text
    if _is_int(text):
        return Fraction(text)
    body = str(text).strip()
    ratio = _INTEGER_OR_RATIO.fullmatch(body)
    decimal = None if ratio else _DECIMAL.fullmatch(body)
    if ratio is not None:
        num, den = _read_int(ratio[1]), _read_int(ratio[2] or "1")
        if den:
            return Fraction(num, den)
    elif decimal:
        sign, whole, fraction, exp_sign, exp_digits = decimal.groups("")
        digits = exp_digits.replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise CalculusError(
                f"a rational's exponent must be at most {MAX_EXPONENT} in magnitude,"
                f" got {_echo(repr(text))}"
            )
        mantissa = _read_int(sign + whole + fraction)
        exponent = int(exp_sign + (digits or "0")) - len(fraction.replace("_", ""))
        if exponent >= 0:
            return Fraction(mantissa * 10 ** exponent)
        return Fraction(mantissa, 10 ** -exponent)
    raise CalculusError(f"not a rational: {_echo(repr(text))}")


# Exact decimal arithmetic apart from the thread's context: Inexact is trapped.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])
_SPLIT_BITS = 1024  # a power of two


def _exact_decimal(value: int) -> Decimal:
    """``value`` as a Decimal, in subquadratic time where ``Decimal(value)`` is quadratic.

    Binary splitting: ``value = high * 2**k + low`` with ``k`` a power of two,
    taken by shifts; the halves are converted alike and joined by one exact
    ``fma``, and each ``2**k`` is built once, by squaring.
    """
    powers = {_SPLIT_BITS: Decimal(1 << _SPLIT_BITS)}

    def power(k: int) -> Decimal:
        if k not in powers:
            half = power(k // 2)
            powers[k] = _EXACT.multiply(half, half)
        return powers[k]

    def convert(part: int) -> Decimal:
        if part.bit_length() <= _SPLIT_BITS:
            return Decimal(part)
        k = 1 << ((part.bit_length() - 1).bit_length() - 1)
        return _EXACT.fma(convert(part >> k), power(k), convert(part & ((1 << k) - 1)))

    return convert(value)


def _digits(value: int) -> str:
    """Decimal digits of an integer, also past the interpreter's int-to-str limit."""
    try:
        return str(value)
    except ValueError:
        # a Decimal's "f" format ignores that limit
        return format(_exact_decimal(value), "f")


def _check_order(n: object) -> None:
    """Raise ``InvalidOrder`` unless ``n`` is a positive integer; the refusal quotes ``n`` bounded."""
    if not _is_int(n) or n < 1:
        shown = _digits(n) if _is_int(n) else repr(n)
        raise InvalidOrder(f"order must be a positive integer, got {_echo(shown)}")


def format_rational(value: Fraction) -> str:
    """Format a rational as a reduced 'p/q' string (denominator always shown)."""
    if not isinstance(value, Fraction):
        value = Fraction(value)
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # past the int-to-str limit
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

    # Order, integer form and parts, derived on first use and kept on the frozen
    # instance (dataclass ==, hash and repr read fields only); see order_info, decompose.
    @cached_property
    def _order(self) -> OrderInfo:
        return _find_order(self)

    @cached_property
    def _ints(self) -> tuple[tuple[int, ...], int, tuple[int, ...], int]:
        # the integer form (A, da, B, db): coefficients A_i / da and nodes B_i / db
        return (*_over_common_denominator(self.coeffs), *_over_common_denominator(self.nodes))

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


def _term(coeff: Fraction, node: Fraction) -> Term:
    """``Term(coeff, node)`` for two values that are already ``Fraction``s."""
    term = object.__new__(Term)
    object.__setattr__(term, "coeff", coeff)
    object.__setattr__(term, "node", node)
    return term


def _scheme(terms: tuple[Term, ...]) -> Scheme:
    """``Scheme(terms)`` unchecked, for terms that are canonical by construction:
    their nodes strictly increase and their coefficients are nonzero ``Fraction``s."""
    scheme = object.__new__(Scheme)
    object.__setattr__(scheme, "terms", terms)
    return scheme


def canonicalize(terms: Iterable[PairLike]) -> Scheme:
    """Build a scheme from (coeff, node) pairs: merge nodes, drop zeros, sort.
    Coefficients come out as plain ``Fraction``s, each node as the first given for its value."""
    coeffs, nodes = [], []
    for item in terms:
        coeff, node = (item.coeff, item.node) if isinstance(item, Term) else item
        coeffs.append(coeff if type(coeff) is Fraction else Fraction(parse_rational(coeff)))
        nodes.append(parse_rational(node))
    first: dict[int, Fraction] = {}  # keyed by the node's numerator over one denominator
    sums: dict[int, Fraction] = {}
    for key, node, coeff in zip(_over_common_denominator(nodes)[0], nodes, coeffs):
        first.setdefault(key, node)
        sums[key] = sums[key] + coeff if key in sums else coeff
    return _scheme(tuple(_term(sums[key], first[key]) for key in sorted(sums) if sums[key]))


def _over_common_denominator(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """Integers ``N_i`` and one denominator ``d`` with ``values[i] = N_i / d``."""
    d = lcm(*(v.denominator for v in values))
    return tuple([v.numerator * (d // v.denominator) for v in values]), d


def moment(scheme: Scheme, j: int) -> Fraction:
    """The j-th node moment ``sum_i a_i * b_i**j`` (exact)."""
    if j < 0:
        raise CalculusError("moment exponent must be >= 0")
    coeffs, da, nodes, db = scheme._ints  # m_j = sum_i A_i * B_i**j / (da * db**j)
    return Fraction(sum(a * b ** j for a, b in zip(coeffs, nodes)), da * db ** j)


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
    powers, da, bases, db = scheme._ints
    for j in range(len(scheme)):
        total = sum(powers)
        if total != 0:
            m_j = Fraction(total, da * db ** j)
            return OrderInfo(j, m_j, Fraction(factorial(j)) / m_j)
        powers = [a * b for a, b in zip(powers, bases)]
    raise IdentityCheckFailed("nonzero scheme with all leading moments zero")


def normalized(scheme: Scheme) -> Scheme:
    """Rescale coefficients so the leading moment equals order factorial."""
    normalizer = order_info(scheme).normalizer
    return scheme if normalizer == 1 else combine([(normalizer, 1, scheme)])


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

    The symmetry makes every moment of parity opposite to ``n`` vanish, which
    leaves ``n//2 + 1`` conditions, the moments ``j = n, n-2, ...``, on as
    many unknowns; with fewer unknowns no solution exists.  The solution is
    unique, so it is the symmetric part (:func:`decompose`) of the scheme
    :func:`construct_exact` builds on the last ``n+1`` of the nodes ``-p``,
    then 0, then ``p``: that part is symmetric and keeps every moment of
    ``n``'s parity.
    """
    _check_order(n)
    pairs = [parse_rational(p) for p in node_pairs]
    if any(p <= 0 for p in pairs):
        raise CalculusError("node pairs must be positive")
    if len(set(pairs)) != len(pairs):
        raise DuplicateNodes("node pairs must be distinct")
    if include_zero and n % 2 == 1:
        raise ZeroNodeParityError("a zero node forces a zero coefficient at odd order")
    zero = [Fraction(0)] if include_zero else []
    unknowns, n_conditions = len(pairs) + len(zero), n // 2 + 1
    if unknowns > n_conditions:
        raise UnderdeterminedSystem(
            f"{unknowns} unknowns but only {n_conditions} parity-matching conditions"
        )
    if unknowns < n_conditions:
        raise InconsistentSystem("conditions cannot all hold")
    nodes = [-p for p in pairs] + zero + pairs
    return decompose(construct_exact(nodes[-(n + 1):], n), n)[0]


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
    return combine([(r ** -order_info(scheme).order, r, scheme)])


def reflect(scheme: Scheme) -> Scheme:
    """The scheme evaluated at ``-h``: every node negated."""
    return combine([(1, -1, scheme)])


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
    # coefficients A_i / d and nodes N_i / e; the halves are (A_i +- A_mirror) / (2d)
    coeffs, d, keys, _ = scheme._ints
    at = dict(zip(keys, zip(scheme.nodes, coeffs)))
    mirrors = {-key: -a if odd else a for key, a in zip(keys, coeffs)}
    plus, minus = [], []
    for key in sorted(at.keys() | mirrors.keys()):
        node, here = at.get(key) or (-at[-key][0], 0)
        mirror = mirrors.get(key, 0)
        if here + mirror:
            plus.append(_term(Fraction(here + mirror, 2 * d), node))
        if here - mirror:
            minus.append(_term(Fraction(here - mirror, 2 * d), node))
    return _scheme(tuple(plus)), _scheme(tuple(minus))


def is_symmetric(scheme: Scheme, n: Optional[int] = None) -> bool:
    """Whether ``S(-h) = (-1)**n * S(h)`` exactly: the zero scheme, or the skew
    part from :func:`decompose` vanishes."""
    return scheme.is_zero or decompose(scheme, n)[1].is_zero


def combine(parts: Iterable[tuple[Rationalish, Rationalish, Scheme]]) -> Scheme:
    """Form ``sum_k c_k * S_k(d_k * h)``, canonical; several parts by :func:`_sums`.

    Each part is ``(c_k, d_k, S_k)``; the dilation ``d_k`` multiplies nodes
    only (no normalizing division, unlike :func:`scale`).
    """
    mapped: list[tuple[Fraction, Fraction, Scheme]] = []
    for coeff, dilation, part in parts:
        coeff, dilation = parse_rational(coeff), parse_rational(dilation)
        if dilation == 0:
            raise ZeroDilation("dilation factors must be nonzero")
        mapped.append((coeff, dilation, part))
    if len(mapped) == 1 and coeff and isinstance(part, Scheme):
        # one part stays canonical (in order or reversed); 1.2-1.8x slower through _sums
        terms = [_term(coeff * t.coeff, dilation * t.node) for t in part]
        return _scheme(tuple(terms if dilation > 0 else reversed(terms)))
    sums, C, D = _sums(mapped)
    return _scheme(tuple(_term(Fraction(v, C), Fraction(k, D)) for k, v in sorted(sums.items()) if v))


def _sums(parts: Iterable[tuple[Rationalish, Rationalish, Scheme]]) -> tuple[dict, int, int]:
    """``sum_k c_k * S_k(d_k * h)`` on integers: ``sums[N] / C`` (zero kept) at nodes ``N / D``,
    over the lcms ``C``, ``D`` of the parts' denominators; a part not a Scheme is canonicalized."""
    read = []
    for coeff, dilation, part in parts:
        coeff, dilation = parse_rational(coeff), parse_rational(dilation)
        if dilation == 0:
            raise ZeroDilation("dilation factors must be nonzero")
        A, da, B, db = (part if isinstance(part, Scheme) else canonicalize(part))._ints
        read.append((coeff.numerator, coeff.denominator * da, dilation.numerator,
                     dilation.denominator * db, A, B))
    C, D = lcm(*(r[1] for r in read)), lcm(*(r[3] for r in read))
    sums: dict[int, int] = {}
    for cn, cd, dn, dd, A, B in read:
        cn, dn = cn * (C // cd), dn * (D // dd)
        for a, b in zip(A, B):
            sums[dn * b] = sums.get(dn * b, 0) + cn * a
    return sums, C, D


def _matches(target: Scheme, parts: Iterable[tuple[Rationalish, Rationalish, Scheme]]) -> bool:
    """Exactly ``target == combine(parts)``, building no ``Scheme`` and no ``Fraction``: the
    integer sums of :func:`_sums` compared with ``target``'s kept integer form."""
    sums, C, D = _sums(parts)
    A, da, B, db = target._ints  # both sides over C*da and D*db
    mine = {key * db: total * da for key, total in sums.items() if total}
    return mine == {b * D: a * C for a, b in zip(A, B)}


def is_scale(a: Scheme, b: Scheme) -> Optional[Fraction]:
    """A factor ``r`` with ``scale(a, r) == b`` exactly, or None.

    Any valid ``r`` maps the largest-magnitude nodes of ``a`` onto those of
    ``b``, so only the two signed ratios of those magnitudes can work; each
    candidate is checked exactly by :func:`_matches`, no scale built.
    """
    if a.is_zero or b.is_zero:
        raise ZeroScheme("scale witnesses are defined for nonzero schemes")
    if len(a) != len(b):
        return None
    max_a = max(abs(t.node) for t in a)
    max_b = max(abs(t.node) for t in b)
    if max_a == 0 or max_b == 0:
        return Fraction(1) if a == b else None
    ratio, n = max_b / max_a, order_info(a).order
    for candidate in (ratio, -ratio):
        if _matches(b, [(candidate ** -n, candidate, a)]):
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
