"""Exact finite-difference schemes with rational coefficients and nodes.

A scheme is a finite formal combination ``sum_i a_i * f(x + b_i*h)`` of
nonzero rational coefficients ``a_i`` at strictly increasing rational nodes
``b_i``, stored as one reduced integer form: ``a_i = A_i/da`` and ``b_i = B_i/db``.
A scheme differentiates ``n`` times when its moments ``m_j = sum_i a_i * b_i**j``
vanish for ``j < n`` with ``m_n != 0``; it is normalized when ``m_n = n!``.  All
arithmetic is exact, on integers and :class:`fractions.Fraction`, so orders,
normalizers, decompositions and equality are computed without rounding.
"""

from __future__ import annotations

import json
import re
import sys
from bisect import bisect_left
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, gcd, lcm, prod
from operator import attrgetter
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


class OrderBudgetExceeded(CalculusError):
    """An input asks for more work than its budget allows (README.md has the table)."""


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


def _echo(shown: str) -> str:
    """``shown`` cut to its first 100 characters, then its length: how refusals quote input."""
    cut = f"... ({len(shown)} characters)" if len(shown) > _ECHO_CHARS else ""
    return shown[:_ECHO_CHARS] + cut


def _shown(value: object) -> str:
    """A caller's value as a refusal quotes it, before :func:`_echo`: an int by its digits, else
    its ``repr``, or its type where that raises (a list holding an int past the int-to-str limit)."""
    if _is_int(value):
        return _digits(value)
    try:
        return repr(value)
    except ValueError:
        return f"<unprintable {type(value).__name__} object>"


def _items(values: object, what: str) -> Iterator:
    """An iterator over ``values``, the one way a call reads a sequence argument: any iterable
    but a ``str`` or ``bytes``; anything else is refused, quoted bounded."""
    if not isinstance(values, (str, bytes)):
        try:
            return iter(values)
        except TypeError:
            pass
    raise CalculusError(f"{what} must be a sequence, got {_echo(_shown(values))}")


def _check_scheme(value: object) -> None:
    """Refuse a ``value`` that is not a :class:`Scheme`, naming its type only."""
    if not isinstance(value, Scheme):
        raise CalculusError(f"the input is a {type(value).__name__}, not a scheme")


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
    ``10**(exponent - len(fraction))``.  A ``Fraction`` is returned as given.
    """
    return text if isinstance(text, Fraction) else Fraction(*_ratio(text))


def _ratio(text: Rationalish) -> tuple[int, int]:
    """The rational :func:`parse_rational` reads, as an integer pair ``(p, q)`` with ``q > 0``,
    not necessarily reduced, or its refusal: a ``p/q`` string costs one regex and two
    :func:`_read_int` calls, and a ``Fraction`` or an ``int`` no call at all."""
    if type(text) is not str:
        if isinstance(text, Fraction):
            return text.numerator, text.denominator
        if _is_int(text):
            return text, 1
    try:
        body = str(text).strip()
    except ValueError:  # as for a list holding an int past the int-to-str limit: refused below
        body = ""
    ratio = _INTEGER_OR_RATIO.fullmatch(body)
    decimal = None if ratio else _DECIMAL.fullmatch(body)
    if ratio is not None:
        den = _read_int(ratio[2] or "1")
        if den:
            return _read_int(ratio[1]), den
    elif decimal:
        sign, whole, fraction, exp_sign, exp_digits = decimal.groups("")
        digits = exp_digits.replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise CalculusError(
                f"a rational's exponent must be at most {MAX_EXPONENT} in magnitude,"
                f" got {_echo(_shown(text))}"
            )
        mantissa = _read_int(sign + whole + fraction)
        exponent = int(exp_sign + (digits or "0")) - len(fraction.replace("_", ""))
        return (mantissa * 10 ** exponent, 1) if exponent >= 0 else (mantissa, 10 ** -exponent)
    raise CalculusError(f"not a rational: {_echo(_shown(text))}")


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


def _plain(value: Fraction) -> str:
    """``str(value)``, ``p`` or ``p/q``, also past the interpreter's int-to-str limit."""
    return _digits(value.numerator) if value.denominator == 1 else format_rational(value)


# (n+1)**2 times the digit width of the nodes: bounds construct_exact and every family member
MAX_FAMILY_SIZE = 2 ** 21


# floor(log10(2) * 2**136): t * _LOG10_2 >> 136 is floor(t * log10(2)) for every t below 2**64,
# since no such t * log10(2) lies within t / 2**136 above an integer (its convergents show it)
_LOG10_2 = 26223411056317277120003099968026427571219
# 10**k, the last one formed kept: repeated _width calls at one width form it once
_power_of_ten = lru_cache(maxsize=1)(lambda k: 10 ** k)


def _width(values: Iterable[Fraction]) -> int:
    """The decimal digits of the largest ``|numerator|`` or denominator among ``values``
    (Fractions or ints): the one digit measure of every work budget.

    Counted from the bit length ``b`` without a decimal conversion: the value has the digits
    of ``2**(b-1)`` or of ``2**b - 1``, and where those differ one power of ten tells which.
    """
    top = max(max(abs(v.numerator), v.denominator) for v in values)
    bits = top.bit_length()
    low, high = ((bits - 1) * _LOG10_2 >> 136) + 1, (bits * _LOG10_2 >> 136) + 1
    return low if low == high else low + (top >= _power_of_ten(low))


def _check_budget(what: str, value: int, limit: int) -> None:
    """Refuse ``value`` above ``limit``: every work budget of the package, in one message shape."""
    if value > limit:
        raise OrderBudgetExceeded(f"{what} must be at most {limit}, got {_echo(_digits(value))}")


def _check_member_size(n: int, width: int) -> None:
    """Refuse the order-``n`` scheme on ``n+1`` nodes ``width`` digits wide (:func:`_width`)
    when ``(n+1)**2 * width`` exceeds ``MAX_FAMILY_SIZE``: its coefficients have about
    ``n`` times as many digits as its nodes, so this bounds the digits it holds."""
    _check_budget("member size (n+1)**2 * node digits", (n + 1) ** 2 * width, MAX_FAMILY_SIZE)


def _check_order(n: object) -> None:
    """Raise ``InvalidOrder`` unless ``n`` is a positive integer; the refusal quotes ``n`` bounded."""
    if not _is_int(n) or n < 1:
        raise InvalidOrder(f"order must be a positive integer, got {_echo(_shown(n))}")


def _format_pair(num: int, den: int) -> str:
    """``'num/den'``, also past the interpreter's int-to-str limit."""
    try:
        return f"{num}/{den}"
    except ValueError:  # past the int-to-str limit
        return f"{_digits(num)}/{_digits(den)}"


def format_rational(value: Fraction) -> str:
    """Format a rational as a reduced 'p/q' string (denominator always shown)."""
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return _format_pair(value.numerator, value.denominator)


class _Record:
    """A frozen record, as ``@dataclass(frozen=True)`` makes one, without ``dataclasses``.

    A subclass's fields are its annotations, in order, with its class attributes as
    defaults; ``hidden`` names fields left out of ``==``, ``hash`` and ``repr``.  Unless the
    subclass writes its own (one with ``__slots__`` must), ``__init__`` takes the fields by
    position or keyword and then calls ``__post_init__`` if there is one.  ``==`` compares
    two records of one class by the tuple of their shown fields, ``hash`` is that tuple's,
    ``repr`` is ``Name(field=value, ...)``, and assigning or deleting an attribute raises
    ``AttributeError``, each as a frozen dataclass does.
    """

    __slots__ = ()

    def __init_subclass__(cls, hidden: tuple[str, ...] = ()) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._shown = tuple(name for name in cls._fields if name not in hidden)
        key = attrgetter(*cls._shown)
        cls._key = key if len(cls._shown) > 1 else lambda record: (key(record),)
        if "__init__" not in vars(cls):
            # compiled like the dataclass one, so that a build binds its arguments in C
            params = [f"{n}=_defaults[{n!r}]" if n in vars(cls) else n for n in cls._fields]
            lines = [f"def __init__(self, {', '.join(params)}):"]
            lines += [f"    _set(self, {name!r}, {name})" for name in cls._fields]
            lines += ["    self.__post_init__()"] if hasattr(cls, "__post_init__") else []
            namespace = {"_set": object.__setattr__, "_defaults": vars(cls)}
            exec("\n".join(lines), namespace)
            cls.__init__ = namespace["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Term(_Record):
    """One summand ``coeff * f(x + node*h)`` of a scheme."""

    __slots__ = ("coeff", "node")
    coeff: Fraction
    node: Fraction

    def __init__(self, coeff: Rationalish, node: Rationalish) -> None:
        object.__setattr__(self, "coeff", parse_rational(coeff))
        object.__setattr__(self, "node", parse_rational(node))


class Scheme(_Record):
    """A canonical scheme: nonzero coefficients ``coeffs`` at strictly increasing ``nodes``.

    ``Scheme(terms)`` sorts ``Term``s and refuses anything else, a repeated node or a zero
    coefficient; use :func:`canonicalize` to merge duplicate nodes and drop
    zero coefficients.  The empty scheme represents the zero combination.
    Every scheme stores its reduced integer form ``_ints`` only (as :func:`_built` does), which
    ``==`` and ``hash`` read; ``coeffs``, ``nodes`` and ``terms`` are views formed on first read.
    """

    coeffs: tuple[Fraction, ...]
    nodes: tuple[Fraction, ...]

    def __init__(self, terms: Iterable[Term] = ()) -> None:
        clean = list(_items(terms, "terms"))
        for term in clean:
            if not isinstance(term, Term):
                raise CalculusError(f"not a Term: {_echo(_shown(term))}")
        clean.sort(key=lambda t: t.node)
        for left, right in zip(clean, clean[1:]):
            if left.node == right.node:
                raise DuplicateNodes(f"duplicate node {_echo(_plain(left.node))}")
        for term in clean:
            if term.coeff == 0:
                raise CalculusError(f"zero coefficient at node {_echo(_plain(term.node))}")
        object.__setattr__(self, "_ints", (*_over_common_denominator([t.coeff for t in clean]),
                                           *_over_common_denominator([t.node for t in clean])))

    def __iter__(self) -> Iterator[Term]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self._ints[0])

    @property
    def is_zero(self) -> bool:
        return not self._ints[0]

    # the views of the integer form, order and parts, derived on first use and kept
    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        A, da, _, _ = self._ints
        return tuple([Fraction(a, da) for a in A])

    @cached_property
    def nodes(self) -> tuple[Fraction, ...]:
        _, _, B, db = self._ints
        return tuple([Fraction(b, db) for b in B])

    @cached_property
    def terms(self) -> tuple[Term, ...]:
        return tuple(map(Term, self.coeffs, self.nodes))

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
        i = bisect_left(self.nodes, node)
        return self.coeffs[i] if i < len(self.nodes) and self.nodes[i] == node else Fraction(0)


Scheme._key = attrgetter("_ints")  # reduced, so one scheme has one form

PairLike = Union[Term, Sequence[Rationalish]]


def _built(sums: dict[int, int], C: int, D: int, n: Optional[int] = None) -> Scheme:
    """The one trusted build: coefficient ``sums[k] / C`` at node ``k / D`` for each
    nonzero sum, with ``C, D > 0``.  It stores the reduced integer form ``(A, da, B, db)``
    only: ``B`` strictly increasing, no zero in ``A``, ``gcd(da, *A) == gcd(db, *B) == 1``,
    so one scheme has one form however its sums were written; ``n`` goes to :func:`_from_form`."""
    keys = sorted([k for k, a in sums.items() if a])
    A = [sums[k] for k in keys]
    g, h = gcd(C, *A), gcd(D, *keys)
    return _from_form((tuple([a // g for a in A]), C // g, tuple([k // h for k in keys]), D // h), n)


def _from_form(form: tuple, n: Optional[int] = None) -> Scheme:
    """The scheme whose reduced integer form ``(A, da, B, db)`` is ``form``, stored as given; a
    caller that knows the form is normalized of order ``n`` has it keep ``OrderInfo(n, n!, 1)``."""
    scheme = object.__new__(Scheme)
    scheme.__dict__["_ints"] = form
    if n is not None:
        scheme.__dict__["_order"] = OrderInfo(n, Fraction(factorial(n)), Fraction(1))
    return scheme


def _pair_sums(read: list[tuple[int, int, int, int]]) -> tuple[dict, int, int]:
    """The sums :func:`_built` takes for the terms ``(p/q) * f(x + (r/s)*h)`` of ``read``."""
    C, D = lcm(*(q for _, q, _, _ in read)), lcm(*(s for _, _, _, s in read))
    sums: dict[int, int] = {}
    for p, q, r, s in read:
        key = r * (D // s)
        sums[key] = sums.get(key, 0) + p * (C // q)
    return sums, C, D


def canonicalize(terms: Iterable[PairLike]) -> Scheme:
    """Build a scheme from ``Term``s and (coeff, node) tuples or lists, refusing anything else:
    merge nodes, drop zeros, sort; values are read as integer pairs, so form plain ``Fraction``s."""
    read = []
    for item in _items(terms, "terms"):
        pair = (item.coeff, item.node) if isinstance(item, Term) else item
        if not isinstance(pair, (tuple, list)) or len(pair) != 2:
            raise CalculusError(f"not a (coeff, node) pair: {_echo(_shown(item))}")
        read.append((*_ratio(pair[0]), *_ratio(pair[1])))
    return _built(*_pair_sums(read))


def _over_common_denominator(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """Integers ``N_i`` and one denominator ``d`` with ``values[i] = N_i / d``."""
    d = lcm(*(v.denominator for v in values))
    return tuple([v.numerator * (d // v.denominator) for v in values]), d


def moment(scheme: Scheme, j: int) -> Fraction:
    """The j-th node moment ``sum_i a_i * b_i**j`` (exact).  Its powers have at most ``j``
    times the digits of the integer nodes (:func:`_width`), which is at most ``MAX_FAMILY_SIZE``."""
    if not _is_int(j):
        raise CalculusError("moment exponent must be an integer")
    if j < 0:
        raise CalculusError("moment exponent must be >= 0")
    coeffs, da, nodes, db = scheme._ints  # m_j = sum_i A_i * B_i**j / (da * db**j)
    _check_budget("the moment size j * digits of the nodes", j * _width([*nodes, db]), MAX_FAMILY_SIZE)
    return Fraction(sum(a * b ** j for a, b in zip(coeffs, nodes)), da * db ** j)


class OrderInfo(_Record):
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
    _check_scheme(scheme)
    if scheme.is_zero:
        raise ZeroScheme("the zero scheme has no order")
    return scheme._order


def _leading(form: tuple, limit: int) -> tuple[int, int]:
    """``(j, m_j * da * db**j)`` for the least ``j < limit`` with ``m_j != 0``, else ``(limit, 0)``:
    the one running-power pass over an integer form ``(A, da, B, db)`` that finds moments."""
    powers, _, bases, _ = form
    for j in range(limit):
        total = sum(powers)
        if total:
            return j, total
        powers = [a * b for a, b in zip(powers, bases)]
    return limit, 0


def _find_order(scheme: Scheme) -> OrderInfo:
    (j, total), (_, da, _, db) = _leading(scheme._ints, len(scheme)), scheme._ints
    _require(total != 0, "nonzero scheme with all leading moments zero")
    m_j = Fraction(total, da * db ** j)
    return OrderInfo(j, m_j, Fraction(factorial(j)) / m_j)


def normalized(scheme: Scheme) -> Scheme:
    """Rescale coefficients so the leading moment equals order factorial."""
    normalizer = order_info(scheme).normalizer
    return scheme if normalizer == 1 else combine([(normalizer, 1, scheme)])


def construct_exact(nodes: Sequence[Rationalish], n: int) -> Scheme:
    """The unique normalized scheme of order ``n`` on ``n+1`` distinct nodes.

    The moment conditions ``m_j = 0`` for ``j < n`` and ``m_n = n!`` have the
    closed-form (Lagrange) solution ``a_i = n! / prod_{j != i} (b_i - b_j)``: ``n!`` times
    the leading coefficient of the i-th Lagrange basis polynomial on the nodes, refused over
    :func:`_check_member_size` (Bjorck and Pereyra, Math. Comp. 24, 1970).  On integer nodes
    ``X_i / d`` it is ``n! * d**n * (L // P_i) / L``, ``P_i = prod_{j != i} (X_i - X_j)`` over
    ``L = lcm(P_i)``, handed to :func:`_built` as integers with the order ``n``, which it keeps.
    """
    _check_order(n)
    points = [parse_rational(b) for b in _items(nodes, "nodes")]
    if len(points) != n + 1:
        raise WrongNodeCount(
            f"order {_echo(_digits(n))} needs exactly {_echo(_digits(n + 1))} nodes,"
            f" got {len(points)}"
        )
    if len(set(points)) != len(points):
        raise DuplicateNodes("nodes must be distinct")
    _check_member_size(n, _width(points))
    X, d = _over_common_denominator(points)
    P = [prod(x - y for y in X if y != x) for x in X]
    L, top = lcm(*P), factorial(n) * d ** n
    return _built({x: top * (L // p) for x, p in zip(X, P)}, L, d, n)


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
    pairs = [parse_rational(p) for p in _items(node_pairs, "node pairs")]
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
    result keeps the input's order data: its moments are ``r**(j-n) * m_j``.
    """
    r = parse_rational(r)
    if r == 0:
        raise ZeroScale("scale factor must be nonzero")
    _check_scheme(scheme)
    if scheme.is_zero:
        raise ZeroScheme("cannot scale the zero scheme")
    info = order_info(scheme)
    scaled = combine([(r ** -info.order, r, scheme)])
    object.__setattr__(scaled, "_order", info)
    return scaled


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
    _check_scheme(scheme)
    if n is None:
        n = order_info(scheme).order
        if n == 0:
            raise InvalidOrder("the scheme has order 0; give a positive reference order to split it")
    _check_order(n)
    return scheme._odd_parts if n % 2 == 1 else scheme._even_parts


def _split(scheme: Scheme, odd: bool) -> tuple[Scheme, Scheme]:
    # coefficients A_i / d and nodes B_i / e; the halves are (A_i +- A_mirror) / (2d)
    coeffs, d, keys, e = scheme._ints
    at = dict(zip(keys, coeffs))
    mirrors = {-key: -a if odd else a for key, a in zip(keys, coeffs)}
    plus, minus = {}, {}
    for key in at.keys() | mirrors.keys():
        here, mirror = at.get(key, 0), mirrors.get(key, 0)
        plus[key], minus[key] = here + mirror, here - mirror
    return _built(plus, 2 * d, e), _built(minus, 2 * d, e)


def is_symmetric(scheme: Scheme, n: Optional[int] = None) -> bool:
    """Whether ``S(-h) = (-1)**n * S(h)`` exactly: the zero scheme, or the skew
    part from :func:`decompose` vanishes."""
    return scheme.is_zero or decompose(scheme, n)[1].is_zero


def combine(parts: Iterable[tuple[Rationalish, Rationalish, Scheme]]) -> Scheme:
    """Form ``sum_k c_k * S_k(d_k * h)``, canonical, from the integer sums of :func:`_sums`.

    Each part is a tuple or list ``(c_k, d_k, S_k)``; the dilation ``d_k`` multiplies nodes
    only (no normalizing division, unlike :func:`scale`).
    """
    return _built(*_sums(parts))


def _sums(parts: Iterable[tuple[Rationalish, Rationalish, Scheme]]) -> tuple[dict, int, int]:
    """The one summing rule of :func:`combine`: ``sum_k c_k * S_k(d_k * h)`` on integers,
    ``sums[N] / C`` (zero kept) at nodes ``N / D``, over the lcms ``C``, ``D`` of the parts'
    denominators; a part not a Scheme is canonicalized, a zero dilation refused."""
    read = []
    for item in _items(parts, "parts"):
        if not isinstance(item, (tuple, list)) or len(item) != 3:
            raise CalculusError(f"not a (coeff, dilation, scheme) part: {_echo(_shown(item))}")
        coeff, dilation, part = parse_rational(item[0]), parse_rational(item[1]), item[2]
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


def is_scale(a: Scheme, b: Scheme) -> Optional[Fraction]:
    """A factor ``r`` with ``scale(a, r) == b`` exactly, or None.

    Any valid ``r`` maps the largest-magnitude nodes of ``a`` onto those of
    ``b``, so only the two signed ratios of those magnitudes can work; each
    candidate ``c`` is checked exactly as ``combine([(c ** -n, c, a)]) == b``.
    """
    if a.is_zero or b.is_zero:
        raise ZeroScheme("scale witnesses are defined for nonzero schemes")
    if len(a) != len(b):
        return None
    (_, _, Ba, ea), (_, _, Bb, eb) = a._ints, b._ints
    max_a, max_b = max(-Ba[0], Ba[-1]), max(-Bb[0], Bb[-1])  # the nodes are sorted
    if max_a == 0 or max_b == 0:
        return Fraction(1) if a == b else None
    ratio, n = Fraction(max_b * ea, max_a * eb), order_info(a).order
    for candidate in (ratio, -ratio):
        if combine([(candidate ** -n, candidate, a)]) == b:
            return candidate
    return None


def scheme_to_json_dict(scheme: Scheme) -> dict:
    """JSON form: ``{"terms": [{"coeff": "p/q", "node": "p/q"}, ...]}``, read off the
    integer form, each value reduced by one ``gcd``."""
    _check_scheme(scheme)
    A, da, B, db = scheme._ints
    return {"terms": [
        {"coeff": _format_pair(a // g, da // g), "node": _format_pair(b // h, db // h)}
        for a, g, b, h in zip(A, map(gcd, A, [da] * len(A)), B, map(gcd, B, [db] * len(B)))
    ]}


_JSON = json.JSONDecoder(parse_int=_read_int, parse_float=str)  # parse_rational reads each exactly


def scheme_from_json(data: Union[str, dict]) -> Scheme:
    """Read a scheme from a JSON string or dict produced by scheme_to_json_dict.

    Coefficients and nodes may be 'p/q' strings, integer strings, or JSON numbers, read exactly.
    """
    if isinstance(data, str):
        try:
            data = _JSON.decode(data)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise CalculusError(f"invalid scheme JSON: {exc}") from exc
    if not isinstance(data, dict) or "terms" not in data:
        raise CalculusError("scheme JSON must be an object with a 'terms' list")
    terms = data["terms"]
    if not isinstance(terms, list):
        raise CalculusError("'terms' must be a list")
    read = []
    for entry in terms:
        if not isinstance(entry, dict) or "coeff" not in entry or "node" not in entry:
            raise CalculusError("each term needs 'coeff' and 'node'")
        read.append((*_ratio(entry["coeff"]), *_ratio(entry["node"])))
    return _built(*_pair_sums(read))


def _format_factor(mag: Fraction) -> str:
    """A positive rational as a factor: ``p`` when integral, else ``(p/q)``."""
    return _plain(mag) if mag.denominator == 1 else f"({_plain(mag)})"


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
    for coeff, node in zip(reversed(scheme.coeffs), reversed(scheme.nodes)):
        mag = abs(coeff)
        if mag == 1:
            body = _format_node(node)
        else:
            body = f"{_format_factor(mag)}*{_format_node(node)}"
        pieces.append(("- " if coeff < 0 else "+ ") + body)
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]
