"""Named difference-scheme families and Gaussian-pattern recognition.

The families covered here are the classical equispaced differences, their
shifted and symmetric variants, the geometric-node ("Gaussian") differences
whose nonzero nodes are powers of a ratio ``q``, and two doubling-pattern
families used as canonical order-``n`` witnesses.  Each family is defined by
its nodes alone: every member has ``n+1`` distinct nodes (:func:`family_nodes`)
and is the unique normalized exact scheme on them, with ``m_j = 0`` for
``j < n`` and ``m_n = n!``.  So :func:`named_scheme` builds each member one
way, by :func:`~grdcalc.scheme.construct_exact` on those nodes, and checks
the build by those defining moments.  One table, ``_VARIANTS``, says what
each variant is called on the command line and which of the shift ``k`` and
the ratio ``q`` it takes.  Since the nodes define a member, a Gaussian
pattern is recognized by its nodes alone: a normalized scheme on ``n+1``
nodes is a scaled member exactly when its nonzero nodes share one common
ratio, and its other parameterizations are closed forms of that progression.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from typing import Optional

from .scheme import (
    CalculusError,
    InvalidOrder,
    Rationalish,
    Scheme,
    ZeroScale,
    ZeroScheme,
    _Record,
    _check_budget,
    _check_member_size,
    _check_order,
    _digits,
    _echo,
    _int_field,
    _is_int,
    _leading,
    _over_common_denominator,
    _plain,
    _require,
    _shown,
    _width,
    construct_exact,
    format_rational,
    order_info,
    parse_rational,
)


class InvalidQ(CalculusError):
    """The ratio q of a geometric-node family must avoid 0, 1 and -1."""


class IndexOutOfRange(CalculusError):
    """Binomial index outside 0..n."""


# i*(n-i) times the digits of q: bounds every product qbinom forms; README.md gives timings
MAX_QBINOM_SIZE = 2 ** 17


RIEMANN = "Riemann"
RIEMANN_SHIFT = "RiemannShift"
SYMMETRIC_RIEMANN = "SymmetricRiemann"
GAUSSIAN_FORWARD = "GaussianForward"
GAUSSIAN_AFFINE = "GaussianAffine"
GAUSSIAN_AFFINE_SHIFT = "GaussianAffineShift"
GAUSSIAN_SYMMETRIC = "GaussianSymmetric"
MZ_TILDE = "MzTilde"
MZ_TILDE_SYMMETRIC = "MzTildeSymmetric"
SCRIPT_D = "ScriptD"
SCRIPT_D_BAR = "ScriptDBar"

# variant -> (CLI name, takes shift k, takes ratio q)
_VARIANTS = {
    RIEMANN: ("riemann", False, False),
    RIEMANN_SHIFT: ("shift", True, False),
    SYMMETRIC_RIEMANN: ("riemann-sym", False, False),
    GAUSSIAN_FORWARD: ("gauss-fwd", False, True),
    GAUSSIAN_AFFINE: ("gauss-aff", False, True),
    GAUSSIAN_AFFINE_SHIFT: ("gauss-aff", True, True),
    GAUSSIAN_SYMMETRIC: ("gauss-sym", False, True),
    MZ_TILDE: ("mz-tilde", False, False),
    MZ_TILDE_SYMMETRIC: ("mz-tilde-sym", False, False),
    SCRIPT_D: ("scriptD", False, True),
    SCRIPT_D_BAR: ("scriptD-bar", False, True),
}
# CLI name -> {whether a shift k is given: variant}
_CLI_VARIANTS = {
    name: {takes_k: v for v, (other, takes_k, _) in _VARIANTS.items() if other == name}
    for name, _, _ in _VARIANTS.values()
}


class FamilyKind(_Record):
    """A family tag with its parameters (order ``n``, shift ``k``, ratio ``q``)."""

    variant: str
    n: int
    k: Optional[int] = None
    q: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if not isinstance(self.variant, str) or self.variant not in _VARIANTS:
            raise CalculusError(f"unknown family variant {_echo(_shown(self.variant))}")
        _, takes_k, takes_q = _VARIANTS[self.variant]
        _check_order(self.n)
        if takes_k != (self.k is not None):
            raise CalculusError(f"variant {self.variant} and shift k disagree")
        if self.k is not None and not _is_int(self.k):
            raise CalculusError("shift k must be an integer")
        if takes_q != (self.q is not None):
            raise CalculusError(f"variant {self.variant} and ratio q disagree")
        if self.q is not None:
            q = parse_rational(self.q)
            if q in (0, 1, -1):
                raise InvalidQ(f"ratio q must avoid 0 and +-1, got {q}")
            object.__setattr__(self, "q", q)
        if self.variant == MZ_TILDE_SYMMETRIC and self.n < 2:
            raise InvalidOrder("the symmetric doubling family starts at order 2")


def riemann(n: int) -> FamilyKind:
    return FamilyKind(RIEMANN, n)


def riemann_shift(n: int, k: int) -> FamilyKind:
    return FamilyKind(RIEMANN_SHIFT, n, k=k)


def symmetric_riemann(n: int) -> FamilyKind:
    return FamilyKind(SYMMETRIC_RIEMANN, n)


def gaussian_forward(n: int, q: Rationalish) -> FamilyKind:
    return FamilyKind(GAUSSIAN_FORWARD, n, q=parse_rational(q))


def gaussian_affine(n: int, q: Rationalish) -> FamilyKind:
    return FamilyKind(GAUSSIAN_AFFINE, n, q=parse_rational(q))


def gaussian_affine_shift(n: int, k: int, q: Rationalish) -> FamilyKind:
    return FamilyKind(GAUSSIAN_AFFINE_SHIFT, n, k=k, q=parse_rational(q))


def gaussian_symmetric(n: int, q: Rationalish) -> FamilyKind:
    return FamilyKind(GAUSSIAN_SYMMETRIC, n, q=parse_rational(q))


def mz_tilde(n: int) -> FamilyKind:
    return FamilyKind(MZ_TILDE, n)


def mz_tilde_symmetric(n: int) -> FamilyKind:
    return FamilyKind(MZ_TILDE_SYMMETRIC, n)


def script_d(n: int, q: Rationalish) -> FamilyKind:
    return FamilyKind(SCRIPT_D, n, q=parse_rational(q))


def script_d_bar(n: int, q: Rationalish) -> FamilyKind:
    return FamilyKind(SCRIPT_D_BAR, n, q=parse_rational(q))


def qbinom(n: int, i: int, q: Rationalish) -> Fraction:
    """The Gaussian binomial coefficient ``[n, i]``, evaluated exactly at rational ``q``.

    For ``q = a/b`` off ``+-1`` it is the closed form
    ``prod_{j<=i} (1 - q**(n-i+j)) / (1 - q**j)``, computed on integers as
    ``prod_{j<=i} (b**(n-i+j) - a**(n-i+j)) // prod_{j<=i} (b**j - a**j)``
    over ``b**(i*(n-i))``; the division is exact, since the quotient is the
    integer polynomial ``[n, i] * b**(i*(n-i))`` in ``a`` and ``b``.  At
    ``q = 1`` it is ``comb(n, i)``; at ``q = -1`` it is 0 for even ``n`` and
    odd ``i``, and ``comb(n//2, i//2)`` otherwise.  ``i`` is replaced by
    ``min(i, n-i)``; ``i*(n-i)`` times the digits of ``q`` (:func:`_width`), at most
    ``MAX_QBINOM_SIZE``, bounds every product formed to about twice as many digits.
    """
    if not (_is_int(n) and _is_int(i)):
        raise CalculusError("qbinom's n and i must be integers")
    if not (0 <= i <= n):
        raise IndexOutOfRange(f"need 0 <= i <= n, got i={_echo(_digits(i))}, n={_echo(_digits(n))}")
    q = parse_rational(q)
    if q == 0:
        raise InvalidQ("q must be nonzero")
    i = min(i, n - i)
    _check_budget("qbinom size i*(n-i) * digits of q", i * (n - i) * _width([q]), MAX_QBINOM_SIZE)
    if q == 1:
        return Fraction(comb(n, i))
    if q == -1:
        return Fraction(0 if n % 2 == 0 and i % 2 == 1 else comb(n // 2, i // 2))
    a, b = q.numerator, q.denominator
    top = prod(b ** (n - i + j) - a ** (n - i + j) for j in range(1, i + 1))
    bottom = prod(b ** j - a ** j for j in range(1, i + 1))
    return Fraction(top // bottom, b ** (i * (n - i)))


def _ratio(kind: FamilyKind) -> Optional[Fraction]:
    """The ratio of a member's geometric nodes: ``q``, or 2 for the doubling families."""
    return Fraction(2) if kind.variant in (MZ_TILDE, MZ_TILDE_SYMMETRIC) else kind.q


def family_nodes(kind: FamilyKind) -> list[Fraction]:
    """The ``n+1`` distinct nodes of a family member (unsorted, no coefficients).

    A member over :func:`_check_member_size` is refused before any node is
    formed, its nodes' width read off the parameters: that of ``|k| + n`` for
    the equispaced families, and for the geometric ones ``top`` times that of
    ``q``, which bounds the width of the highest power ``q**top``, for ``top``
    ``|k| + n`` or, in the script rows, ``2**(n-1)``.
    The doubling families are the forward and symmetric patterns at ``q = 2``,
    the symmetric one being ``+-|q|**i`` for ``i < (n+1)//2``, plus 0 at even ``n``.
    """
    n, k, q = kind.n, kind.k or 0, _ratio(kind)
    _check_member_size(n, 1)  # the order alone first, so that 2**(n-1) stays small
    top = 2 ** (n - 1) if kind.variant in (SCRIPT_D, SCRIPT_D_BAR) else abs(k) + n
    _check_member_size(n, _width([top]) if q is None else top * _width([q]))
    if kind.variant in (RIEMANN, RIEMANN_SHIFT):
        return [Fraction(k + j) for j in range(n + 1)]
    if kind.variant == SYMMETRIC_RIEMANN:
        return [Fraction(-n, 2) + j for j in range(n + 1)]
    if kind.variant in (GAUSSIAN_FORWARD, MZ_TILDE):
        return [Fraction(0)] + [q ** i for i in range(n)]
    if kind.variant in (GAUSSIAN_AFFINE, GAUSSIAN_AFFINE_SHIFT):
        return [q ** (k + i) for i in range(n + 1)]
    if kind.variant in (GAUSSIAN_SYMMETRIC, MZ_TILDE_SYMMETRIC):
        positive = [abs(q) ** i for i in range((n + 1) // 2)]
        zero = [Fraction(0)] if n % 2 == 0 else []
        return [-b for b in positive] + zero + positive
    if kind.variant == SCRIPT_D:
        return [Fraction(0), Fraction(1)] + [q ** (2 ** j) for j in range(n - 1)]
    return [Fraction(1)] + [q ** (2 ** j) for j in range(n)]  # SCRIPT_D_BAR


@lru_cache(maxsize=256)
def named_scheme(kind: FamilyKind) -> Scheme:
    """The normalized scheme of a named family member.

    The 256 most recently read members are kept in one memo, so a member in
    use (a fixed catalog member, a search candidate) is built once per process
    and keeps its derived order and parts for every later reader.  The bound
    keeps a long batch session from growing the memo without limit.

    Every member is the unique normalized order-``n`` scheme on its ``n+1``
    distinct nodes, built once by the closed-form (Lagrange) construction of
    :func:`construct_exact`.  A symmetric member is no exception: its nodes
    are ``n+1`` distinct points, so the unique exact scheme on them is the
    symmetric one.  Since the scheme is unique, its nodes and its defining moments
    (``m_j = 0`` for ``j < n``, ``m_n = n!``) check every variant's build completely
    (a zero coefficient cannot pass: the unique scheme has none).  :func:`_is_member`
    reads them on the integer form and the nodes, formed once, by the one moment pass
    of order detection (``scheme._leading``); the order it proves is the one that
    :func:`construct_exact` hands the member, so no reader detects it again.
    A failed check, an internal fault, raises ``IdentityCheckFailed`` on every read.
    """
    nodes, n = family_nodes(kind), kind.n
    built = construct_exact(nodes, n)
    _require(_is_member(built._ints, nodes, n), "%s fails its defining moments", kind)
    return built


def _is_member(form: tuple, nodes: list[Fraction], n: int) -> bool:
    """Whether the integer form ``(A, da, B, db)``, coefficients ``A_i / da`` at nodes
    ``B_i / db``, is the order-``n`` member on ``nodes`` (the caller's ``family_nodes``):
    on those nodes, with first nonzero moment ``m_n = n!`` (``scheme._leading``).  That
    is complete (see :func:`named_scheme`); no Scheme, order or Fraction is formed."""
    _, da, B, db = form
    given, e = _over_common_denominator(nodes)
    on_nodes = sorted(b * e for b in B) == sorted(x * db for x in given)
    return on_nodes and _leading(form, n + 1) == (n, factorial(n) * da * db ** n)


class GaussianMatch(_Record):
    """A geometric-pattern identification: ``scheme ~ scale_b * member(variant, n, q)``.

    ``scale_b = 1`` means the exact family member.  Matches produced by
    equivalence search (rather than exact scale recognition) use ``scale_b``
    for the scale relating the symmetric parts.
    """

    variant: str
    q: Fraction
    scale_b: Fraction
    n: int


_CANONICAL_DEGENERATE_Q = Fraction(2)


def _common_ratio(progression: list[int]) -> Optional[Fraction]:
    """The ratio that consecutive entries of an integer progression share, or None if
    they share none; entries over one shared denominator have the same ratios.

    With fewer than two entries every ratio fits, and 2 stands for them.
    """
    if len(progression) < 2:
        return _CANONICAL_DEGENERATE_Q
    b0, b1 = progression[:2]
    steps = zip(progression[1:], progression[2:])
    return Fraction(b1, b0) if all(high * b0 == low * b1 for low, high in steps) else None


def _match_candidates(scheme: Scheme, n: int) -> list[GaussianMatch]:
    """The readings (variant, q, b) of ``scheme``'s nodes as a scaled order-``n`` member.

    A scaled member has ``n+1`` nodes, and its nonzero ones by magnitude (the
    positive ones of a symmetric pattern) share a common ratio ``q``: they
    read as ``(q, first)`` and ``(1/q, last)``.  Off the symmetric branch they
    have distinct magnitudes, since a ``|q| = 1`` pattern is closed under negation.
    The nodes are read as their numerators ``B_i`` over the shared ``db``.
    """
    _, _, nodes, db = scheme._ints
    if len(nodes) != n + 1:
        return []
    if nodes == tuple(-x for x in reversed(nodes)):
        variant, progression = GAUSSIAN_SYMMETRIC, [x for x in nodes if x > 0]
    else:
        progression = sorted((x for x in nodes if x != 0), key=abs)
        variant = GAUSSIAN_AFFINE if len(progression) == len(nodes) else GAUSSIAN_FORWARD
    q = _common_ratio(progression)
    if q is None:
        return []
    first = GaussianMatch(variant, q, Fraction(progression[0], db), n)
    if len(progression) == 1:
        return [first]
    return [first, GaussianMatch(variant, 1 / q, Fraction(progression[-1], db), n)]


def recognize_gaussian(scheme: Scheme) -> Optional[GaussianMatch]:
    """Identify ``scheme`` as an exact scale of a geometric-node family member.

    The nodes decide: the scheme is a scaled member exactly when its nonzero
    nodes share one common ratio (:func:`_match_candidates`).  No coefficient
    is compared and no member is built, because a scale of an order-``n``
    member is again a normalized order-``n`` scheme on ``n+1`` distinct
    nodes, and such a scheme is unique on its nodes (the Vandermonde system
    of :func:`construct_exact` is nonsingular).  Of the two readings the one
    with ``scale_b = 1`` is preferred, then ``|q| > 1``, then minimal ``|scale_b|``.
    """
    if scheme.is_zero:
        raise ZeroScheme("cannot recognize the zero scheme")
    info = order_info(scheme)
    n = info.order
    if n < 1 or info.normalizer != 1:
        return None
    return min(
        _match_candidates(scheme, n),
        key=lambda m: (m.scale_b != 1, not abs(m.q) > 1, abs(m.scale_b)),
        default=None,
    )


def scale_partners(match: GaussianMatch) -> list[GaussianMatch]:
    """The other parameterizations of the same scheme as an exact scale.

    They are closed forms of the progression's readings.  The nonzero nodes
    ``b * q**i`` of an affine (``i <= n``) or forward (``i < n``, from order
    2) member read back as ``1/q`` from the last; the sign of ``q`` gives no
    other reading, since their magnitudes are distinct.  A symmetric member
    (from order 3) depends only on ``|q|``: ``-q`` at ``|b|``, and ``+-1/q``
    at ``|b| * |q|**((n+1)//2 - 1)``.
    """
    n, variant, b = match.n, match.variant, match.scale_b
    if variant == GAUSSIAN_FORWARD and n < 2 or variant == GAUSSIAN_SYMMETRIC and n < 3:
        return []
    q = FamilyKind(variant, n, q=match.q).q
    if b == 0:
        raise ZeroScale("scale factor must be nonzero")
    if variant == GAUSSIAN_SYMMETRIC:
        top = abs(b) * abs(q) ** ((n + 1) // 2 - 1)
        readings = ((-q, abs(b)), (1 / q, top), (-1 / q, top))
        return [GaussianMatch(variant, alt, witness, n) for alt, witness in readings]
    if variant not in (GAUSSIAN_FORWARD, GAUSSIAN_AFFINE):
        raise CalculusError(f"variant {variant} has no geometric scale partners")
    last = n if variant == GAUSSIAN_AFFINE else n - 1
    return [GaussianMatch(variant, 1 / q, b * q ** last, n)]


def format_family(kind: FamilyKind) -> str:
    """Render as a family string, e.g. ``gauss-aff:n=2,k=1,q=3/2``."""
    fields = [f"n={_digits(kind.n)}"]
    if kind.k is not None:
        fields.append(f"k={_digits(kind.k)}")
    if kind.q is not None:
        fields.append(f"q={_plain(kind.q)}")
    return f"{_VARIANTS[kind.variant][0]}:{','.join(fields)}"


def parse_family(text: str) -> FamilyKind:
    """Parse a family string such as ``shift:n=3,k=-1`` or ``gauss-fwd:n=3,q=2``."""
    head, _, tail = text.strip().partition(":")
    if head not in _CLI_VARIANTS:
        raise CalculusError(f"unknown family name {_echo(repr(head))}")
    fields: dict[str, str] = {}
    if tail:
        for piece in tail.split(","):
            key, eq, value = piece.partition("=")
            if not eq or key.strip() in fields:
                raise CalculusError(f"bad family parameter {_echo(repr(piece))}")
            fields[key.strip()] = value.strip()
    if "n" not in fields:
        raise CalculusError("family strings require n=<order>")
    n = _int_field(fields.pop("n"), "order n must be an integer")
    has_k, variants = "k" in fields, _CLI_VARIANTS[head]
    if has_k not in variants:
        if has_k:
            raise CalculusError(f"family {head!r} takes no shift k")
        raise CalculusError("shifted family strings require k=<shift>")
    variant = variants[has_k]
    k = _int_field(fields.pop("k"), "shift k must be an integer") if has_k else None
    q: Optional[Fraction] = None
    if _VARIANTS[variant][2]:
        if "q" not in fields:
            raise CalculusError(f"family {head!r} requires q=<ratio>")
        q = parse_rational(fields.pop("q"))
    if fields:
        raise CalculusError(f"unexpected family parameters {_echo(repr(sorted(fields)))}")
    return FamilyKind(variant, n, k=k, q=q)


def match_to_json_dict(match: GaussianMatch) -> dict:
    return {
        "variant": match.variant,
        "q": format_rational(match.q),
        "b": format_rational(match.scale_b),
        "n": match.n,
    }
