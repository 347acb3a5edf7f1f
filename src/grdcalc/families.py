"""Named difference-scheme families and Gaussian-pattern recognition.

The families covered here are the classical equispaced differences, their
shifted and symmetric variants, the geometric-node ("Gaussian") differences
whose nonzero nodes are powers of a ratio ``q``, and two doubling-pattern
families used as canonical order-``n`` witnesses.  Each family is defined by
its nodes alone: every member has ``n+1`` distinct nodes (:func:`family_nodes`)
and is the unique normalized exact scheme on them, with ``m_j = 0`` for
``j < n`` and ``m_n = n!``.  One table, ``_VARIANTS``, says what each variant
is called on the command line and which of the shift ``k`` and the ratio
``q`` it takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Optional

from .scheme import (
    CalculusError,
    InvalidOrder,
    Rationalish,
    Scheme,
    ZeroScale,
    ZeroScheme,
    _check_order,
    _echo,
    _is_int,
    _require,
    canonicalize,
    construct_exact,
    format_rational,
    order_info,
    parse_rational,
)


class InvalidQ(CalculusError):
    """The ratio q of a geometric-node family must avoid 0, 1 and -1."""


class IndexOutOfRange(CalculusError):
    """Binomial index outside 0..n."""


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


@dataclass(frozen=True)
class FamilyKind:
    """A family tag with its parameters (order ``n``, shift ``k``, ratio ``q``)."""

    variant: str
    n: int
    k: Optional[int] = None
    q: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.variant not in _VARIANTS:
            raise CalculusError(f"unknown family variant {self.variant!r}")
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


def _qbinom_row(n: int, q: Fraction) -> list[Fraction]:
    """The row ``[n,0], ..., [n,n]`` of Gaussian binomials at ``q``.

    Built by the Pascal-style recurrence ``[m,i] = [m-1,i-1] + q**i * [m-1,i]``,
    which is polynomial in ``q`` and therefore also valid at ``q = +-1`` (the
    classical-binomial limit).
    """
    row = [Fraction(1)]
    for m in range(1, n + 1):
        prev = row
        row = [Fraction(1)]
        for j in range(1, m):
            row.append(prev[j - 1] + q ** j * prev[j])
        row.append(Fraction(1))
    return row


def qbinom(n: int, i: int, q: Rationalish) -> Fraction:
    """The Gaussian binomial coefficient, evaluated exactly at rational ``q``."""
    if not (0 <= i <= n):
        raise IndexOutOfRange(f"need 0 <= i <= n, got i={i}, n={n}")
    q = parse_rational(q)
    if q == 0:
        raise InvalidQ("q must be nonzero")
    return _qbinom_row(n, q)[i]


def _affine_closed_form(n: int, k: int, q: Fraction) -> Scheme:
    """Geometric-node scheme on ``q**k .. q**(k+n)`` by its closed formula.

    The coefficient at node ``q**(n+k-i)`` is
    ``q**(-n*k) * lam * (-1)**i * q**(i*(i-1)/2) * [n,i]_q`` with
    ``lam = n! / prod_{j<n} (q**n - q**j)``.
    """
    lam = Fraction(factorial(n))
    for j in range(n):
        lam /= q ** n - q ** j
    front = lam * q ** (-n * k)
    binomials = _qbinom_row(n, q)
    pairs = []
    for i in range(n + 1):
        coeff = front * Fraction(-1) ** i * q ** (i * (i - 1) // 2) * binomials[i]
        pairs.append((coeff, q ** (n + k - i)))
    return canonicalize(pairs)


def family_nodes(kind: FamilyKind) -> list[Fraction]:
    """The ``n+1`` distinct nodes of a family member (unsorted, no coefficients).

    The doubling families are the forward and symmetric geometric patterns
    at ``q = 2``.  The symmetric geometric pattern is ``+-|q|**i`` for
    ``i < (n+1)//2``, plus the node 0 at even ``n``.
    """
    n, k = kind.n, kind.k or 0
    q = Fraction(2) if kind.variant in (MZ_TILDE, MZ_TILDE_SYMMETRIC) else kind.q
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
    distinct nodes, built by the closed-form (Lagrange) construction of
    :func:`construct_exact`.  A symmetric member is no exception: its nodes
    are ``n+1`` distinct points, so the unique exact scheme on them is the
    symmetric one.  Geometric affine members are also built by their
    q-binomial product formula, and the two results must agree; a
    disagreement would mean an internal arithmetic fault and raises
    ``IdentityCheckFailed`` on every read, since the memo keeps no failure.
    """
    built = construct_exact(family_nodes(kind), kind.n)
    if kind.variant in (GAUSSIAN_AFFINE, GAUSSIAN_AFFINE_SHIFT):
        closed = _affine_closed_form(kind.n, kind.k or 0, kind.q)
        _require(
            closed == built, "q-binomial form disagrees with construction for %s", kind
        )
    return built


@dataclass(frozen=True)
class GaussianMatch:
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


def _match_candidates(scheme: Scheme, n: int) -> list[GaussianMatch]:
    """Parameterizations (variant, q, b) whose node pattern fits ``scheme``."""
    nodes = set(scheme.nodes)
    if nodes == {-b for b in nodes}:
        variant = GAUSSIAN_SYMMETRIC
        progression = sorted(b for b in nodes if b > 0)
        fits = len(progression) == (n + 1) // 2 and (0 in nodes) == (n % 2 == 0)
    else:
        variant = GAUSSIAN_FORWARD if 0 in nodes else GAUSSIAN_AFFINE
        progression = sorted((b for b in nodes if b != 0), key=abs)
        expected = n if variant == GAUSSIAN_FORWARD else n + 1
        fits = len({abs(b) for b in progression}) == len(progression) == expected
    if not fits:
        return []
    if len(progression) == 1:
        return [GaussianMatch(variant, _CANONICAL_DEGENERATE_Q, progression[0], n)]
    return [
        GaussianMatch(variant, progression[1] / progression[0], progression[0], n),
        GaussianMatch(variant, progression[-2] / progression[-1], progression[-1], n),
    ]


def _scale_onto(kind: FamilyKind, nodes: set[Fraction]) -> Optional[Fraction]:
    """A factor ``b`` whose scale of the member ``kind`` has the node set ``nodes``, or None.

    ``scale(member, b)`` has the nodes ``b * x`` for the member's nodes ``x``,
    so ``b`` maps the member's largest node magnitude onto that of ``nodes``:
    only the two signs of that ratio can work, and ``+`` is tried first, as
    :func:`~grdcalc.scheme.is_scale` does.
    """
    member = family_nodes(kind)
    top = max(abs(x) for x in nodes) / max(abs(x) for x in member)
    for b in (top, -top):
        if {b * x for x in member} == nodes:
            return b
    return None


def recognize_gaussian(scheme: Scheme) -> Optional[GaussianMatch]:
    """Identify ``scheme`` as an exact scale of a geometric-node family member.

    A candidate ratio and base are read off the node pattern (a geometric
    progression, possibly with a zero node or in symmetric pairs), and the
    node set alone decides each candidate; no coefficient is compared and no
    member is built.  That suffices because a scale ``scale(member, b)`` of
    an order-``n`` member is again a normalized order-``n`` scheme on ``n+1``
    distinct nodes, and such a scheme is unique on its nodes (the Vandermonde
    system of :func:`construct_exact` is nonsingular): a normalized scheme
    with ``n+1`` terms equals it exactly when their node sets agree.  Among
    valid parameterizations the one with ``scale_b = 1`` is preferred, then
    ``|q| > 1``, then minimal ``|scale_b|``.
    """
    if scheme.is_zero:
        raise ZeroScheme("cannot recognize the zero scheme")
    info = order_info(scheme)
    n = info.order
    if n < 1 or info.normalizer != 1 or len(scheme) != n + 1:
        return None
    nodes = set(scheme.nodes)
    verified = (
        match
        for match in _match_candidates(scheme, n)
        if _scale_onto(FamilyKind(match.variant, n, q=match.q), nodes) == match.scale_b
    )
    return min(
        verified, key=lambda m: (m.scale_b != 1, not abs(m.q) > 1, abs(m.scale_b)), default=None
    )


def scale_partners(match: GaussianMatch) -> list[GaussianMatch]:
    """Alternate parameterizations of the same scheme as exact scales.

    Candidates are the sign/inverse relatives ``-q``, ``1/q``, ``-1/q`` of
    the matched ratio (for the forward pattern at order >= 2, the affine at
    order >= 1, and the symmetric at order >= 3); a candidate is returned
    only when an exact scale witness onto the matched scheme exists, with
    ``scale_b`` adjusted so both describe the same scheme.  As in
    :func:`recognize_gaussian`, two scales of members of one order are equal
    exactly when their node sets are, so the witness is read off the nodes.
    """
    n, q = match.n, match.q
    if match.variant == GAUSSIAN_FORWARD and n < 2:
        return []
    if match.variant == GAUSSIAN_SYMMETRIC and n < 3:
        return []
    base_nodes = family_nodes(FamilyKind(match.variant, n, q=q))
    if match.scale_b == 0:
        raise ZeroScale("scale factor must be nonzero")
    target = {match.scale_b * x for x in base_nodes}
    partners = []
    for q_alt in (-q, 1 / q, -1 / q):
        witness = _scale_onto(FamilyKind(match.variant, n, q=q_alt), target)
        if witness is not None:
            candidate = GaussianMatch(match.variant, q_alt, witness, n)
            if candidate != match:
                partners.append(candidate)
    return partners


def format_family(kind: FamilyKind) -> str:
    """Render as a family string, e.g. ``gauss-aff:n=2,k=1,q=3/2``."""
    fields = [f"n={kind.n}"]
    if kind.k is not None:
        fields.append(f"k={kind.k}")
    if kind.q is not None:
        q = kind.q
        fields.append(f"q={q.numerator}" if q.denominator == 1 else f"q={q}")
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
    try:
        n = int(fields.pop("n"))
    except ValueError as exc:
        raise CalculusError("order n must be an integer") from exc
    has_k, variants = "k" in fields, _CLI_VARIANTS[head]
    if has_k not in variants:
        if has_k:
            raise CalculusError(f"family {head!r} takes no shift k")
        raise CalculusError("shifted family strings require k=<shift>")
    variant = variants[has_k]
    k: Optional[int] = None
    if has_k:
        try:
            k = int(fields.pop("k"))
        except ValueError as exc:
            raise CalculusError("shift k must be an integer") from exc
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
