"""Named difference-scheme families and Gaussian-pattern recognition.

The families covered here are the classical equispaced differences, their
shifted and symmetric variants, the geometric-node ("Gaussian") differences
whose nonzero nodes are powers of a ratio ``q``, and two doubling-pattern
families used as canonical order-``n`` witnesses.  Every family member is a
normalized exact scheme: ``n+1`` nodes carrying the unique coefficients with
``m_j = 0`` for ``j < n`` and ``m_n = n!``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Optional

from .scheme import (
    CalculusError,
    InvalidOrder,
    Rationalish,
    Scheme,
    ZeroScheme,
    _require,
    _scale_witness,
    canonicalize,
    construct_exact,
    construct_exact_symmetric,
    format_rational,
    order_info,
    parse_rational,
    scale,
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

_VARIANTS_WITH_Q = {
    GAUSSIAN_FORWARD,
    GAUSSIAN_AFFINE,
    GAUSSIAN_AFFINE_SHIFT,
    GAUSSIAN_SYMMETRIC,
    SCRIPT_D,
    SCRIPT_D_BAR,
}
_VARIANTS_WITH_K = {RIEMANN_SHIFT, GAUSSIAN_AFFINE_SHIFT}
_ALL_VARIANTS = _VARIANTS_WITH_Q | {
    RIEMANN,
    RIEMANN_SHIFT,
    SYMMETRIC_RIEMANN,
    MZ_TILDE,
    MZ_TILDE_SYMMETRIC,
}


def _check_q(q: Fraction) -> Fraction:
    if q in (0, 1, -1):
        raise InvalidQ(f"ratio q must avoid 0 and +-1, got {q}")
    return q


@dataclass(frozen=True)
class FamilyKind:
    """A family tag with its parameters (order ``n``, shift ``k``, ratio ``q``)."""

    variant: str
    n: int
    k: Optional[int] = None
    q: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.variant not in _ALL_VARIANTS:
            raise CalculusError(f"unknown family variant {self.variant!r}")
        if not isinstance(self.n, int) or self.n < 1:
            raise InvalidOrder(f"order must be a positive integer, got {self.n!r}")
        if (self.variant in _VARIANTS_WITH_K) != (self.k is not None):
            raise CalculusError(f"variant {self.variant} and shift k disagree")
        if self.k is not None and not isinstance(self.k, int):
            raise CalculusError("shift k must be an integer")
        if (self.variant in _VARIANTS_WITH_Q) != (self.q is not None):
            raise CalculusError(f"variant {self.variant} and ratio q disagree")
        if self.q is not None:
            object.__setattr__(self, "q", _check_q(parse_rational(self.q)))
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
    """The node list of a family member (unsorted, no coefficients)."""
    n, k, q = kind.n, kind.k, kind.q
    if kind.variant == RIEMANN:
        return [Fraction(j) for j in range(n + 1)]
    if kind.variant == RIEMANN_SHIFT:
        return [Fraction(k + j) for j in range(n + 1)]
    if kind.variant == SYMMETRIC_RIEMANN:
        return [Fraction(-n, 2) + j for j in range(n + 1)]
    if kind.variant == GAUSSIAN_FORWARD:
        return [Fraction(0)] + [q ** i for i in range(n)]
    if kind.variant == GAUSSIAN_AFFINE:
        return [q ** i for i in range(n + 1)]
    if kind.variant == GAUSSIAN_AFFINE_SHIFT:
        return [q ** (k + i) for i in range(n + 1)]
    if kind.variant == MZ_TILDE:
        return [Fraction(0)] + [Fraction(2) ** i for i in range(n)]
    if kind.variant == SCRIPT_D:
        return [Fraction(0), Fraction(1)] + [q ** (2 ** j) for j in range(n - 1)]
    if kind.variant == SCRIPT_D_BAR:
        return [Fraction(1)] + [q ** (2 ** j) for j in range(n)]
    raise CalculusError(f"{kind.variant} has paired nodes; use named_scheme")


def _symmetric_pairs(kind: FamilyKind) -> tuple[list[Fraction], bool]:
    """Positive node pairs and zero-node flag for the symmetric families."""
    n = kind.n
    if kind.variant == GAUSSIAN_SYMMETRIC:
        base = abs(kind.q)
        count = n // 2 if n % 2 == 0 else n // 2 + 1
        return [base ** i for i in range(count)], n % 2 == 0
    if kind.variant == MZ_TILDE_SYMMETRIC:
        m = (n - 1) // 2
        return [Fraction(2) ** i for i in range(m + 1)], n % 2 == 0
    raise CalculusError(f"{kind.variant} is not a paired-node family")


def named_scheme(kind: FamilyKind) -> Scheme:
    """Construct the normalized scheme of a named family member.

    Every member is built by the closed-form (Lagrange) construction of
    :func:`construct_exact` or :func:`construct_exact_symmetric`.  Geometric
    affine members are also built by their q-binomial product formula, and
    the two results must agree; a disagreement would mean an internal
    arithmetic fault and raises ``IdentityCheckFailed``.
    """
    if kind.variant in (GAUSSIAN_SYMMETRIC, MZ_TILDE_SYMMETRIC):
        pairs, with_zero = _symmetric_pairs(kind)
        return construct_exact_symmetric(pairs, with_zero, kind.n)
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
    out: list[GaussianMatch] = []
    if nodes == {-b for b in nodes}:
        positive = sorted(b for b in nodes if b > 0)
        expect = n // 2 if n % 2 == 0 else n // 2 + 1
        zero_ok = (0 in nodes) == (n % 2 == 0)
        if len(positive) == expect and zero_ok and positive:
            if len(positive) > 1:
                out.append(
                    GaussianMatch(GAUSSIAN_SYMMETRIC, positive[1] / positive[0], positive[0], n)
                )
                out.append(
                    GaussianMatch(GAUSSIAN_SYMMETRIC, positive[-2] / positive[-1], positive[-1], n)
                )
            else:
                out.append(
                    GaussianMatch(GAUSSIAN_SYMMETRIC, _CANONICAL_DEGENERATE_Q, positive[0], n)
                )
        return out
    nonzero = sorted((b for b in nodes if b != 0), key=abs)
    if len(set(abs(b) for b in nonzero)) != len(nonzero):
        return out
    variant = GAUSSIAN_FORWARD if 0 in nodes else GAUSSIAN_AFFINE
    expected = n if variant == GAUSSIAN_FORWARD else n + 1
    if len(nonzero) != expected:
        return out
    if len(nonzero) > 1:
        out.append(GaussianMatch(variant, nonzero[1] / nonzero[0], nonzero[0], n))
        out.append(GaussianMatch(variant, nonzero[-2] / nonzero[-1], nonzero[-1], n))
    else:
        out.append(GaussianMatch(variant, _CANONICAL_DEGENERATE_Q, nonzero[0], n))
    return out


def _member_for(match: GaussianMatch) -> FamilyKind:
    if match.variant == GAUSSIAN_FORWARD:
        return gaussian_forward(match.n, match.q)
    if match.variant == GAUSSIAN_AFFINE:
        return gaussian_affine(match.n, match.q)
    return gaussian_symmetric(match.n, match.q)


def recognize_gaussian(scheme: Scheme) -> Optional[GaussianMatch]:
    """Identify ``scheme`` as an exact scale of a geometric-node family member.

    A candidate ratio and base are read off the node pattern (a geometric
    progression, possibly with a zero node or in symmetric pairs), then the
    coefficients are checked exactly.  Among valid parameterizations the one
    with ``scale_b = 1`` is preferred, then ``|q| > 1``, then minimal
    ``|scale_b|``.
    """
    if scheme.is_zero:
        raise ZeroScheme("cannot recognize the zero scheme")
    info = order_info(scheme)
    n = info.order
    if n < 1 or info.normalizer != 1 or len(scheme) != n + 1:
        return None
    verified = []
    for match in _match_candidates(scheme, n):
        try:
            member = named_scheme(_member_for(match))
        except (InvalidQ, InvalidOrder):
            continue
        if scale(member, match.scale_b) == scheme:
            verified.append(match)
    if not verified:
        return None
    verified.sort(
        key=lambda m: (m.scale_b != 1, not abs(m.q) > 1, abs(m.scale_b))
    )
    return verified[0]


def scale_partners(match: GaussianMatch) -> list[GaussianMatch]:
    """Alternate parameterizations of the same scheme as exact scales.

    Candidates are the sign/inverse relatives ``-q``, ``1/q``, ``-1/q`` of
    the matched ratio (for the forward pattern at order >= 2, the affine at
    order >= 1, and the symmetric at order >= 3); a candidate is returned
    only when an exact scale witness onto the matched scheme exists, with
    ``scale_b`` adjusted so both describe the same scheme.
    """
    n, q = match.n, match.q
    if match.variant == GAUSSIAN_FORWARD and n < 2:
        return []
    if match.variant == GAUSSIAN_SYMMETRIC and n < 3:
        return []
    base_member = named_scheme(_member_for(match))
    target = scale(base_member, match.scale_b)
    partners = []
    for q_alt in (-q, 1 / q, -1 / q):
        alt = GaussianMatch(match.variant, q_alt, Fraction(1), n)
        try:
            member_alt = named_scheme(_member_for(alt))
        except (InvalidQ, InvalidOrder):
            continue
        witness = _scale_witness(member_alt, target)
        if witness is not None:
            candidate = GaussianMatch(match.variant, q_alt, witness, n)
            if candidate != match:
                partners.append(candidate)
    return partners


_CLI_NAMES = {
    RIEMANN: "riemann",
    RIEMANN_SHIFT: "shift",
    SYMMETRIC_RIEMANN: "riemann-sym",
    GAUSSIAN_FORWARD: "gauss-fwd",
    GAUSSIAN_AFFINE: "gauss-aff",
    GAUSSIAN_AFFINE_SHIFT: "gauss-aff",
    GAUSSIAN_SYMMETRIC: "gauss-sym",
    MZ_TILDE: "mz-tilde",
    MZ_TILDE_SYMMETRIC: "mz-tilde-sym",
    SCRIPT_D: "scriptD",
    SCRIPT_D_BAR: "scriptD-bar",
}
_CLI_VARIANTS = {
    "riemann": RIEMANN,
    "shift": RIEMANN_SHIFT,
    "riemann-sym": SYMMETRIC_RIEMANN,
    "gauss-fwd": GAUSSIAN_FORWARD,
    "gauss-aff": GAUSSIAN_AFFINE,
    "gauss-sym": GAUSSIAN_SYMMETRIC,
    "mz-tilde": MZ_TILDE,
    "mz-tilde-sym": MZ_TILDE_SYMMETRIC,
    "scriptD": SCRIPT_D,
    "scriptD-bar": SCRIPT_D_BAR,
}


def format_family(kind: FamilyKind) -> str:
    """Render as a family string, e.g. ``gauss-aff:n=2,k=1,q=3/2``."""
    fields = [f"n={kind.n}"]
    if kind.k is not None:
        fields.append(f"k={kind.k}")
    if kind.q is not None:
        q = kind.q
        fields.append(f"q={q.numerator}" if q.denominator == 1 else f"q={q}")
    return f"{_CLI_NAMES[kind.variant]}:{','.join(fields)}"


def parse_family(text: str) -> FamilyKind:
    """Parse a family string such as ``shift:n=3,k=-1`` or ``gauss-fwd:n=3,q=2``."""
    head, _, tail = text.strip().partition(":")
    if head not in _CLI_VARIANTS:
        raise CalculusError(f"unknown family name {head!r}")
    fields: dict[str, str] = {}
    if tail:
        for piece in tail.split(","):
            key, eq, value = piece.partition("=")
            if not eq or key.strip() in fields:
                raise CalculusError(f"bad family parameter {piece!r}")
            fields[key.strip()] = value.strip()
    if "n" not in fields:
        raise CalculusError("family strings require n=<order>")
    try:
        n = int(fields.pop("n"))
    except ValueError as exc:
        raise CalculusError("order n must be an integer") from exc
    variant = _CLI_VARIANTS[head]
    k: Optional[int] = None
    if "k" in fields:
        if head == "gauss-aff":
            variant = GAUSSIAN_AFFINE_SHIFT
        elif variant != RIEMANN_SHIFT:
            raise CalculusError(f"family {head!r} takes no shift k")
        try:
            k = int(fields.pop("k"))
        except ValueError as exc:
            raise CalculusError("shift k must be an integer") from exc
    elif variant == RIEMANN_SHIFT:
        raise CalculusError("shifted family strings require k=<shift>")
    q: Optional[Fraction] = None
    if variant in _VARIANTS_WITH_Q:
        if "q" not in fields:
            raise CalculusError(f"family {head!r} requires q=<ratio>")
        q = parse_rational(fields.pop("q"))
    if fields:
        raise CalculusError(f"unexpected family parameters {sorted(fields)}")
    return FamilyKind(variant, n, k=k, q=q)


def match_to_json_dict(match: GaussianMatch) -> dict:
    return {
        "variant": match.variant,
        "q": format_rational(match.q),
        "b": format_rational(match.scale_b),
        "n": match.n,
    }
