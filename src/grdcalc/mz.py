"""Catalog of known mean-value (MZ) verdicts for differentiation schemes.

A scheme of order ``n`` has the MZ property when, for continuous functions,
existence of its derived limit together with ``n-1`` ordinary derivatives
forces the full ``n``-th Taylor expansion.  The property is invariant under
equivalence, which is what every positive or negative verdict here leans
on: geometric-node (Gaussian) schemes have it, the order-3 backward shift
has it, while the classical equispaced schemes of orders 3 and 7 provably do
not, and the symmetric second difference does not in the plain
(non-symmetric) sense.  The doubling-node witnesses (nodes ``0, 1, 2, ...,
2**(n-1)``, and their symmetric form) are the ``q = 2`` geometric members,
and the symmetric second difference is the order-2 symmetric geometric
member for every ``q``, so the Gaussian search settles all three.
Everything outside the cataloged facts stays ``open`` and is tagged with
the conjecture that governs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .equivalence import Witness, decide_equivalent, equivalent_gaussian
from .families import (
    GAUSSIAN_AFFINE,
    GAUSSIAN_FORWARD,
    GAUSSIAN_SYMMETRIC,
    GaussianMatch,
    OrderBudgetExceeded,
    _is_member,
    _power_digits,
    gaussian_affine,
    gaussian_affine_shift,
    match_to_json_dict,
    named_scheme,
    riemann,
    riemann_shift,
    symmetric_riemann,
)
from .scheme import (
    CalculusError,
    Rationalish,
    Scheme,
    ZeroScheme,
    _check_order,
    _digits,
    _echo,
    _is_int,
    _require,
    combine,
    is_symmetric,
    order_info,
    parse_rational,
    scale,
    scheme_to_json_dict,
)


class NotNormalized(CalculusError):
    """MZ verdicts are cataloged for normalized schemes only."""


class MixedOrders(CalculusError):
    """A scheme set for a joint verdict must share one order."""


class MissingOrder(CalculusError):
    """A differentiation chain must cover every order 0..n exactly once."""


class DuplicateOrder(CalculusError):
    """A differentiation chain lists some order twice."""


STATUS_MZ = "known-mz"
STATUS_NOT_MZ = "known-not-mz"
STATUS_OPEN = "open"

CONJECTURE_RIEMANN = "R-MZ"
CONJECTURE_GAUSSIAN = "G-MZ"
CONJECTURE_NONE = "none"

CERT_GAUSSIAN = "EquivalentToGaussian"
CERT_D31 = "EquivalentToD31"
CERT_RIEMANN_NOT_MZ = "RiemannProvenNotMZ"
CERT_D2S_NOT_MZ = "SymmetricD2sNotMZ"
CERT_GGR_SET = "GgrSet"

_RIEMANN_NOT_MZ_ORDERS = (3, 7)


@dataclass(frozen=True)
class Certificate:
    """The fact a verdict rests on: an equivalence, a cited order, or a set."""

    kind: str
    match: Optional[GaussianMatch] = None
    witness: Optional[Witness] = None
    n: Optional[int] = None
    reduced: Optional[bool] = None

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.match is not None:
            out["match"] = match_to_json_dict(self.match)
        if self.witness is not None:
            out["witness"] = self.witness.to_json_dict()
        if self.n is not None:
            out["n"] = self.n
        if self.reduced is not None:
            out["reduced"] = self.reduced
        return out


@dataclass(frozen=True)
class MzVerdict:
    """Status plus the certificate (for known verdicts) or conjecture tag."""

    status: str
    certificate: Optional[Certificate]
    conjecture: str

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "certificate": self.certificate.to_json_dict() if self.certificate else None,
            "conjecture": self.conjecture,
        }


def _check_input(scheme: Scheme, symmetric_mode: bool) -> int:
    if scheme.is_zero:
        raise ZeroScheme("MZ verdicts are defined for nonzero schemes")
    info = order_info(scheme)
    if info.normalizer != 1:
        raise NotNormalized("normalize the scheme before asking for an MZ verdict")
    if symmetric_mode and not is_symmetric(scheme):
        raise CalculusError("symmetric-mode verdicts require a symmetric scheme")
    return info.order


def mz_check(scheme: Scheme, symmetric_mode: bool = False) -> MzVerdict:
    """Catalog verdict for one normalized scheme.

    Positive verdicts come from an equivalence onto a family with the
    property: a geometric-node member, found by the Gaussian search, or for
    order 3 the backward shift.  The doubling-node witness of each order is
    the forward member with ``q = 2`` (in symmetric mode, the symmetric
    member with ``q = 2``), so the search certifies it.  Negative verdicts
    come from the proven orders 3 and 7 of the equispaced family and, in
    plain mode, from the symmetric second difference, which the search
    matches as the order-2 symmetric member.  Anything else is open, tagged
    with the equispaced conjecture when the scheme is equivalent to that
    family and with the general geometric conjecture otherwise.  Symmetric
    mode walks the same catalog with its symmetric facts only: symmetric
    members certify, and the equispaced family is the symmetric one.
    """
    n = _check_input(scheme, symmetric_mode)
    match = equivalent_gaussian(scheme)
    certified = (
        (GAUSSIAN_SYMMETRIC,) if symmetric_mode else (GAUSSIAN_FORWARD, GAUSSIAN_AFFINE)
    )
    if match is not None and match.variant in certified:
        return MzVerdict(
            STATUS_MZ, Certificate(CERT_GAUSSIAN, match=match), CONJECTURE_NONE
        )
    if match is not None and match.variant == GAUSSIAN_SYMMETRIC and n == 2:
        return MzVerdict(
            STATUS_NOT_MZ, Certificate(CERT_D2S_NOT_MZ, n=2), CONJECTURE_NONE
        )
    if n == 3 and not symmetric_mode:
        backward = decide_equivalent(scheme, named_scheme(riemann_shift(3, -1)))
        if backward.equivalent:
            return MzVerdict(
                STATUS_MZ,
                Certificate(CERT_D31, witness=backward.witness),
                CONJECTURE_NONE,
            )
    equispaced = symmetric_riemann(n) if symmetric_mode else riemann(n)
    riemann_like = decide_equivalent(scheme, named_scheme(equispaced))
    if riemann_like.equivalent:
        if n in _RIEMANN_NOT_MZ_ORDERS and not symmetric_mode:
            return MzVerdict(
                STATUS_NOT_MZ, Certificate(CERT_RIEMANN_NOT_MZ, n=n), CONJECTURE_NONE
            )
        return MzVerdict(STATUS_OPEN, None, CONJECTURE_RIEMANN)
    return MzVerdict(STATUS_OPEN, None, CONJECTURE_GAUSSIAN)


# budgets on the work one input can ask for; README.md gives timings
MAX_GGR_ORDER = 128
MAX_QGGR_SIZE = 2 ** 13  # the order times the digits of the largest member node


def ggr_set(n: int, reduced: bool = False) -> list[Scheme]:
    """The backward-shift scheme set whose joint existence forces the Taylor
    expansion: shifts ``k = 1..n``, or ``k = 1..floor(n/2)`` in the reduced
    form (the reduced form of order 1 is the full singleton).  ``n`` is at
    most ``MAX_GGR_ORDER``."""
    _check_order(n)
    if n > MAX_GGR_ORDER:
        raise OrderBudgetExceeded(
            f"the ggr order must be at most {MAX_GGR_ORDER}, got {_echo(_digits(n))}"
        )
    count = max(1, n // 2) if reduced else n
    return [named_scheme(riemann_shift(n, -k)) for k in range(1, count + 1)]


def verify_quantum_ggr(
    n: int, ell: int, q: Rationalish
) -> list[tuple[int, Fraction]]:
    """Verify the geometric analog of the shifted-set reduction.

    For each shift ``k`` in ``ell..ell+n`` the scale by exactly ``q**k`` of
    the unshifted geometric member, the one member built, must be the shifted
    member, checked by that member's defining property (``_is_member``); the
    witnesses are returned and any failure is an internal arithmetic fault.
    The nodes reach ``q**(|ell| + 2n)``, and ``n`` times the digits of that
    node is at most ``MAX_QGGR_SIZE``.
    """
    _check_order(n)
    if not _is_int(ell):
        raise CalculusError("the shift window start must be an integer")
    q = parse_rational(q)
    size = n * _power_digits(q, abs(ell) + 2 * n)
    if size > MAX_QGGR_SIZE:
        raise OrderBudgetExceeded(
            f"qggr too large: the order times the digits of q**(|ell|+2n) is"
            f" {_echo(_digits(size))}, above {MAX_QGGR_SIZE}"
        )
    base = named_scheme(gaussian_affine(n, q))
    witnesses = [(k, q ** k) for k in range(ell, ell + n + 1)]
    for k, r in witnesses:
        fits = _is_member(scale(base, r), gaussian_affine_shift(n, k, q))
        _require(fits, "shift %s is not the scale by %s**%s", k, q, k)
    return witnesses


def mz_set_check(schemes: Sequence[Scheme]) -> MzVerdict:
    """Joint verdict for a set of same-order schemes.

    The set is known MZ when any member is, or when it covers a full or
    reduced backward-shift set up to per-member equivalence; otherwise open.
    """
    if not schemes:
        raise CalculusError("the scheme set must be nonempty")
    orders = {order_info(s).order for s in schemes}
    if len(orders) != 1:
        raise MixedOrders(f"the set mixes orders {sorted(orders)}")
    n = orders.pop()
    member_verdicts = [mz_check(s) for s in schemes]
    for verdict in member_verdicts:
        if verdict.status == STATUS_MZ:
            return verdict
    # the reduced targets are a prefix of the full ones, so the count of
    # shifts covered before the first uncovered one decides both covers
    covered = 0
    for target in ggr_set(n):
        if not any(decide_equivalent(target, s).equivalent for s in schemes):
            break
        covered += 1
    if covered >= len(ggr_set(n, reduced=True)):
        certificate = Certificate(CERT_GGR_SET, n=n, reduced=covered < n)
        return MzVerdict(STATUS_MZ, certificate, CONJECTURE_NONE)
    riemann_governed = all(
        v.conjecture == CONJECTURE_RIEMANN
        or (v.certificate is not None and v.certificate.kind == CERT_RIEMANN_NOT_MZ)
        for v in member_verdicts
    )
    conjecture = CONJECTURE_RIEMANN if riemann_governed else CONJECTURE_GAUSSIAN
    return MzVerdict(STATUS_OPEN, None, conjecture)


class ContinuityMarker:
    """Placeholder for the order-0 entry of a differentiation chain."""

    _instance: Optional["ContinuityMarker"] = None

    def __new__(cls) -> "ContinuityMarker":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ContinuityMarker()"


CONTINUITY = ContinuityMarker()

ChainEntry = Union[Scheme, ContinuityMarker]

PEANO_ALL_MZ = "EstablishedByAllMZ"
PEANO_IDENTITY = "EstablishedByIdentity"
PEANO_UNKNOWN = "Unknown"


@dataclass(frozen=True)
class NTimesReport:
    """Whether a chain of schemes of orders 0..n is known to capture the
    full Taylor expansion (n-times differentiability)."""

    orders_present: tuple[int, ...]
    per_order: tuple[tuple[int, MzVerdict], ...]
    all_mz: bool
    peano_equivalence: str
    identity_certificate: Optional[Scheme]
    note: str

    def to_json_dict(self) -> dict:
        return {
            "orders_present": list(self.orders_present),
            "per_order": [
                {"order": j, "verdict": v.to_json_dict()} for j, v in self.per_order
            ],
            "all_mz": self.all_mz,
            "peano_equivalence": self.peano_equivalence,
            "identity_certificate": (
                scheme_to_json_dict(self.identity_certificate)
                if self.identity_certificate
                else None
            ),
            "note": self.note,
        }


def _detect_identity_chain(entries: dict[int, ChainEntry]) -> Optional[Scheme]:
    """The order-2 rewrite certificate for the chain ending in the order-3
    backward shift: adding the symmetric second difference to it yields the
    plain forward second difference, which is a geometric-node scheme."""
    if set(entries) != {0, 1, 2, 3}:
        return None
    d1, d2s, d31 = (
        named_scheme(kind) for kind in (riemann(1), symmetric_riemann(2), riemann_shift(3, -1))
    )
    stages = zip((entries[1], entries[2], entries[3]), (d1, d2s, d31))
    if not all(decide_equivalent(entry, target).equivalent for entry, target in stages):
        return None
    certificate = combine([(1, 1, d31), (1, 1, d2s)])
    _require(certificate == named_scheme(riemann(2)), "rewrite identity failed")
    return certificate


def _missing_orders(orders: list[int]) -> str:
    """The orders up to ``max(orders)`` that the sorted ``orders`` (from 0) lack, quoted by
    ``_echo`` as one ``low..high`` per gap (the order alone for a gap of one); empty when none
    is missing.  The text grows with the digits of the given orders, not with the orders."""
    gaps = [(low + 1, high - 1) for low, high in zip(orders, orders[1:]) if high > low + 1]
    shown = (_digits(low) if low == high else f"{_digits(low)}..{_digits(high)}" for low, high in gaps)
    return _echo(", ".join(shown))


def n_times_check(chain: Sequence[tuple[int, ChainEntry]]) -> NTimesReport:
    """Analyze a chain of (order, scheme) entries with a continuity marker
    at order 0.

    The chain certifies n-times differentiability when every order-j entry
    is known MZ (each step upgrades the previous Peano expansion), or, for
    the specific order-3 chain through the symmetric second difference,
    via the exact rewrite identity.  Otherwise the verdict is unknown: a
    chain whose top-order scheme lacks the MZ property cannot certify the
    expansion.
    """
    entries: dict[int, ChainEntry] = {}
    for order, entry in chain:
        if not _is_int(order) or order < 0:
            shown = _digits(order) if _is_int(order) else repr(order)
            raise CalculusError(f"chain orders must be integers >= 0, got {_echo(shown)}")
        if order in entries:
            raise DuplicateOrder(f"order {_echo(_digits(order))} appears twice")
        entries[order] = entry
    if 0 not in entries or not isinstance(entries[0], ContinuityMarker):
        raise MissingOrder("the chain needs a continuity marker at order 0")
    n = max(entries)
    missing = _missing_orders(sorted(entries))
    if missing:
        raise MissingOrder(f"chain misses orders {missing}")
    if n < 1:
        raise MissingOrder("the chain needs at least one scheme above order 0")
    for order in range(1, n + 1):
        entry = entries[order]
        if isinstance(entry, ContinuityMarker):
            raise CalculusError("continuity markers are only valid at order 0")
        detected = order_info(entry).order
        if detected != order:
            raise CalculusError(
                f"entry at position {order} actually differentiates {detected} times"
            )
    per_order = tuple(
        (order, mz_check(entries[order])) for order in range(1, n + 1)
    )
    all_mz = all(v.status == STATUS_MZ for _, v in per_order)
    identity = None if all_mz else _detect_identity_chain(entries)
    if all_mz:
        peano = PEANO_ALL_MZ
        note = "every stage is known MZ, so the chain forces the full expansion"
    elif identity is not None:
        peano = PEANO_IDENTITY
        note = (
            "the order-2 stage is not MZ by itself, but adding it to the "
            "order-3 scheme rewrites into the plain second difference"
        )
    else:
        peano = PEANO_UNKNOWN
        note = (
            "not certified: a chain certifies the expansion only if its "
            "top-order scheme has the MZ property"
        )
    return NTimesReport(
        orders_present=tuple(sorted(entries)),
        per_order=per_order,
        all_mz=all_mz,
        peano_equivalence=peano,
        identity_certificate=identity,
        note=note,
    )
