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
the conjecture that governs it.  ``DEMOS`` (the ``demo`` verb) re-derives
the paper's claims from this catalog at run time, each step checked exactly:
Gaussian derivatives are MZ, and the Gaussian conjecture fails by scales, by
the classification and by the independent counterexample D31.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import grdcalc

from .equivalence import Witness, class_member, decide_equivalent, equivalent_gaussian
from .families import (
    GAUSSIAN_AFFINE,
    GAUSSIAN_FORWARD,
    GAUSSIAN_SYMMETRIC,
    GaussianMatch,
    _is_member,
    family_nodes,
    gaussian_affine,
    gaussian_affine_shift,
    gaussian_forward,
    match_to_json_dict,
    mz_tilde,
    named_scheme,
    recognize_gaussian,
    riemann,
    riemann_shift,
    symmetric_riemann,
)
from .scheme import (
    CalculusError,
    InvalidOrder,
    Rationalish,
    Scheme,
    ZeroScheme,
    _Record,
    _check_budget,
    _check_order,
    _check_scheme,
    _digits,
    _echo,
    _from_form,
    _is_int,
    _items,
    _require,
    _shown,
    _sums,
    _width,
    canonicalize,
    combine,
    decompose,
    format_rational,
    format_scheme,
    is_scale,
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


class Certificate(_Record):
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


class MzVerdict(_Record):
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


def _check_input(scheme: Scheme, symmetric_mode: bool) -> tuple[tuple, int]:
    _check_scheme(scheme)
    if scheme.is_zero:
        raise ZeroScheme("MZ verdicts are defined for nonzero schemes")
    info = order_info(scheme)
    if info.order == 0:
        raise InvalidOrder("MZ verdicts are defined for orders 1 and up; this scheme has order 0")
    if info.normalizer != 1:
        raise NotNormalized("normalize the scheme before asking for an MZ verdict")
    if symmetric_mode and not is_symmetric(scheme):
        raise CalculusError("symmetric-mode verdicts require a symmetric scheme")
    return scheme._ints, info.order


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
    members certify, and the equispaced family is the symmetric one.  The input is checked
    here, once; the verdict is kept by its integer form and the mode, in :func:`_decide_mz`'s memo.
    """
    return _decide_mz(*_check_input(scheme, symmetric_mode), bool(symmetric_mode))


# each decider keeps 256 verdicts (``named_scheme``'s bound) by the integer forms it is given:
# one scheme however written is decided once, no memo holds a Scheme, and a raise is never kept
@lru_cache(maxsize=256)
def _decide_mz(form: tuple, n: int, symmetric_mode: bool) -> MzVerdict:
    scheme = _from_form(form, n)
    match = equivalent_gaussian(scheme)
    certified = (GAUSSIAN_SYMMETRIC,) if symmetric_mode else (GAUSSIAN_FORWARD, GAUSSIAN_AFFINE)
    if match is not None and match.variant in certified:
        return MzVerdict(STATUS_MZ, Certificate(CERT_GAUSSIAN, match=match), CONJECTURE_NONE)
    if match is not None and match.variant == GAUSSIAN_SYMMETRIC and n == 2:
        return MzVerdict(STATUS_NOT_MZ, Certificate(CERT_D2S_NOT_MZ, n=2), CONJECTURE_NONE)
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
MAX_QGGR_SIZE = 2 ** 12  # n * (|ell| + 2n) times the digits of q, which bound the largest node's


def _ggr_count(n: int, reduced: bool) -> int:
    """How many backward shifts the full or reduced order-``n`` set holds."""
    return max(1, n // 2) if reduced else n


def ggr_set(n: int, reduced: bool = False) -> list[Scheme]:
    """The backward-shift scheme set whose joint existence forces the Taylor
    expansion: shifts ``k = 1..n``, or ``k = 1..floor(n/2)`` in the reduced
    form (the reduced form of order 1 is the full singleton).  ``n`` is at
    most ``MAX_GGR_ORDER``."""
    _check_order(n)
    _check_budget("the ggr order", n, MAX_GGR_ORDER)
    return [named_scheme(riemann_shift(n, -k)) for k in range(1, _ggr_count(n, reduced) + 1)]


def verify_quantum_ggr(
    n: int, ell: int, q: Rationalish
) -> list[tuple[int, Fraction]]:
    """Verify the geometric analog of the shifted-set reduction.

    For each shift ``k`` in ``ell..ell+n`` the scale by exactly ``q**k`` of
    the unshifted geometric member, the one member built, must be the shifted
    member: ``_is_member`` checks its nodes, formed once, and its moments, by the
    one moment pass ``scheme._leading``, on the scale's integer sums (``_sums``), no
    Scheme built; the witnesses are returned and any failure is an internal fault.
    The nodes reach ``q**(|ell| + 2n)``, and ``n * (|ell| + 2n)`` times the
    digits of ``q`` (:func:`_width`) is at most ``MAX_QGGR_SIZE``.
    """
    _check_order(n)
    if not _is_int(ell):
        raise CalculusError("the shift window start must be an integer")
    q = parse_rational(q)
    size = n * (abs(ell) + 2 * n) * _width([q])
    _check_budget("qggr size n * digits of q**(|ell|+2n)", size, MAX_QGGR_SIZE)
    base = named_scheme(gaussian_affine(n, q))
    witnesses = [(k, q ** k) for k in range(ell, ell + n + 1)]
    for k, r in witnesses:
        sums, C, D = _sums([(r ** -n, r, base)])  # scale(base, r) as (A, da, B, db)
        nodes = family_nodes(gaussian_affine_shift(n, k, q))
        fits = _is_member((list(sums.values()), C, list(sums), D), nodes, n)
        _require(fits, "shift %s is not the scale by %s**%s", k, q, k)
    return witnesses


def mz_set_check(schemes: Sequence[Scheme]) -> MzVerdict:
    """Joint verdict for a set of same-order schemes.

    The set is known MZ when any member is, or when it covers a full or
    reduced backward-shift set up to per-member equivalence; otherwise open.  Each member is
    checked here, once, after the set's own checks; :func:`_decide_mz_set` reads its verdict from
    :func:`_decide_mz`'s memo and keeps the set's by the members' integer forms, in order.
    """
    schemes = list(_items(schemes, "the scheme set"))
    if not schemes:
        raise CalculusError("the scheme set must be nonempty")
    for k, entry in enumerate(schemes):
        if not isinstance(entry, Scheme):
            raise CalculusError(f"entry at position {k} is a {type(entry).__name__}, not a scheme")
    orders = {order_info(s).order for s in schemes}
    if len(orders) != 1:
        raise MixedOrders(f"the set mixes orders {_echo(', '.join(map(_digits, sorted(orders))))}")
    return _decide_mz_set(tuple([_check_input(s, False)[0] for s in schemes]), orders.pop())


@lru_cache(maxsize=256)
def _decide_mz_set(forms: tuple, n: int) -> MzVerdict:
    member_verdicts = [_decide_mz(form, n, False) for form in forms]
    for verdict in member_verdicts:
        if verdict.status == STATUS_MZ:
            return verdict
    _check_budget("the order of an mz-set backward-shift cover", n, MAX_GGR_ORDER)
    schemes = [_from_form(form, n) for form in forms]
    # the reduced targets are a prefix of the full ones, each built when the cover reaches
    # it, so the count of shifts covered before the first uncovered one decides both covers
    covered = 0
    for k in range(1, n + 1):
        target = named_scheme(riemann_shift(n, -k))
        if not any(decide_equivalent(target, s).equivalent for s in schemes):
            break
        covered += 1
    if covered >= _ggr_count(n, reduced=True):
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
_PEANO_NOTES = {
    PEANO_ALL_MZ: "every stage is known MZ, so the chain forces the full expansion",
    PEANO_IDENTITY: (
        "the order-2 stage is not MZ by itself, but adding it to the "
        "order-3 scheme rewrites into the plain second difference"
    ),
    PEANO_UNKNOWN: (
        "not certified: a chain certifies the expansion only if its "
        "top-order scheme has the MZ property"
    ),
}


class NTimesReport(_Record):
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


def _is_identity_chain(stages: list[Scheme]) -> bool:
    """Whether the stages of orders 1..n are the order-3 chain through the symmetric second
    difference ending in the backward shift, which :func:`_identity_certificate` certifies."""
    if len(stages) != 3:
        return False
    targets = (riemann(1), symmetric_riemann(2), riemann_shift(3, -1))
    return all(decide_equivalent(s, named_scheme(t)).equivalent for s, t in zip(stages, targets))


def _identity_certificate() -> Scheme:
    """The order-2 rewrite certificate for the chain ending in the order-3
    backward shift: adding the symmetric second difference to it yields the
    plain forward second difference, which is a geometric-node scheme."""
    d2s, d31 = named_scheme(symmetric_riemann(2)), named_scheme(riemann_shift(3, -1))
    certificate = combine([(1, 1, d31), (1, 1, d2s)])
    _require(certificate == named_scheme(riemann(2)), "rewrite identity failed")
    return certificate


@lru_cache(maxsize=256)
def _decide_chain(forms: tuple) -> tuple[tuple, str]:
    """The per-order verdicts and Peano status of a checked chain, by its stages' forms."""
    per_order = tuple((j, _decide_mz(form, j, False)) for j, form in enumerate(forms, 1))
    if all(v.status == STATUS_MZ for _, v in per_order):
        return per_order, PEANO_ALL_MZ
    stages = [_from_form(form, j) for j, form in enumerate(forms, 1)]
    return per_order, PEANO_IDENTITY if _is_identity_chain(stages) else PEANO_UNKNOWN


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
    expansion.  Each stage is checked here, once, after the chain's own checks; its verdict is
    read from :func:`_decide_mz`'s memo, and the verdicts and status are kept by the stages'
    integer forms in :func:`_decide_chain`'s memo, not the certificate: it holds no scheme.
    """
    entries: dict[int, ChainEntry] = {}
    for item in _items(chain, "the chain"):
        if not isinstance(item, (tuple, list)) or len(item) != 2:
            raise CalculusError(f"not an (order, scheme) entry: {_echo(_shown(item))}")
        order, entry = item
        if not _is_int(order) or order < 0:
            raise CalculusError(f"chain orders must be integers >= 0, got {_echo(_shown(order))}")
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
    stages = [entries[order] for order in range(1, n + 1)]
    for order, entry in enumerate(stages, 1):
        if isinstance(entry, ContinuityMarker):
            raise CalculusError("continuity markers are only valid at order 0")
        if not isinstance(entry, Scheme):
            raise CalculusError(f"entry at position {order} is a {type(entry).__name__}, not a scheme")
        detected = order_info(entry).order
        if detected != order:
            raise CalculusError(
                f"entry at position {order} actually differentiates {detected} times"
            )
    per_order, peano = _decide_chain(tuple([_check_input(s, False)[0] for s in stages]))
    return NTimesReport(
        orders_present=tuple(sorted(entries)),
        per_order=per_order,
        all_mz=peano == PEANO_ALL_MZ,
        peano_equivalence=peano,
        identity_certificate=_identity_certificate() if peano == PEANO_IDENTITY else None,
        note=_PEANO_NOTES[peano],
    )


# ---------------------------------------------------------------------------
# demo suite: each demo recomputes a claim of the paper and checks it exactly


def _witness(a: Scheme, b: Scheme, constants: tuple) -> Witness:
    """The witness of ``a ~ b``, required to be exactly ``constants``, the ``(r, s, A, B)``."""
    verdict = decide_equivalent(a, b)
    _require(verdict.equivalent, "must be equivalent")
    w = verdict.witness
    _require((w.r, w.s, w.sym_factor, w.skew_factor) == constants, "witness must be %s", constants)
    return w


def _known_mz(verdict: MzVerdict, kind: str) -> Certificate:
    """The certificate of ``verdict``, required to be ``known-mz`` by a certificate of ``kind``."""
    _require(verdict.status == STATUS_MZ, "must be known MZ")
    certificate = verdict.certificate
    _require(certificate is not None and certificate.kind == kind, "must be certified by %s", kind)
    return certificate


def _demo_e1() -> tuple[list[str], dict]:
    member = named_scheme(gaussian_affine(2, 2))
    _require(member == canonicalize(
        [(Fraction(2, 3), 1), (Fraction(-1), 2), (Fraction(1, 3), 4)]
    ), "affine member mismatch")
    scaled = scale(member, 2)
    _require(scaled == canonicalize(
        [(Fraction(1, 6), 2), (Fraction(-1, 4), 4), (Fraction(1, 12), 8)]
    ), "scale-by-2 mismatch")
    match = recognize_gaussian(scaled)
    _require(match is not None and match.variant == GAUSSIAN_AFFINE, "recognition failed")
    _require(match.q == 2 and match.scale_b == 2, "expected q=2, b=2")
    lines = [
        f"scale by 2 of the geometric second difference: {format_scheme(scaled)}",
        "recognize: scale-of-affine q=2 b=2",
        "exact-gaussian: none (the scheme is a scale of a member, not a member)",
    ]
    facts = {
        "scheme": scheme_to_json_dict(scaled),
        "match": match_to_json_dict(match),
        "exact_member": match.scale_b == 1,
    }
    return lines, facts


def _demo_e2() -> tuple[list[str], dict]:
    member = named_scheme(gaussian_affine(2, 2))
    mixed = class_member(member, 1, 1, 3)
    expected = canonicalize(
        [
            (Fraction(2, 3), 4),
            (Fraction(-2), 2),
            (Fraction(4, 3), 1),
            (Fraction(-2, 3), -1),
            (Fraction(1), -2),
            (Fraction(-1, 3), -4),
        ]
    )
    _require(mixed == expected, "mixed-part scheme mismatch")
    w = _witness(member, mixed, (1, 1, 1, 3))
    _require(is_scale(member, mixed) is None, "must not be a plain scale")
    _known_mz(mz_check(mixed), CERT_GAUSSIAN)
    lines = [
        f"plus + 3*minus of the geometric member: {format_scheme(mixed)}",
        "equivalent to the member with witness A=1, B=3 (r=s=1)",
        "is_scale: none — equivalent but not a scale",
        "mz-check: known-mz",
    ]
    facts = {
        "scheme": scheme_to_json_dict(mixed),
        "witness": w.to_json_dict(),
        "is_scale": None,
        "mz_status": STATUS_MZ,
    }
    return lines, facts


def _demo_e3() -> tuple[list[str], dict]:
    first = named_scheme(gaussian_affine(1, 2))
    _require(first == canonicalize([(-1, 1), (1, 2)]), "geometric first difference")
    scaled = scale(first, 2)
    _require(scaled == canonicalize(
        [(Fraction(-1, 2), 2), (Fraction(1, 2), 4)]
    ), "scale mismatch")
    a = canonicalize([(-1, 0), (1, 1)])
    b = canonicalize([(2, -1), (-5, 0), (3, 1)])
    fw = _witness(a, b, (1, 1, 1, 5))
    rw = _witness(b, a, (1, 1, 1, Fraction(1, 5)))
    lines = [
        f"geometric first difference: {format_scheme(first)}",
        f"its scale by 2: {format_scheme(scaled)}",
        "witness forward: A=1 B=5;  reverse: A=1 B=1/5 (r=s=1)",
    ]
    facts = {
        "scaled": scheme_to_json_dict(scaled),
        "forward_witness": fw.to_json_dict(),
        "reverse_witness": rw.to_json_dict(),
    }
    return lines, facts


def _demo_e13() -> tuple[list[str], dict]:
    base = named_scheme(riemann_shift(3, -1))
    plus, minus = decompose(base, 3)
    _require(plus == canonicalize(
        [(Fraction(-1, 2), -2), (1, -1), (-1, 1), (Fraction(1, 2), 2)]
    ), "symmetric part mismatch")
    _require(minus == canonicalize(
        [(Fraction(1, 2), -2), (-2, -1), (3, 0), (-2, 1), (Fraction(1, 2), 2)]
    ), "skew part mismatch")
    nabla = class_member(base, 1, 1, Fraction(1, 2))
    expected = canonicalize(
        [(Fraction(-1, 4), -2), (Fraction(3, 2), 0), (-2, 1), (Fraction(3, 4), 2)]
    )
    _require(nabla == expected, "class member mismatch")
    w = _witness(base, nabla, (1, 1, 1, Fraction(1, 2)))
    _require(is_scale(base, nabla) is None)
    lines = [
        f"class member with skew factor 1/2: {format_scheme(nabla)}",
        "equivalence witness: A=1 B=1/2 (r=s=1)",
        "is_scale: none",
    ]
    facts = {
        "nabla": scheme_to_json_dict(nabla),
        "witness": w.to_json_dict(),
        "is_scale": None,
    }
    return lines, facts


def _demo_e14() -> tuple[list[str], dict]:
    chain: list[tuple[int, ChainEntry]] = [
        (0, CONTINUITY),
        (1, named_scheme(gaussian_affine(1, Fraction(22, 7)))),
        (2, named_scheme(gaussian_forward(2, 5))),
        (3, scale(named_scheme(riemann_shift(3, -1)), Fraction(47, 10))),
    ]
    report = n_times_check(chain)
    _require(report.all_mz, "every stage must be known MZ")
    _require(report.peano_equivalence == PEANO_ALL_MZ)
    lines = [
        "chain: continuity, geometric(22/7) order 1, forward(5) order 2,",
        "       backward-shift order 3 scaled by 47/10",
        "all stages known MZ -> the chain certifies 3-times differentiability",
    ]
    return lines, report.to_json_dict()


def _demo_e15() -> tuple[list[str], dict]:
    oracle = grdcalc.probes.subgroup_monomial_oracle(2, [2, 3])
    stages = grdcalc.probes.peano_probe(oracle, 0, 2)
    _require(len(stages) == 2, "must stop after stage 2")
    _require(stages[0][1].verdict == grdcalc.probes.VERDICT_CONVERGES)
    second = stages[1][1]
    _require(second.verdict == grdcalc.probes.VERDICT_DIVERGES)
    cands = sorted(seq.candidate for seq in second.evidence)
    _require(cands == [0, 2], "clusters must be 0 and 2, got %s", cands)
    groups = {seq.in_group for seq in second.evidence}
    _require(
        groups == {True, False}, "evidence must span in-group and out-of-group steps"
    )
    lines = [
        "x^2 restricted to the subgroup generated by 2 and 3:",
        "order-1 probe converges (first Peano coefficient exists),",
        "order-2 probe diverges: the quotient is 2 along in-group steps and 0",
        "off the group, so the second Peano coefficient would be both 1 and 0",
    ]
    facts = {
        "stage1": stages[0][1].to_json_dict(),
        "stage2_verdict": second.verdict,
        "clusters": [format_rational(c) for c in cands],
    }
    return lines, facts


def _demo_p88() -> tuple[list[str], dict]:
    base = named_scheme(riemann_shift(3, -1))
    match = equivalent_gaussian(base)
    _require(match is None, "must not be equivalent to any geometric-node scheme")
    verdict = mz_check(base)
    _known_mz(verdict, CERT_D31)
    lines = [
        f"backward-shift third difference: {format_scheme(base)}",
        "equivalent-gaussian: none",
        "mz-check: known-mz (shifted-set singleton certificate)",
    ]
    facts = {"equivalent_gaussian": None, "verdict": verdict.to_json_dict()}
    return lines, facts


def _demo_t14() -> tuple[list[str], dict]:
    rows = []
    lines = []
    for n in range(3, 9):
        result = equivalent_gaussian(named_scheme(riemann(n)))
        _require(result is None, "equispaced order %s must not match", n)
        rows.append({"n": n, "equivalent_gaussian": None})
        lines.append(f"n={n}: equivalent-gaussian: none")
    return lines, {"table": rows}


def _demo_t8() -> tuple[list[str], dict]:
    cases = [(3, -3, Fraction(2)), (2, 0, Fraction(1, 2))]
    results = []
    lines = []
    for n, ell, q in cases:
        witnesses = verify_quantum_ggr(n, ell, q)
        _require([w for _, w in witnesses] == [q ** k for k in range(ell, ell + n + 1)])
        results.append(
            {
                "n": n,
                "ell": ell,
                "q": format_rational(q),
                "scales": [format_rational(w) for _, w in witnesses],
            }
        )
        lines.append(
            f"n={n} ell={ell} q={format_rational(q)}: shifts are scales by "
            + ", ".join(format_rational(w) for _, w in witnesses)
        )
    return lines, {"cases": results}


def _demo_mz() -> tuple[list[str], dict]:
    lines = []
    rows = []
    for n in range(1, 7):
        tilde = named_scheme(mz_tilde(n))
        _require(tilde == named_scheme(gaussian_forward(n, 2)), "doubling nodes are q=2")
        match = _known_mz(mz_check(tilde), CERT_GAUSSIAN).match
        _require(match is not None and match.variant == GAUSSIAN_FORWARD and match.q == 2)
        rows.append({"n": n, "status": STATUS_MZ})
        lines.append(f"n={n}: doubling-node scheme is known-mz (forward q=2)")
    return lines, {"table": rows}


def _demo_ggr() -> tuple[list[str], dict]:
    full = mz_set_check(ggr_set(4))
    _require(_known_mz(full, CERT_GGR_SET).reduced is False)
    reduced = mz_set_check(ggr_set(4, reduced=True))
    _require(_known_mz(reduced, CERT_GGR_SET).reduced is True)
    lines = [
        "the four backward shifts of the equispaced fourth difference form",
        "a known MZ-set (full certificate); the first two alone already do",
        "(reduced certificate)",
    ]
    facts = {"full": full.to_json_dict(), "reduced": reduced.to_json_dict()}
    return lines, facts


DEMOS: dict[str, Callable[[], tuple[list[str], dict]]] = {
    "E1": _demo_e1,
    "E2": _demo_e2,
    "E3": _demo_e3,
    "E13": _demo_e13,
    "E14": _demo_e14,
    "E15": _demo_e15,
    "P88": _demo_p88,
    "T14": _demo_t14,
    "T8": _demo_t8,
    "MZ": _demo_mz,
    "GGR": _demo_ggr,
}
