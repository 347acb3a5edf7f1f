"""Independent reference for the MZ catalog: every step it once took.

``reference_mz_check`` and ``reference_mz_set_check`` are the bodies
``mz_check`` and ``mz_set_check`` once had, kept unchanged apart from their
names.  Besides the Gaussian search they decide, each with its own
equivalence call, the doubling-node witness of the same order (plain and
symmetric), the symmetric second difference in plain mode, and a joint
verdict for sets whose members are scales of one known-MZ member.  The
catalog now leaves the first three to the Gaussian search, because the
doubling-node witnesses and the symmetric second difference are Gaussian
members, and drops the last, because the member loop decides it first; the
reference tests pin those deletions to this form.

``reference_verify_quantum_ggr`` is the body ``verify_quantum_ggr`` once
had, kept unchanged apart from its name and its size, which it counts itself
with the package's digit rule written out (``n * (|ell| + 2n)`` times the
digits of ``max(|a|, b)`` for ``q = a/b``), so a wrong ``_width`` moves the
package's limit away from the reference's: it builds every shifted member and
compares each scale of the base member with it.  ``verify_quantum_ggr`` now
builds the base member only and checks each scale by the shifted member's
defining property on integers: its nodes and its integer moments, read off
the scale's integer sums (``_sums``), with no Scheme built per shift
(``family_reference`` keeps the Scheme-based form of that check).

``reference_mz_set_check`` keeps the old mixed-orders refusal, which quotes
every order as a Python list; ``mz_set_check`` now quotes them bounded.  The
comparisons draw only same-order sets, so the two texts never meet.
"""

from grdcalc.equivalence import decide_equivalent, equivalent_gaussian
from fractions import Fraction

from grdcalc.families import (
    GAUSSIAN_AFFINE,
    GAUSSIAN_FORWARD,
    GAUSSIAN_SYMMETRIC,
    gaussian_affine,
    gaussian_affine_shift,
    mz_tilde,
    mz_tilde_symmetric,
    named_scheme,
    riemann,
    symmetric_riemann,
)
from grdcalc.mz import (
    CERT_D2S_NOT_MZ,
    CERT_D31,
    CERT_GAUSSIAN,
    CERT_GGR_SET,
    CERT_RIEMANN_NOT_MZ,
    CONJECTURE_GAUSSIAN,
    CONJECTURE_NONE,
    CONJECTURE_RIEMANN,
    STATUS_MZ,
    STATUS_NOT_MZ,
    STATUS_OPEN,
    MAX_QGGR_SIZE,
    Certificate,
    MixedOrders,
    MzVerdict,
    _check_input,
    ggr_set,
)
from grdcalc.scheme import (
    CalculusError,
    OrderBudgetExceeded,
    Rationalish,
    Scheme,
    _check_order,
    _digits,
    _echo,
    _is_int,
    _require,
    construct_exact,
    construct_exact_symmetric,
    order_info,
    parse_rational,
    scale,
)
from scheme_reference import reference_is_scale

CERT_MZ_TILDE = "EquivalentToMzTilde"
_RIEMANN_NOT_MZ_ORDERS = (3, 7)


def _d31() -> Scheme:
    return construct_exact([-1, 0, 1, 2], 3)


def _d2_symmetric() -> Scheme:
    return construct_exact_symmetric([1], True, 2)


def reference_mz_check(scheme: Scheme, symmetric_mode: bool = False) -> MzVerdict:
    n = _check_input(scheme, symmetric_mode)
    if symmetric_mode:
        return _reference_mz_check_symmetric(scheme, n)
    match = equivalent_gaussian(scheme)
    if match is not None:
        if match.variant in (GAUSSIAN_FORWARD, GAUSSIAN_AFFINE):
            return MzVerdict(
                STATUS_MZ, Certificate(CERT_GAUSSIAN, match=match), CONJECTURE_NONE
            )
        if match.variant == GAUSSIAN_SYMMETRIC and n == 2:
            return MzVerdict(
                STATUS_NOT_MZ, Certificate(CERT_D2S_NOT_MZ, n=2), CONJECTURE_NONE
            )
    tilde = decide_equivalent(scheme, named_scheme(mz_tilde(n)))
    if tilde.equivalent:
        return MzVerdict(
            STATUS_MZ,
            Certificate(CERT_MZ_TILDE, n=n, witness=tilde.witness),
            CONJECTURE_NONE,
        )
    if n == 3:
        backward = decide_equivalent(scheme, _d31())
        if backward.equivalent:
            return MzVerdict(
                STATUS_MZ,
                Certificate(CERT_D31, witness=backward.witness),
                CONJECTURE_NONE,
            )
    if n == 2:
        symmetric_second = decide_equivalent(scheme, _d2_symmetric())
        if symmetric_second.equivalent:
            return MzVerdict(
                STATUS_NOT_MZ, Certificate(CERT_D2S_NOT_MZ, n=2), CONJECTURE_NONE
            )
    riemann_like = decide_equivalent(scheme, named_scheme(riemann(n)))
    if riemann_like.equivalent:
        if n in _RIEMANN_NOT_MZ_ORDERS:
            return MzVerdict(
                STATUS_NOT_MZ, Certificate(CERT_RIEMANN_NOT_MZ, n=n), CONJECTURE_NONE
            )
        return MzVerdict(STATUS_OPEN, None, CONJECTURE_RIEMANN)
    return MzVerdict(STATUS_OPEN, None, CONJECTURE_GAUSSIAN)


def _reference_mz_check_symmetric(scheme: Scheme, n: int) -> MzVerdict:
    match = equivalent_gaussian(scheme)
    if match is not None and match.variant == GAUSSIAN_SYMMETRIC:
        return MzVerdict(
            STATUS_MZ, Certificate(CERT_GAUSSIAN, match=match), CONJECTURE_NONE
        )
    if n >= 2:
        tilde = decide_equivalent(scheme, named_scheme(mz_tilde_symmetric(n)))
        if tilde.equivalent:
            return MzVerdict(
                STATUS_MZ,
                Certificate(CERT_MZ_TILDE, n=n, witness=tilde.witness),
                CONJECTURE_NONE,
            )
    riemann_like = decide_equivalent(scheme, named_scheme(symmetric_riemann(n)))
    if riemann_like.equivalent:
        return MzVerdict(STATUS_OPEN, None, CONJECTURE_RIEMANN)
    return MzVerdict(STATUS_OPEN, None, CONJECTURE_GAUSSIAN)


def reference_mz_set_check(schemes) -> MzVerdict:
    if not schemes:
        raise CalculusError("the scheme set must be nonempty")
    orders = {order_info(s).order for s in schemes}
    if len(orders) != 1:
        raise MixedOrders(f"the set mixes orders {sorted(orders)}")
    n = orders.pop()
    member_verdicts = [reference_mz_check(s) for s in schemes]
    for verdict in member_verdicts:
        if verdict.status == STATUS_MZ:
            return verdict
    for reduced in (False, True):
        covers = all(
            any(decide_equivalent(target, s).equivalent for s in schemes)
            for target in ggr_set(n, reduced)
        )
        if covers:
            return MzVerdict(
                STATUS_MZ, Certificate(CERT_GGR_SET, n=n, reduced=reduced), CONJECTURE_NONE
            )
    base = schemes[0]
    if all(reference_is_scale(base, s) is not None for s in schemes):
        if member_verdicts[0].status == STATUS_MZ:
            return member_verdicts[0]

    def riemann_governed(verdict: MzVerdict) -> bool:
        if verdict.conjecture == CONJECTURE_RIEMANN:
            return True
        certificate = verdict.certificate
        return certificate is not None and certificate.kind == CERT_RIEMANN_NOT_MZ

    conjecture = (
        CONJECTURE_RIEMANN
        if all(riemann_governed(v) for v in member_verdicts)
        else CONJECTURE_GAUSSIAN
    )
    return MzVerdict(STATUS_OPEN, None, conjecture)


def reference_verify_quantum_ggr(
    n: int, ell: int, q: Rationalish
) -> list[tuple[int, Fraction]]:
    _check_order(n)
    if not _is_int(ell):
        raise CalculusError("the shift window start must be an integer")
    q = parse_rational(q)
    size = n * (abs(ell) + 2 * n) * len(str(max(abs(q.numerator), q.denominator)))
    if size > MAX_QGGR_SIZE:
        raise OrderBudgetExceeded(
            f"qggr too large: the order times the digits of q**(|ell|+2n) is"
            f" {_echo(_digits(size))}, above {MAX_QGGR_SIZE}"
        )
    base = named_scheme(gaussian_affine(n, q))
    witnesses = []
    for k in range(ell, ell + n + 1):
        shifted = named_scheme(gaussian_affine_shift(n, k, q))
        _require(scale(base, q ** k) == shifted, "shift %s is not the scale by %s**%s", k, q, k)
        witnesses.append((k, q ** k))
    return witnesses
