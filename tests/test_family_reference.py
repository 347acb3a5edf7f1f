"""The integer family-membership check agrees with its old Scheme-based form.

``families._is_member`` reads an integer form ``(A, da, B, db)``: a built
member's kept ``_ints``, or the integer sums ``_sums`` gives for a scale,
which is what ``verify_quantum_ggr`` passes per shift, with the member's
nodes from ``family_nodes`` and its order, which its caller passes.  Each test compares
it with ``family_reference.reference_is_member``, which reads the built
``Scheme``, on every family variant at orders 1..10, on the members' scales
by ``+-q**k``, and on perturbed members.
"""

from fractions import Fraction

import pytest

from family_reference import reference_is_member
from grdcalc.families import (
    GAUSSIAN_AFFINE,
    GAUSSIAN_AFFINE_SHIFT,
    FamilyKind,
    _is_member,
    family_nodes,
    gaussian_affine,
    gaussian_affine_shift,
    gaussian_forward,
    gaussian_symmetric,
    mz_tilde,
    mz_tilde_symmetric,
    named_scheme,
    riemann,
    riemann_shift,
    script_d,
    script_d_bar,
    symmetric_riemann,
)
from grdcalc.scheme import _sums, canonicalize, construct_exact, scale

QS = (Fraction(2), Fraction(-3, 2), Fraction(1, 3))
KS = (-2, 1)
ORDERS = range(1, 11)


def _kinds(n):
    """Every variant at order ``n``, at each ratio in ``QS`` and shift in ``KS``."""
    kinds = [riemann(n), symmetric_riemann(n), mz_tilde(n)]
    kinds += [mz_tilde_symmetric(n)] if n >= 2 else []
    kinds += [riemann_shift(n, k) for k in KS]
    for q in QS:
        kinds += [gaussian_forward(n, q), gaussian_affine(n, q), gaussian_symmetric(n, q)]
        kinds += [script_d(n, q), script_d_bar(n, q)]
        kinds += [gaussian_affine_shift(n, k, q) for k in KS]
    return kinds


def _agree(scheme, kind) -> bool:
    """``_is_member`` on ``scheme``'s kept integer form, checked against the reference."""
    got = _is_member(scheme._ints, family_nodes(kind), kind.n)
    assert got == reference_is_member(scheme, kind), (scheme, kind)
    return got


def _agree_on_scale(member, r, kind) -> bool:
    """``_is_member`` on the integer sums of the order-``kind.n`` ``member``'s scale by ``r``
    (the form ``verify_quantum_ggr`` passes) and on the built scale, both against the reference."""
    sums, C, D = _sums([(r ** -kind.n, r, member)])
    got = _is_member((list(sums.values()), C, list(sums), D), family_nodes(kind), kind.n)
    assert got == _agree(scale(member, r), kind), (member, r, kind)
    return got


def _shift_of(kind, k):
    """The affine member that ``kind``'s scale by ``q**k`` is, or None for other variants."""
    if kind.variant not in (GAUSSIAN_AFFINE, GAUSSIAN_AFFINE_SHIFT):
        return None
    return gaussian_affine_shift(kind.n, (kind.k or 0) + k, kind.q)


@pytest.mark.parametrize("n", ORDERS)
def test_members_and_their_scales_agree(n):
    accepted = 0
    for kind in _kinds(n):
        member = named_scheme(kind)
        assert _agree(member, kind)
        ratio = kind.q if kind.q is not None else Fraction(2)
        for k in KS:
            shifted = _shift_of(kind, k)
            for r in (ratio ** k, -(ratio ** k)):
                assert not _agree_on_scale(member, r, kind)
                if shifted is not None:
                    accepted += _agree_on_scale(member, r, shifted)
    # each affine member's scale by q**k, and by no -q**k, is the shifted member
    assert accepted == len(QS) * 3 * len(KS)


@pytest.mark.parametrize("n", ORDERS)
def test_perturbed_members_agree(n):
    for kind in _kinds(n):
        member = named_scheme(kind)
        first, *rest = member.terms
        doubled = canonicalize([(2 * first.coeff, first.node), *((t.coeff, t.node) for t in rest)])
        moved = canonicalize([(first.coeff, first.node - 1), *((t.coeff, t.node) for t in rest)])
        all_doubled = canonicalize((2 * t.coeff, t.node) for t in member)  # normalizer 1/2
        assert not _agree(doubled, kind)
        assert not _agree(moved, kind)
        assert not _agree(all_doubled, kind)
        if n >= 2:
            assert not _agree(construct_exact(member.nodes[:n], n - 1), kind)
        if kind.k is not None:
            wrong_k = FamilyKind(kind.variant, n, k=kind.k + 1, q=kind.q)
            assert not _agree(member, wrong_k)
    assert not _agree(named_scheme(riemann(n)), riemann_shift(n, 1))
    for q in QS:
        assert not _agree(named_scheme(gaussian_affine(n, q)), gaussian_affine_shift(n, 1, q))
