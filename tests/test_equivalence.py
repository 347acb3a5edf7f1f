"""Equivalence decision procedure, witnesses, and class members."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from equivalence_reference import reference_decide_equivalent, reference_verify_witness

import grdcalc.scheme
from grdcalc import equivalence
from grdcalc import (
    GAUSSIAN_AFFINE,
    GAUSSIAN_FORWARD,
    GAUSSIAN_SYMMETRIC,
    FamilyKind,
    GaussianMatch,
    IdentityCheckFailed,
    PATH_FAST_DISTINCT,
    PATH_FAST_NONNEG,
    PATH_GENERAL,
    PATH_SYMMETRIC,
    REASON_ORDER,
    REASON_SKEW,
    REASON_SKEW_ZERO,
    REASON_SYMMETRIC,
    Scheme,
    Witness,
    ZeroScale,
    ZeroScheme,
    canonicalize,
    class_member,
    combine,
    construct_exact,
    construct_exact_symmetric,
    decide_equivalent,
    decompose,
    equivalent_gaussian,
    gaussian_affine,
    gaussian_forward,
    gaussian_symmetric,
    is_scale,
    mz_tilde,
    named_scheme,
    normalized,
    recognize_gaussian,
    riemann,
    scale,
    symmetric_riemann,
    verify_witness,
)

D2 = construct_exact([0, 1, 2], 2)
D2_SYM = construct_exact([-1, 0, 1], 2)
D31 = construct_exact([-1, 0, 1, 2], 3)

FIRST_FWD = canonicalize([(-1, 0), (1, 1)])
FIRST_MIXED = canonicalize([(2, -1), (-5, 0), (3, 1)])


# --- fixed witnesses ----------------------------------------------------------


def test_first_order_pair_witness():
    verdict = decide_equivalent(FIRST_FWD, FIRST_MIXED)
    assert verdict.equivalent
    assert verdict.path == PATH_GENERAL
    assert verdict.witness == Witness(1, Fraction(1), Fraction(1), Fraction(1), Fraction(5))
    assert not verdict.normalized_inputs

    reverse = decide_equivalent(FIRST_MIXED, FIRST_FWD)
    assert reverse.witness == Witness(
        1, Fraction(1), Fraction(1), Fraction(1), Fraction(1, 5)
    )


def test_witness_json_keys():
    verdict = decide_equivalent(FIRST_FWD, FIRST_MIXED)
    assert verdict.witness.to_json_dict() == {
        "n": 1,
        "r": "1/1",
        "s": "1/1",
        "A": "1/1",
        "B": "5/1",
    }


def test_mixed_skew_multiple_witness():
    plus, minus = decompose(D31, 3)
    mixed = combine([(1, 1, plus), (3, 1, minus)])
    verdict = decide_equivalent(D31, mixed)
    assert verdict.equivalent
    assert verdict.witness == Witness(3, Fraction(1), Fraction(1), Fraction(1), Fraction(3))
    assert is_scale(D31, mixed) is None


def test_class_member_fixture():
    nabla = class_member(D31, 1, 1, Fraction(1, 2))
    assert nabla == canonicalize(
        [(Fraction(-1, 4), -2), (Fraction(3, 2), 0), (-2, 1), (Fraction(3, 4), 2)]
    )
    verdict = decide_equivalent(D31, nabla)
    assert verdict.witness == Witness(
        3, Fraction(1), Fraction(1), Fraction(1), Fraction(1, 2)
    )


def test_witness_reconstructs_target():
    for a, b in [
        (FIRST_FWD, FIRST_MIXED),
        (D31, class_member(D31, 2, Fraction(-1, 3), 7)),
        (D2_SYM, scale(D2_SYM, 5)),
    ]:
        verdict = decide_equivalent(a, b)
        assert verdict.equivalent
        w = verdict.witness
        assert verify_witness(a, b, w)
        assert class_member(a, w.r, w.s, w.skew_factor if w.skew_factor else 1) == b


def test_verify_witness_rejects_tampering():
    verdict = decide_equivalent(FIRST_FWD, FIRST_MIXED)
    w = verdict.witness
    assert verify_witness(FIRST_FWD, FIRST_MIXED, w)
    bad = Witness(w.order, w.r, w.s, w.sym_factor, w.skew_factor + 1)
    assert not verify_witness(FIRST_FWD, FIRST_MIXED, bad)


# --- class_member domain ------------------------------------------------------


def test_class_member_errors():
    with pytest.raises(ZeroScale):
        class_member(D31, 0, 1, 1)
    with pytest.raises(ZeroScale):
        class_member(D31, 1, 0, 1)
    with pytest.raises(ZeroScale):
        class_member(D31, 1, 1, 0)  # nonzero skew part
    with pytest.raises(ZeroScheme):
        class_member(canonicalize([]), 1, 1, 1)


def test_class_member_symmetric_allows_zero_skew_factor():
    assert class_member(D2_SYM, 2, 1, 0) == scale(D2_SYM, 2)


# --- negative verdicts ---------------------------------------------------------


def test_order_mismatch():
    verdict = decide_equivalent(D2, D31)
    assert not verdict.equivalent
    assert verdict.reason == REASON_ORDER
    assert verdict.witness is None


def test_symmetric_part_mismatch():
    verdict = decide_equivalent(D2_SYM, D2)
    assert not verdict.equivalent
    assert verdict.reason == REASON_SYMMETRIC
    d4_sym = construct_exact_symmetric([1, 2], True, 4)
    sym_pair = decide_equivalent(d4_sym, named_scheme(gaussian_symmetric(4, 3)))
    assert not sym_pair.equivalent
    assert sym_pair.reason == REASON_SYMMETRIC


def test_skew_zero_vs_nonzero():
    odd_tail = canonicalize([(-2, 1), (2, -1), (1, 2), (-1, -2)])
    b = canonicalize(list(D2_SYM) + list(odd_tail))
    verdict = decide_equivalent(D2_SYM, b)
    assert not verdict.equivalent
    assert verdict.reason == REASON_SKEW_ZERO


def test_skew_part_mismatch():
    plus, _ = decompose(D31, 3)
    other_minus = canonicalize([(1, -3), (-9, -1), (16, 0), (-9, 1), (1, 3)])
    b = canonicalize(list(plus) + list(other_minus))
    verdict = decide_equivalent(D31, b)
    assert not verdict.equivalent
    assert verdict.reason == REASON_SKEW


def test_zero_scheme_rejected():
    with pytest.raises(ZeroScheme):
        decide_equivalent(canonicalize([]), D2)
    with pytest.raises(ZeroScheme):
        equivalent_gaussian(canonicalize([]))


def test_no_gaussian_is_equivalent_to_an_order_0_scheme():
    assert equivalent_gaussian(canonicalize([(1, 0)])) is None


# --- decision paths -------------------------------------------------------------


def test_symmetric_scale_path():
    verdict = decide_equivalent(D2_SYM, scale(D2_SYM, 5))
    assert verdict.equivalent
    assert verdict.path == PATH_SYMMETRIC
    assert verdict.witness == Witness(
        2, Fraction(5), Fraction(1), Fraction(1, 25), Fraction(0)
    )


def test_nonnegative_fast_path_agrees_with_general():
    b = scale(D2, 3)
    fast = decide_equivalent(D2, b)
    slow = decide_equivalent(D2, b, use_fast_paths=False)
    assert fast.path == PATH_FAST_NONNEG
    assert slow.path == PATH_GENERAL
    assert fast.witness == slow.witness == Witness(
        2, Fraction(3), Fraction(3), Fraction(1, 9), Fraction(1, 9)
    )


def test_distinct_magnitude_fast_path_agrees_with_general():
    a = construct_exact([-2, 1, 3], 2)
    b = scale(a, -2)
    fast = decide_equivalent(a, b)
    slow = decide_equivalent(a, b, use_fast_paths=False)
    assert fast.path == PATH_FAST_DISTINCT
    assert fast.equivalent and slow.equivalent
    assert verify_witness(a, b, fast.witness)
    assert verify_witness(a, b, slow.witness)


def test_fast_negative_falls_back_to_general():
    a = construct_exact([0, 1, 2], 2)
    b = construct_exact([0, 1, 3], 2)
    fast = decide_equivalent(a, b)
    slow = decide_equivalent(a, b, use_fast_paths=False)
    assert not fast.equivalent and not slow.equivalent
    assert fast.reason == slow.reason


def test_normalization_flag():
    doubled = canonicalize([(2 * t.coeff, t.node) for t in D2])
    verdict = decide_equivalent(doubled, D2)
    assert verdict.equivalent
    assert verdict.normalized_inputs
    assert verdict.witness.r == 1


# --- one read, one split, one re-verification per decision ------------------------

DISTINCT = construct_exact([-2, 1, 3], 2)
POSITIVE_BY_PATH = [
    (PATH_SYMMETRIC, D2_SYM, scale(D2_SYM, 5)),
    (PATH_FAST_NONNEG, D2, scale(D2, 3)),
    (PATH_FAST_DISTINCT, DISTINCT, scale(DISTINCT, -2)),
    (PATH_GENERAL, FIRST_FWD, FIRST_MIXED),
]


def _inject(monkeypatch, wrong):
    """Make the one procedure return ``wrong(witness)`` in place of each witness it finds."""
    true_outcome = equivalence._general_outcome

    def injected(a, b, n):
        outcome = true_outcome(a, b, n)
        return outcome if isinstance(outcome, str) else wrong(outcome)

    monkeypatch.setattr(equivalence, "_general_outcome", injected)


def _doubled(w):
    """The witness of the scale by 2 of the true one: still a scale where ``w`` is."""
    s = w.s if w.skew_factor == 0 else 2 * w.s
    return Witness(w.order, 2 * w.r, s, w.sym_factor / 2 ** w.order, w.skew_factor / 2 ** w.order)


@pytest.mark.parametrize("path, a, b", POSITIVE_BY_PATH)
def test_wrong_scale_witness_fails_reverification(monkeypatch, path, a, b):
    assert decide_equivalent(a, b).path == path
    _inject(monkeypatch, _doubled)
    with pytest.raises(IdentityCheckFailed, match="re-verification"):
        decide_equivalent(a, b)


@pytest.mark.parametrize("path, a, b", POSITIVE_BY_PATH[1:3])
def test_non_scale_witness_on_fast_path_is_refused(monkeypatch, path, a, b):
    assert decide_equivalent(a, b).path == path
    _inject(monkeypatch, lambda w: Witness(w.order, w.r, 2 * w.s, w.sym_factor, w.skew_factor))
    with pytest.raises(IdentityCheckFailed, match="fast path disagrees"):
        decide_equivalent(a, b)
    # without the fast-path label the same witness reaches the exit, which refuses it
    with pytest.raises(IdentityCheckFailed, match="re-verification"):
        decide_equivalent(a, b, use_fast_paths=False)


def test_each_input_read_and_split_once(derivations):
    doubled = canonicalize([(2 * t.coeff, t.node) for t in D2])
    skew_tail = canonicalize([(-2, 1), (2, -1), (1, 2), (-1, -2)])
    pairs = [(a, b) for _, a, b in POSITIVE_BY_PATH] + [
        (doubled, D2),
        (D2_SYM, D2),
        (D2_SYM, canonicalize(list(D2_SYM) + list(skew_tail))),
        (D2, construct_exact([0, 1, 3], 2)),
        (D31, class_member(D31, 2, Fraction(-1, 3), 7)),
    ]
    for pair in pairs:
        for fast in (True, False):
            # fresh objects: nothing derived on them yet
            a, b = (Scheme(s.terms) for s in pair)
            derivations.clear()
            decide_equivalent(a, b, use_fast_paths=fast)
            derivations.assert_each_once()
            assert derivations.orders[0] is a and derivations.orders[1] is b
            split = [s for s, _ in derivations.splits]
            assert split == [normalized(a), normalized(b)]
    derivations.clear()
    d2, d31 = Scheme(D2.terms), Scheme(D31.terms)
    assert decide_equivalent(d2, d31).reason == REASON_ORDER
    assert derivations.orders == [d2, d31] and not derivations.splits


def test_verify_witness_never_splits_b(derivations):
    for _, a, b in POSITIVE_BY_PATH:
        witness = decide_equivalent(a, b).witness
        fresh = Scheme(b.terms)
        derivations.clear()
        assert verify_witness(a, fresh, witness)
        assert all(scheme is not fresh for scheme, _ in derivations.splits)


def test_each_identity_check_builds_one_combination(monkeypatch):
    # a positive decision, general or fast path, builds three combinations: its two
    # part identities and the exit's re-check of the witness; a symmetric mismatch one
    pairs = [(D31, class_member(D31, 2, -3, Fraction(-7, 4))), (D2, scale(D2, Fraction(-2, 3)))]
    assert [decide_equivalent(a, b).path for a, b in pairs] == [PATH_GENERAL, PATH_FAST_DISTINCT]
    calls = []
    combine_built = grdcalc.scheme.combine

    def counting(parts):
        calls.append(parts)
        return combine_built(parts)

    for module in (grdcalc.scheme, equivalence):
        monkeypatch.setattr(module, "combine", counting)
    for a, b in pairs:
        for fast in (True, False):
            calls.clear()
            verdict = decide_equivalent(a, b, use_fast_paths=fast)
            assert verdict.equivalent and not verdict.normalized_inputs
            assert len(calls) == 3
    calls.clear()
    assert decide_equivalent(D2, D2_SYM).reason == REASON_SYMMETRIC
    assert len(calls) == 1


# --- relation laws ---------------------------------------------------------------


nodes_strategy = st.lists(
    st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4),
    min_size=4,
    max_size=4,
    unique=True,
)
constants = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3
).filter(lambda v: v != 0)


@settings(max_examples=30)
@given(nodes_strategy)
def test_reflexivity(nodes):
    s = construct_exact(nodes, 3)
    verdict = decide_equivalent(s, s)
    assert verdict.equivalent
    assert verdict.witness.r == 1 and verdict.witness.sym_factor == 1


@settings(max_examples=30)
@given(nodes_strategy, constants, constants, constants)
def test_symmetry_and_transitivity(nodes, r1, s1, b1):
    a = construct_exact(nodes, 3)
    m1 = class_member(a, r1, s1, b1)
    m2 = class_member(m1, 2, Fraction(-1, 2), 3)
    assert decide_equivalent(a, m1).equivalent
    assert decide_equivalent(m1, a).equivalent
    assert decide_equivalent(a, m2).equivalent


def _partner(a, how, c, d, e):
    """A scheme to compare with ``a``: a scale, a class member (with ``B = -A`` as
    one choice, the scale by ``-c``), a scale's doubled coefficients, or an
    unrelated exact scheme."""
    n = len(a) - 1
    if how == "scale":
        return scale(a, c)
    if how == "member":
        return class_member(a, c, d, e)
    if how == "minus":
        return class_member(a, c, c, -c ** -n)
    if how == "doubled":
        return canonicalize([(2 * t.coeff, t.node) for t in scale(a, c)])
    return construct_exact([c * t.node + d for t in a], n)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=3),
            min_size=n + 1,
            max_size=n + 1,
            unique=True,
        )
    ),
    st.sampled_from(["scale", "member", "minus", "doubled", "other"]),
    constants,
    constants,
    constants,
)
def test_one_procedure_matches_the_two_engines(nodes, how, c, d, e):
    a = construct_exact(nodes, len(nodes) - 1)
    b = _partner(a, how, c, d, e)
    for fast in (True, False):
        new = decide_equivalent(a, b, use_fast_paths=fast).to_json_dict()
        assert new == reference_decide_equivalent(a, b, use_fast_paths=fast).to_json_dict()


@pytest.mark.parametrize(
    "a, b",
    [
        (construct_exact([-2, 1, 3], 2), scale(construct_exact([-2, 1, 3], 2), -2)),
        (construct_exact([-1, 2, 3], 2), scale(construct_exact([-1, 2, 3], 2), Fraction(-1, 3))),
        (D31, class_member(D31, 2, 2, -Fraction(1, 8))),
        (D2, class_member(D2, 3, 3, -Fraction(1, 9))),
    ],
)
def test_negative_scales_match_the_two_engines(a, b):
    for fast in (True, False):
        new = decide_equivalent(a, b, use_fast_paths=fast)
        assert new.to_json_dict() == reference_decide_equivalent(a, b, fast).to_json_dict()
    # b is the scale of a by a negative factor: shown as it on a fast path, else as B = -A
    w = decide_equivalent(a, b).witness
    assert w.r < 0 or w.skew_factor == -w.sym_factor


def _outcome(check, a, b, witness):
    """What ``check`` returns on the witness, or the type of what it raises."""
    try:
        return check(a, b, witness)
    except Exception as exc:  # noqa: BLE001 - compared by type
        return type(exc)


def replace(w, **changes):
    """``w`` with the named fields changed, built again through ``Witness``."""
    return Witness(**{**{name: getattr(w, name) for name in Witness._fields}, **changes})


def _tampered(w, a):
    """The true witness ``w`` of ``(a, b)`` and wrong ones: each constant doubled,
    sign-flipped or shifted by 1, ``B = 0`` on a nonzero skew part, the other
    parity's order, and ``r = 0`` and ``s = 0``."""
    out = [w, replace(w, order=w.order + 1), replace(w, r=Fraction(0)), replace(w, s=Fraction(0))]
    for name in ("r", "s", "sym_factor", "skew_factor"):
        value = getattr(w, name)
        out += [replace(w, **{name: wrong}) for wrong in (2 * value, -value, value + 1)]
    if not decompose(a, w.order)[1].is_zero:
        out.append(replace(w, skew_factor=Fraction(0)))
    return out


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=3),
            min_size=n + 1,
            max_size=n + 1,
            unique=True,
        )
    ),
    st.sampled_from(["scale", "member", "minus"]),
    constants,
    constants,
    constants,
)
def test_verify_witness_matches_the_two_part_check(nodes, how, c, d, e):
    a = construct_exact(nodes, len(nodes) - 1)
    b = normalized(_partner(a, how, c, d, e))
    for fast in (True, False):
        true_witness = decide_equivalent(a, b, use_fast_paths=fast).witness
        for witness in _tampered(true_witness, a):
            expected = _outcome(reference_verify_witness, a, b, witness)
            assert _outcome(verify_witness, a, b, witness) == expected


def test_symmetric_equivalence_is_scaling():
    members = [
        construct_exact_symmetric([1, 2], True, 4),
        construct_exact_symmetric([1, 3], True, 4),
        scale(construct_exact_symmetric([1, 2], True, 4), Fraction(3, 2)),
    ]
    for a in members:
        for b in members:
            verdict = decide_equivalent(a, b)
            assert verdict.equivalent == (is_scale(a, b) is not None)


# --- Gaussian equivalence search --------------------------------------------------


def test_equivalent_gaussian_direct_member():
    match = equivalent_gaussian(named_scheme(mz_tilde(3)))
    assert match == GaussianMatch(GAUSSIAN_FORWARD, Fraction(2), Fraction(1), 3)


def test_equivalent_gaussian_symmetric_halved():
    match = equivalent_gaussian(named_scheme(symmetric_riemann(3)))
    assert match == GaussianMatch(GAUSSIAN_SYMMETRIC, Fraction(3), Fraction(1, 2), 3)


def test_equivalent_gaussian_through_class_member():
    mixed = class_member(named_scheme(mz_tilde(3)), 1, 1, 3)
    assert is_scale(named_scheme(mz_tilde(3)), mixed) is None
    match = equivalent_gaussian(mixed)
    assert match == GaussianMatch(GAUSSIAN_FORWARD, Fraction(2), Fraction(1), 3)


def test_equivalent_gaussian_negative_cases():
    assert equivalent_gaussian(D31) is None
    plus, minus = decompose(D31, 3)
    mixed = combine([(1, 1, plus), (3, 1, minus)])
    assert equivalent_gaussian(mixed) is None


def test_equivalent_gaussian_normalizes_input():
    doubled = canonicalize(
        [(2 * t.coeff, t.node) for t in named_scheme(mz_tilde(3))]
    )
    match = equivalent_gaussian(doubled)
    assert match == GaussianMatch(GAUSSIAN_FORWARD, Fraction(2), Fraction(1), 3)


def test_riemann_is_gaussian_only_below_order_three():
    """The abstract's claim: Riemann differentiation is not equivalent to a
    Gaussian differentiation in orders at least three.  The scheme is exact
    with distinct node magnitudes, so its class holds only its scales, and
    from order 3 its nonzero nodes 1, 2, 3, ... have no common ratio.
    Checked to order 64; orders 1 and 2 are the forward members at ``q = 2``."""
    for n in (1, 2):
        match = equivalent_gaussian(named_scheme(riemann(n)))
        assert match == GaussianMatch(GAUSSIAN_FORWARD, Fraction(2), Fraction(1), n)
    for n in range(3, 65):
        assert equivalent_gaussian(named_scheme(riemann(n))) is None


def test_symmetric_riemann_is_gaussian_only_below_order_five():
    """The symmetric Riemann scheme has no skew part, so its class is its
    scales.  From order 5 its positive nodes form an arithmetic progression
    of at least three terms, which has no common ratio, so no Gaussian
    member is equivalent to it.  Checked to order 64.  The matches at
    orders 1..4 (``q = 2, 2, 3, 2``) are pinned as current behaviour, not
    as a statement of the paper."""
    pinned = {
        1: (Fraction(2), Fraction(1, 2)),
        2: (Fraction(2), Fraction(1)),
        3: (Fraction(3), Fraction(1, 2)),
        4: (Fraction(2), Fraction(1)),
    }
    for n, (q, b) in pinned.items():
        match = equivalent_gaussian(named_scheme(symmetric_riemann(n)))
        assert match == GaussianMatch(GAUSSIAN_SYMMETRIC, q, b, n)
    for n in range(5, 65):
        assert equivalent_gaussian(named_scheme(symmetric_riemann(n))) is None


def _positive_ratios(part):
    positive = sorted(t.node for t in part if t.node > 0)
    return positive, {high / low for low, high in zip(positive, positive[1:])}


@pytest.mark.parametrize("n", range(1, 11))
def test_class_invariants_fix_the_gaussian_candidate(n):
    """The three invariants ``equivalent_gaussian`` reads off a scheme hold on
    every member and on its class members: the symmetric part's positive
    nodes are one progression of ratio ``|q|`` (or ``1/|q|``), the skew part
    vanishes only for symmetric members, and among members with a skew part
    only forward ones have node 0.  A skew-free class member is a scale of
    its symmetric member, and recognition returns that scale."""
    count = {GAUSSIAN_FORWARD: n, GAUSSIAN_AFFINE: n + 1, GAUSSIAN_SYMMETRIC: (n + 1) // 2}
    for q in (Fraction(2), Fraction(3, 2), Fraction(1, 2), Fraction(3)):
        for q_signed in (q, -q):
            for variant in count:
                member = named_scheme(FamilyKind(variant, n, q=q_signed))
                images = [
                    member,
                    class_member(member, -2, Fraction(3, 2), Fraction(-1, 3)),
                    class_member(member, Fraction(1, 2), -3, 5),
                ]
                for scheme in images:
                    plus, minus = decompose(scheme, n)
                    positive, ratios = _positive_ratios(plus)
                    assert len(positive) == count[variant]
                    assert ratios == ({max(q, 1 / q)} if len(positive) > 1 else set())
                    assert minus.is_zero == (variant == GAUSSIAN_SYMMETRIC)
                    assert (scheme.coeff_at(0) != 0) == (
                        variant == GAUSSIAN_FORWARD
                        or (variant == GAUSSIAN_SYMMETRIC and n % 2 == 0)
                    )
                    if minus.is_zero:
                        assert is_scale(member, scheme) is not None
                        match = recognize_gaussian(scheme)
                        base = named_scheme(FamilyKind(match.variant, n, q=match.q))
                        assert scale(base, match.scale_b) == scheme
                        assert equivalent_gaussian(scheme) == match


def test_search_decides_at_most_two_members(monkeypatch):
    counts = {"decide_equivalent": 0, "named_scheme": 0}
    for name in counts:
        original = getattr(equivalence, name)

        def counting(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(equivalence, name, counting)
    schemes = [
        class_member(named_scheme(gaussian_forward(3, -2)), Fraction(3, 2), -2, Fraction(-1, 3)),
        class_member(named_scheme(gaussian_affine(4, Fraction(3, 2))), -2, Fraction(1, 2), 5),
        class_member(named_scheme(gaussian_affine(3, Fraction(-1, 2))), 3, 1, -1),
        class_member(named_scheme(riemann(4)), 2, -1, 3),
        class_member(named_scheme(symmetric_riemann(5)), 1, 2, 1),
        class_member(D31, 2, -3, Fraction(-7, 4)),
        combine([(1, 1, decompose(D31, 3)[0]), (3, 1, decompose(D31, 3)[1])]),
    ]
    found = []
    for scheme in schemes:
        counts.update(dict.fromkeys(counts, 0))
        found.append(equivalent_gaussian(scheme))
        assert counts["decide_equivalent"] <= 2
        assert counts["named_scheme"] <= 2
    assert [m.variant if m else None for m in found] == [
        GAUSSIAN_FORWARD, GAUSSIAN_AFFINE, GAUSSIAN_AFFINE, None, None, None, None
    ]
