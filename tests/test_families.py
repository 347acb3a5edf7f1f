"""Named families, q-binomials, closed forms, and pattern recognition."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from construction_reference import affine_closed_form
from grdcalc import (
    CalculusError,
    GAUSSIAN_AFFINE,
    GAUSSIAN_FORWARD,
    GAUSSIAN_SYMMETRIC,
    MZ_TILDE_SYMMETRIC,
    FamilyKind,
    GaussianMatch,
    IdentityCheckFailed,
    IndexOutOfRange,
    InvalidOrder,
    InvalidQ,
    OrderBudgetExceeded,
    OrderInfo,
    Scheme,
    canonicalize,
    construct_exact,
    construct_exact_symmetric,
    family_nodes,
    format_family,
    gaussian_affine,
    gaussian_affine_shift,
    gaussian_forward,
    gaussian_symmetric,
    mz_tilde,
    mz_tilde_symmetric,
    named_scheme,
    order_info,
    parse_family,
    qbinom,
    recognize_gaussian,
    riemann,
    riemann_shift,
    scale,
    scale_partners,
    scheme_from_json,
    script_d,
    script_d_bar,
    symmetric_riemann,
)
from grdcalc import families
from grdcalc.families import _VARIANTS, _match_candidates
from grdcalc.scheme import MAX_FAMILY_SIZE

sane_q = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4
).filter(lambda q: q not in (0, 1, -1))


def qbinom_product_oracle(n, i, q):
    """Independent oracle: the product formula, valid while q**j != 1."""
    value = Fraction(1)
    for j in range(1, i + 1):
        value *= (q ** (n - i + j) - 1) / (q ** j - 1)
    return value


# --- q-binomials -------------------------------------------------------------


def test_qbinom_fixture():
    assert qbinom(4, 2, 2) == 35


def test_qbinom_classical_limit():
    for n in range(7):
        for i in range(n + 1):
            assert qbinom(n, i, 1) == comb(n, i)


def test_qbinom_at_minus_one():
    assert qbinom(2, 1, -1) == 0
    assert qbinom(2, 2, -1) == 1


def test_qbinom_errors():
    with pytest.raises(IndexOutOfRange):
        qbinom(3, 4, 2)
    with pytest.raises(IndexOutOfRange):
        qbinom(3, -1, 2)
    with pytest.raises(InvalidQ):
        qbinom(3, 1, 0)


def test_qbinom_bounds_n():
    # qbinom(800, 0, 2) once built the whole 800-row triangle, for 18 s; the size
    # rule i*(n-i) * digits of q bounds n alone: i = 0 forms no product at any n
    assert qbinom(256, 0, 2) == qbinom(256, 256, 2) == 1
    assert qbinom(256, 1, 2) == 2 ** 256 - 1
    q = Fraction(-7, 5)
    assert qbinom(40, 17, q) == qbinom(40, 23, q) == qbinom_product_oracle(40, 17, q)
    for n in (257, 800, 10 ** 5000):
        assert qbinom(n, 0, 2) == 1
    # 1 * 131072 * 1 = 131072 is the size limit itself
    assert qbinom(131073, 1, 2) == 2 ** 131073 - 1
    limit = families.MAX_QBINOM_SIZE
    with pytest.raises(OrderBudgetExceeded, match=f"must be at most {limit}, got 131073$"):
        qbinom(131074, 1, 2)


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=7),
    sane_q,
)
def test_qbinom_against_product_oracle(n, i, q):
    if i > n:
        n, i = i, n
    assert qbinom(n, i, q) == qbinom_product_oracle(n, i, q)
    assert qbinom(n, i, q) == qbinom(n, n - i, q)


# --- family members ----------------------------------------------------------


def test_affine_member_fixture():
    member = named_scheme(gaussian_affine(2, 2))
    assert member == canonicalize([(Fraction(2, 3), 1), (-1, 2), (Fraction(1, 3), 4)])


def test_forward_member_fixture():
    member = named_scheme(gaussian_forward(3, 2))
    assert member == canonicalize(
        [(Fraction(-3, 4), 0), (2, 1), (Fraction(-3, 2), 2), (Fraction(1, 4), 4)]
    )


def test_riemann_members():
    assert named_scheme(riemann(1)) == construct_exact([0, 1], 1)
    assert named_scheme(riemann(2)) == construct_exact([0, 1, 2], 2)
    assert named_scheme(riemann_shift(3, -1)) == construct_exact([-1, 0, 1, 2], 3)
    assert named_scheme(symmetric_riemann(2)) == construct_exact([-1, 0, 1], 2)
    assert named_scheme(symmetric_riemann(3)) == construct_exact(
        [Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)], 3
    )


def test_members_are_kept_in_one_bounded_memo(monkeypatch):
    kind = gaussian_affine(2, 3)
    assert named_scheme(kind) is named_scheme(gaussian_affine(2, Fraction(3)))
    assert named_scheme.cache_info().maxsize == 256
    # a failed identity check is not kept: every read of the member raises again
    named_scheme.cache_clear()
    wrong = construct_exact([1, 3], 1)
    monkeypatch.setattr(families, "construct_exact", lambda nodes, n: wrong)
    for _ in range(2):
        with pytest.raises(IdentityCheckFailed, match="defining moments"):
            named_scheme(kind)
    monkeypatch.undo()
    assert named_scheme(kind) == construct_exact([1, 3, 9], 2)


@pytest.mark.parametrize(
    "kind", [riemann(3), symmetric_riemann(4), mz_tilde(3), script_d_bar(3, 2)], ids=format_family
)
def test_every_variant_is_checked_by_its_defining_moments(monkeypatch, kind):
    # a build with every coefficient doubled has the right nodes and order but
    # normalizer 1/2; the check catches it for every variant, not only the affine ones
    build = families.construct_exact
    monkeypatch.setattr(
        families,
        "construct_exact",
        lambda nodes, n: canonicalize((2 * t.coeff, t.node) for t in build(nodes, n)),
    )
    named_scheme.cache_clear()
    for _ in range(2):
        with pytest.raises(IdentityCheckFailed, match="defining moments"):
            named_scheme(kind)
    monkeypatch.undo()
    assert order_info(named_scheme(kind)).normalizer == 1


# These identities are why mz_check leaves the doubling-node witnesses and the
# symmetric second difference to the Gaussian search.
def test_tilde_is_forward_with_doubling_ratio():
    for n in range(1, 13):
        assert named_scheme(mz_tilde(n)) == named_scheme(gaussian_forward(n, 2))


def test_symmetric_tilde_is_symmetric_with_doubling_ratio():
    for n in range(2, 13):
        for q in (2, -2):
            assert named_scheme(mz_tilde_symmetric(n)) == named_scheme(gaussian_symmetric(n, q))


def test_symmetric_second_difference_is_every_order_2_symmetric_member():
    d2s = construct_exact_symmetric([1], True, 2)
    for q in (2, -2, 3, Fraction(1, 2), Fraction(-5, 3), 7):
        assert named_scheme(gaussian_symmetric(2, q)) == d2s


def test_family_node_layouts():
    assert family_nodes(mz_tilde(4)) == [0, 1, 2, 4, 8]
    assert family_nodes(gaussian_forward(3, 3)) == [0, 1, 3, 9]
    assert family_nodes(gaussian_affine(2, 3)) == [1, 3, 9]
    assert family_nodes(gaussian_affine_shift(2, -1, 3)) == [Fraction(1, 3), 1, 3]
    assert family_nodes(script_d(3, 3)) == [0, 1, 3, 9]
    assert family_nodes(script_d_bar(3, 3)) == [1, 3, 9, 81]
    assert family_nodes(script_d(3, 2)) == [0, 1, 2, 4]  # doubling pattern
    assert sorted(family_nodes(gaussian_symmetric(4, -3))) == [-3, -1, 0, 1, 3]
    assert sorted(family_nodes(gaussian_symmetric(3, Fraction(1, 2)))) == [
        -1, Fraction(-1, 2), Fraction(1, 2), 1
    ]
    assert sorted(family_nodes(mz_tilde_symmetric(5))) == [-4, -2, -1, 1, 2, 4]
    assert sorted(family_nodes(mz_tilde_symmetric(2))) == [-1, 0, 1]
    assert family_nodes(riemann(2)) == [0, 1, 2]
    assert family_nodes(riemann_shift(2, -3)) == [-3, -2, -1]
    assert family_nodes(symmetric_riemann(3)) == [
        Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)
    ]


ONE_PATH_Q = (2, -2, Fraction(3, 2), Fraction(-2, 3), -3, Fraction(1, 3))


def _table_members(n):
    """Every member of order ``n`` of every table row, over ``ONE_PATH_Q`` and k in -2..2."""
    for variant, (_, takes_k, takes_q) in _VARIANTS.items():
        if variant == MZ_TILDE_SYMMETRIC and n < 2:
            continue
        for k in range(-2, 3) if takes_k else [None]:
            for q in ONE_PATH_Q if takes_q else [None]:
                yield FamilyKind(variant, n, k=k, q=q)


@pytest.mark.parametrize("n", range(1, 13))
def test_every_member_is_the_exact_scheme_on_its_nodes(n):
    for kind in _table_members(n):
        nodes = family_nodes(kind)
        assert len(set(nodes)) == n + 1
        built = named_scheme(kind)
        assert built == construct_exact(nodes, n)
        if kind.variant in (GAUSSIAN_SYMMETRIC, MZ_TILDE_SYMMETRIC):
            # the symmetric solver on the positive pairs stays the reference
            base = abs(kind.q) if kind.q is not None else 2
            pairs = [base ** i for i in range((n + 1) // 2)]
            assert built == construct_exact_symmetric(pairs, n % 2 == 0, n)


def test_a_named_member_carries_the_order_its_check_proved(derivations):
    for kind in (gaussian_affine(4, Fraction(3, 2)), riemann_shift(3, -1), script_d_bar(3, 2)):
        member = named_scheme(kind)
        for _ in range(3):
            assert order_info(member) == OrderInfo(kind.n, factorial(kind.n), 1)
    assert derivations.orders == []


@pytest.mark.parametrize("n", range(1, 9))
def test_a_members_order_is_the_one_detected_afresh(n):
    for kind in _table_members(n):
        member = named_scheme(kind)
        assert order_info(member) == order_info(Scheme(member.terms)), kind


def _assert_candidates_are_valid(scheme, n):
    """Every ratio recognition and ``scale_partners`` build is a valid ``q``."""
    candidates = _match_candidates(scheme, n)
    for match in candidates:
        for q in (match.q, -match.q, 1 / match.q, -1 / match.q):
            assert q not in (0, 1, -1)
            FamilyKind(match.variant, n, q=q)
    return candidates


def test_candidate_ratios_avoid_zero_and_unit():
    for n in range(1, 9):
        for kind in _table_members(n):
            scheme = named_scheme(kind)
            if len(scheme) == n + 1:
                _assert_candidates_are_valid(scheme, n)


def test_candidate_ratios_avoid_zero_and_unit_on_random_fits():
    """Random geometric patterns all fit, with valid ratios; doubling the
    largest node of a progression of three or more breaks the common ratio."""
    rng = random.Random(20260)

    def ratio():
        q = Fraction(rng.choice((1, -1)) * rng.randint(1, 40), rng.randint(1, 9))
        return ratio() if abs(q) == 1 else q

    def pattern(shape, n, progression):
        if shape == "symmetric":
            positive = [abs(x) for x in progression]
            return positive + [-x for x in positive] + ([0] if n % 2 == 0 else [])
        return progression + ([0] if shape == "forward" else [])

    fitted = bent = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        shape = rng.choice(("symmetric", "forward", "affine"))
        count = {"symmetric": (n + 1) // 2, "forward": n, "affine": n + 1}[shape]
        q, b = ratio(), Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))
        progression = [b * q ** i for i in range(count)]
        scheme = construct_exact(pattern(shape, n, progression), n)
        fitted += bool(_assert_candidates_are_valid(scheme, n))
        if count >= 3:
            top = max(progression, key=abs)
            doubled = [2 * x if x == top else x for x in progression]
            assert _match_candidates(construct_exact(pattern(shape, n, doubled), n), n) == []
            bent += 1
    assert fitted == 300
    assert bent == 207


def test_symmetric_family_node_layouts():
    assert set(named_scheme(gaussian_symmetric(3, 3)).nodes) == {-3, -1, 1, 3}
    assert set(named_scheme(gaussian_symmetric(4, 3)).nodes) == {-3, -1, 0, 1, 3}
    assert set(named_scheme(gaussian_symmetric(5, 2)).nodes) == {-4, -2, -1, 1, 2, 4}
    assert set(named_scheme(gaussian_symmetric(3, -3)).nodes) == {-3, -1, 1, 3}
    assert set(named_scheme(mz_tilde_symmetric(2)).nodes) == {-1, 0, 1}
    assert set(named_scheme(mz_tilde_symmetric(3)).nodes) == {-2, -1, 1, 2}
    assert set(named_scheme(mz_tilde_symmetric(4)).nodes) == {-2, -1, 0, 1, 2}
    assert set(named_scheme(mz_tilde_symmetric(5)).nodes) == {-4, -2, -1, 1, 2, 4}


def test_symmetric_second_members():
    assert named_scheme(mz_tilde_symmetric(2)) == canonicalize(
        [(1, -1), (-2, 0), (1, 1)]
    )
    # order-2 symmetric geometric members all degenerate to the same scheme
    assert named_scheme(gaussian_symmetric(2, 5)) == named_scheme(
        gaussian_symmetric(2, 2)
    )


def test_family_errors():
    with pytest.raises(InvalidQ):
        gaussian_affine(2, 1)
    with pytest.raises(InvalidQ):
        gaussian_forward(2, -1)
    with pytest.raises(InvalidOrder):
        riemann(0)
    with pytest.raises(InvalidOrder):
        mz_tilde_symmetric(1)


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=5), sane_q)
def test_affine_closed_form_agrees_with_solver(n, q):
    member = named_scheme(gaussian_affine(n, q))
    assert affine_closed_form(n, 0, q) == member
    assert member == construct_exact([q ** i for i in range(n + 1)], n)


@settings(max_examples=40)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=-3, max_value=3),
    sane_q,
)
def test_affine_shift_is_scale_of_affine(n, k, q):
    shifted = named_scheme(gaussian_affine_shift(n, k, q))
    assert shifted == scale(named_scheme(gaussian_affine(n, q)), q ** k)


# --- recognition -------------------------------------------------------------


def test_recognize_members_and_scales():
    cases = [
        (gaussian_affine(2, 2), GAUSSIAN_AFFINE, Fraction(2)),
        (gaussian_forward(3, 2), GAUSSIAN_FORWARD, Fraction(2)),
        (gaussian_forward(2, Fraction(5, 2)), GAUSSIAN_FORWARD, Fraction(5, 2)),
        (gaussian_affine(2, -2), GAUSSIAN_AFFINE, Fraction(-2)),
    ]
    for kind, variant, q in cases:
        member = named_scheme(kind)
        for b in (Fraction(1), Fraction(2), Fraction(-1, 3)):
            match = recognize_gaussian(scale(member, b))
            assert match is not None
            assert (match.variant, match.q, match.scale_b) == (variant, q, b)


def test_recognize_scaled_symmetric_members():
    member = named_scheme(gaussian_symmetric(3, 3))
    for b in (Fraction(1), Fraction(2)):
        match = recognize_gaussian(scale(member, b))
        assert match == GaussianMatch(GAUSSIAN_SYMMETRIC, Fraction(3), b, 3)
    # scaling a symmetric scheme by -1/3 equals scaling by 1/3, which is
    # exactly the q = 1/3 member; the exact member wins the tie-break
    folded = recognize_gaussian(scale(member, Fraction(-1, 3)))
    assert folded == GaussianMatch(
        GAUSSIAN_SYMMETRIC, Fraction(1, 3), Fraction(1), 3
    )


def test_recognize_affine_shift_members_as_scaled_affine():
    member = named_scheme(gaussian_affine_shift(2, -1, 3))
    match = recognize_gaussian(member)
    assert match == GaussianMatch(GAUSSIAN_AFFINE, Fraction(3), Fraction(1, 3), 2)


def test_recognize_prefers_exact_member():
    # nodes {1/2, 1} are both member(q=1/2) and scale-by-1/2 of member(q=2)
    member = named_scheme(gaussian_symmetric(3, Fraction(1, 2)))
    match = recognize_gaussian(member)
    assert match is not None
    assert match.scale_b == 1 and match.q == Fraction(1, 2)


def test_recognize_degenerate_patterns_use_canonical_ratio():
    match = recognize_gaussian(construct_exact([0, 1], 1))
    assert match == GaussianMatch(GAUSSIAN_FORWARD, Fraction(2), Fraction(1), 1)
    sym = recognize_gaussian(named_scheme(mz_tilde_symmetric(2)))
    assert sym == GaussianMatch(GAUSSIAN_SYMMETRIC, Fraction(2), Fraction(1), 2)


def test_recognize_rejects():
    # not a geometric progression
    assert recognize_gaussian(construct_exact([0, 1, 3, 4], 3)) is None
    # not exact (extra node)
    padded = canonicalize(
        list(named_scheme(gaussian_affine(2, 2)))
        + [(1, 8), (-1, 8)]  # cancels; still exact
    )
    assert recognize_gaussian(padded) is not None  # cancellation keeps it exact
    blurred = canonicalize([(1, 0), (-2, 1), (1, 2), (1, 5), (-1, 6)])
    assert recognize_gaussian(blurred) is None
    # not normalized
    member = named_scheme(gaussian_affine(2, 2))
    doubled = canonicalize([(2 * t.coeff, t.node) for t in member])
    assert recognize_gaussian(doubled) is None
    # the backward third difference has a repeated node magnitude
    assert recognize_gaussian(construct_exact([-1, 0, 1, 2], 3)) is None


# --- scale partners ----------------------------------------------------------


def test_affine_partner_is_reciprocal_ratio_only():
    match = recognize_gaussian(named_scheme(gaussian_affine(2, 2)))
    partners = scale_partners(match)
    assert partners == [GaussianMatch(GAUSSIAN_AFFINE, Fraction(1, 2), Fraction(4), 2)]


def test_forward_partner_is_reciprocal_ratio_only():
    match = recognize_gaussian(named_scheme(gaussian_forward(3, 2)))
    partners = scale_partners(match)
    assert partners == [
        GaussianMatch(GAUSSIAN_FORWARD, Fraction(1, 2), Fraction(4), 3)
    ]


def test_symmetric_partners_include_sign_flips():
    match = recognize_gaussian(named_scheme(gaussian_symmetric(3, 3)))
    partners = scale_partners(match)
    assert GaussianMatch(GAUSSIAN_SYMMETRIC, Fraction(-3), Fraction(1), 3) in partners
    assert GaussianMatch(GAUSSIAN_SYMMETRIC, Fraction(1, 3), Fraction(3), 3) in partners
    assert GaussianMatch(GAUSSIAN_SYMMETRIC, Fraction(-1, 3), Fraction(3), 3) in partners
    assert len(partners) == 3


def test_partner_bounds():
    first = recognize_gaussian(named_scheme(gaussian_forward(1, 3)))
    # order-1 forward patterns are degenerate; no distinct partners
    assert scale_partners(first) == []


def test_recognition_builds_no_member(monkeypatch):
    # recognition and its partners read node sets only: no member is built
    built = []

    def recording(nodes, n, _original=families.construct_exact):
        built.append((tuple(nodes), n))
        return _original(nodes, n)

    monkeypatch.setattr(families, "construct_exact", recording)
    named_scheme.cache_clear()
    # scale(gauss-sym:n=3,q=3, -2/3)
    scheme = scheme_from_json(
        '{"terms":[{"coeff":"-27/64","node":"-2/1"},{"coeff":"81/64","node":"-2/3"},'
        '{"coeff":"-81/64","node":"2/3"},{"coeff":"27/64","node":"2/1"}]}'
    )
    match = recognize_gaussian(scheme)
    assert match == GaussianMatch(GAUSSIAN_SYMMETRIC, Fraction(3), Fraction(2, 3), 3)
    assert len(scale_partners(match)) == 3
    assert built == []


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=4), sane_q, st.sampled_from([1, 2, -3]))
def test_partners_verify_exactly(n, q, b):
    member = named_scheme(gaussian_affine(n, q))
    target = scale(member, b)
    match = recognize_gaussian(target)
    assert match is not None
    for partner in scale_partners(match):
        alt = named_scheme(gaussian_affine(partner.n, partner.q))
        assert scale(alt, partner.scale_b) == target


# --- family strings ----------------------------------------------------------


def test_family_string_round_trip():
    kinds = [
        riemann(2),
        riemann_shift(3, -1),
        symmetric_riemann(4),
        gaussian_forward(3, 2),
        gaussian_affine(2, Fraction(3, 2)),
        gaussian_affine_shift(2, 1, Fraction(3, 2)),
        gaussian_symmetric(3, -3),
        mz_tilde(4),
        mz_tilde_symmetric(3),
        script_d(3, 2),
        script_d_bar(2, 3),
    ]
    for kind in kinds:
        assert parse_family(format_family(kind)) == kind


def test_family_string_examples():
    assert format_family(gaussian_affine_shift(2, 1, Fraction(3, 2))) == (
        "gauss-aff:n=2,k=1,q=3/2"
    )
    assert parse_family("shift:n=3,k=-1") == riemann_shift(3, -1)
    assert parse_family("gauss-fwd:n=3,q=2") == gaussian_forward(3, 2)
    # parameters past the interpreter's int-to-str limit are written out whole
    long = gaussian_affine_shift(10 ** 5000, -(10 ** 5000), Fraction(3, 10 ** 5000))
    assert parse_family(format_family(long)) == long


def test_family_string_errors():
    for bad in (
        "nope:n=2",
        "riemann",
        "riemann:k=1",
        "riemann:n=2,k=1",
        "shift:n=3",
        "gauss-fwd:n=3",
        "gauss-fwd:n=3,q=2,z=1",
        "riemann:n=x",
    ):
        with pytest.raises(CalculusError):
            parse_family(bad)


# --- the family budget -----------------------------------------------------------


def test_family_budget_refuses_before_building():
    limit = MAX_FAMILY_SIZE
    # (n+1)**2 times the digits of n: riemann:n=835 is the largest equispaced member
    assert 836 ** 2 * 3 <= limit < 837 ** 2 * 3
    assert parse_family("riemann:n=835") == FamilyKind("Riemann", 835)
    for text in (
        "riemann:n=836",
        "riemann:n=999999999999",
        "gauss-aff:n=2,k=10000000,q=3/2",  # nodes up to (3/2)**10000002
        "scriptD:n=1000000000,q=2",  # 2**(n-1) is never formed
        "gauss-fwd:n=67,q=1000001/1000000",  # 68**2 * 67 * 7 = 2,168,656
        "mz-tilde:n=128",
    ):
        # the parser only parses; the member's nodes are where the budget stands
        kind = parse_family(text)
        assert isinstance(kind, FamilyKind)
        for build in (family_nodes, named_scheme):
            with pytest.raises(OrderBudgetExceeded, match=f"must be at most {limit}, got \\d+$"):
                build(kind)


def test_family_budget_sits_far_above_the_golden_and_benchmark_inputs():
    # orders up to 16 with q up to two digits over one, and the script rows up to n = 12
    for text in ("gauss-aff:n=16,q=5/2", "gauss-aff:n=16,k=16,q=-3/2", "scriptD-bar:n=12,q=3/2"):
        family_nodes(parse_family(text))
    assert 17 ** 2 * 32 * 2 * 100 < MAX_FAMILY_SIZE


def test_gaussian_member_answered_where_construct_answers_its_nodes():
    # gauss-aff:n=101,q=3/2 was refused (size 2,101,608) while construct answered its nodes
    kind = gaussian_affine(101, Fraction(3, 2))
    assert named_scheme(kind) == construct_exact(family_nodes(kind), 101)


@pytest.mark.parametrize(
    "text, last",
    [
        ("gauss-aff:n={},q=3/2", 127),  # 128**2 * 127 * 1 = 2,080,768
        ("gauss-aff:n={},q=2", 127),
        ("gauss-aff:n={},q=-3/2", 127),  # the sign of q is no digit
        ("gauss-aff:n={},q=1000001/1000000", 66),  # 67**2 * 66 * 7 = 2,073,918
        ("gauss-aff:n={},q=1/10", 100),  # 101**2 * 100 * 2 = 2,040,200
        ("scriptD-bar:n={},q=3/2", 14),  # 15**2 * 2**13 * 1 = 1,843,200
        ("riemann:n={}", 835),  # 836**2 * 3 = 2,096,688
    ],
)
def test_family_limit_falls_at_the_last_member_answered(text, last):
    family_nodes(parse_family(text.format(last)))
    with pytest.raises(OrderBudgetExceeded, match="^member size "):
        family_nodes(parse_family(text.format(last + 1)))


def _construct_width(nodes):
    """The digits of the largest |numerator| or denominator among ``nodes``, written out."""
    return len(str(max(max(abs(b.numerator), b.denominator) for b in nodes)))


WIDE_Q = (Fraction(3, 2), -2, 10, Fraction(1, 10), Fraction(-1001, 7), Fraction(7, 100))


@pytest.mark.parametrize("n", range(1, 11))
def test_family_size_bounds_construct_size_on_the_formed_nodes(monkeypatch, n):
    # the family rule reads the width off the parameters; construct reads it off
    # the nodes, and the family's is never the smaller, so a member answered by
    # the family rule is answered by construct_exact
    widths = []

    def recording(order, width, _original=families._check_member_size):
        widths.append(width)
        return _original(order, width)

    monkeypatch.setattr(families, "_check_member_size", recording)
    for variant, (_, takes_k, takes_q) in _VARIANTS.items():
        if variant == MZ_TILDE_SYMMETRIC and n < 2:
            continue
        for k in range(-12, 13, 3) if takes_k else [None]:
            for q in WIDE_Q if takes_q else [None]:
                nodes = family_nodes(FamilyKind(variant, n, k=k, q=q))
                assert widths.pop() >= _construct_width(nodes)
