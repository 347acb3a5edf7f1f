"""Independent reference for the Gaussian search: every candidate it once tried.

``reference_equivalent_gaussian``, ``reference_candidate_ratios`` and
``reference_match_candidates`` are the bodies ``equivalent_gaussian``,
``_candidate_ratios`` and ``families._match_candidates`` once had, kept
unchanged apart from their names.  After recognition the old search decided
every consecutive ratio of the symmetric part's positive nodes, at both
signs, against all three geometric variants.  The search now reads the one
possible variant and ratio off the scheme's class invariants, and the
candidate builder has one copy of the code that turns a node progression
into parameterizations; the reference tests pin both rewrites to this form.

``reference_search_without_shortcut`` is the old search with the
distinct-magnitude shortcut taken out, so that the shortcut's ``None`` can
be checked against the candidates it skips.

``reference_recognize_gaussian`` and ``reference_scale_partners`` are the
bodies ``recognize_gaussian`` and ``scale_partners`` once had, kept unchanged
apart from their names and from recognition reading its candidates off
``reference_match_candidates``.  They build every candidate member, scale it
and compare coefficients.  Recognition now decides a node pattern by its
common ratio, and the partners are closed forms of the same progression; no
member is built.  ``reference_match_candidates`` also returns two unchecked
candidates for patterns that are not geometric; ``_match_candidates`` returns
only the candidates whose scaled member has the scheme's node set.
"""

from fractions import Fraction
from typing import Optional

from grdcalc.equivalence import decide_equivalent
from grdcalc.families import (
    _CANONICAL_DEGENERATE_Q,
    GAUSSIAN_AFFINE,
    GAUSSIAN_FORWARD,
    GAUSSIAN_SYMMETRIC,
    FamilyKind,
    GaussianMatch,
    InvalidOrder,
    InvalidQ,
    named_scheme,
    recognize_gaussian,
)
from grdcalc.scheme import (
    Scheme,
    ZeroScheme,
    decompose,
    normalized,
    order_info,
    scale,
)
from scheme_reference import reference_is_scale


def reference_match_candidates(scheme: Scheme, n: int) -> list[GaussianMatch]:
    """Parameterizations (variant, q, b) whose node pattern fits ``scheme``."""
    nodes = set(scheme.nodes)
    out: list[GaussianMatch] = []
    if nodes == {-b for b in nodes}:
        positive = sorted(b for b in nodes if b > 0)
        zero_ok = (0 in nodes) == (n % 2 == 0)
        if len(positive) == (n + 1) // 2 and zero_ok and positive:
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


def reference_candidate_ratios(sym_part: Scheme) -> list[Fraction]:
    positive = sorted(t.node for t in sym_part if t.node > 0)
    if len(positive) < 2:
        return [Fraction(2)]
    seen = []
    for low, high in zip(positive, positive[1:]):
        ratio = high / low
        if ratio not in seen:
            seen.append(ratio)
    return seen


def reference_equivalent_gaussian(scheme: Scheme) -> Optional[GaussianMatch]:
    if scheme.is_zero:
        raise ZeroScheme("cannot match the zero scheme")
    scheme = normalized(scheme)
    n = order_info(scheme).order
    if n < 1:
        return None
    direct = recognize_gaussian(scheme)
    if direct is not None:
        return direct
    if len(scheme) == n + 1 and len({abs(t.node) for t in scheme}) == len(scheme):
        return None
    sym_part, _ = decompose(scheme, n)
    for ratio in reference_candidate_ratios(sym_part):
        for q in (ratio, -ratio):
            for variant in (GAUSSIAN_FORWARD, GAUSSIAN_AFFINE, GAUSSIAN_SYMMETRIC):
                try:
                    member = named_scheme(FamilyKind(variant, n, q=q))
                except (InvalidQ, InvalidOrder):
                    continue
                verdict = decide_equivalent(member, scheme)
                if verdict.equivalent:
                    return GaussianMatch(variant, q, verdict.witness.r, n)
    return None


def reference_search_without_shortcut(scheme: Scheme) -> Optional[GaussianMatch]:
    scheme = normalized(scheme)
    n = order_info(scheme).order
    direct = recognize_gaussian(scheme)
    if direct is not None:
        return direct
    sym_part, _ = decompose(scheme, n)
    for ratio in reference_candidate_ratios(sym_part):
        for q in (ratio, -ratio):
            for variant in (GAUSSIAN_FORWARD, GAUSSIAN_AFFINE, GAUSSIAN_SYMMETRIC):
                member = named_scheme(FamilyKind(variant, n, q=q))
                verdict = decide_equivalent(member, scheme)
                if verdict.equivalent:
                    return GaussianMatch(variant, q, verdict.witness.r, n)
    return None


def reference_recognize_gaussian(scheme: Scheme) -> Optional[GaussianMatch]:
    if scheme.is_zero:
        raise ZeroScheme("cannot recognize the zero scheme")
    info = order_info(scheme)
    n = info.order
    if n < 1 or info.normalizer != 1 or len(scheme) != n + 1:
        return None
    verified = []
    for match in reference_match_candidates(scheme, n):
        member = named_scheme(FamilyKind(match.variant, match.n, q=match.q))
        if scale(member, match.scale_b) == scheme:
            verified.append(match)
    if not verified:
        return None
    verified.sort(
        key=lambda m: (m.scale_b != 1, not abs(m.q) > 1, abs(m.scale_b))
    )
    return verified[0]


def reference_scale_partners(match: GaussianMatch) -> list[GaussianMatch]:
    n, q = match.n, match.q
    if match.variant == GAUSSIAN_FORWARD and n < 2:
        return []
    if match.variant == GAUSSIAN_SYMMETRIC and n < 3:
        return []
    base_member = named_scheme(FamilyKind(match.variant, n, q=q))
    target = scale(base_member, match.scale_b)
    partners = []
    for q_alt in (-q, 1 / q, -1 / q):
        member_alt = named_scheme(FamilyKind(match.variant, n, q=q_alt))
        witness = reference_is_scale(member_alt, target)
        if witness is not None:
            candidate = GaussianMatch(match.variant, q_alt, witness, n)
            if candidate != match:
                partners.append(candidate)
    return partners
