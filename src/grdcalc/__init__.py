"""Exact calculus of generalized Riemann differences.

A generalized Riemann difference is a finite combination
``sum_i a_i * f(x + b_i * h)`` whose node moments ``sum_i a_i * b_i**j``
vanish for ``j < n`` and equal ``n!`` at ``j = n``; it then computes the
n-th derivative in the limit.  This package builds such schemes exactly
over the rationals, decomposes and rescales them, recognizes the
geometric-node (Gaussian) families, decides equivalence with explicit
witnesses, catalogs which schemes are known to admit the
Marcinkiewicz-Zygmund property, and runs numeric limit probes on the
classical counterexample functions.

The public names below, and the five layer modules, are imported on first
access (PEP 562), so ``import grdcalc`` loads no layer and a program pays
only for the layers it reads.
"""

from importlib import import_module

__version__ = "0.1.0"

# layer module -> the public names it defines
_EXPORTS = {
    "equivalence": """
        EquivalenceVerdict PATH_FAST_DISTINCT PATH_FAST_NONNEG PATH_GENERAL PATH_SYMMETRIC
        REASON_ORDER REASON_SKEW REASON_SKEW_ZERO REASON_SYMMETRIC Witness class_member
        decide_equivalent equivalent_gaussian verify_witness
    """,
    "families": """
        FamilyKind GaussianMatch GAUSSIAN_AFFINE GAUSSIAN_AFFINE_SHIFT GAUSSIAN_FORWARD
        GAUSSIAN_SYMMETRIC IndexOutOfRange InvalidQ MZ_TILDE MZ_TILDE_SYMMETRIC RIEMANN
        RIEMANN_SHIFT SCRIPT_D SCRIPT_D_BAR SYMMETRIC_RIEMANN family_nodes format_family
        gaussian_affine gaussian_affine_shift gaussian_forward gaussian_symmetric
        match_to_json_dict mz_tilde mz_tilde_symmetric named_scheme parse_family qbinom
        recognize_gaussian riemann riemann_shift scale_partners script_d script_d_bar
        symmetric_riemann
    """,
    "mz": """
        CERT_D2S_NOT_MZ CERT_D31 CERT_GAUSSIAN CERT_GGR_SET CERT_RIEMANN_NOT_MZ
        CONJECTURE_GAUSSIAN CONJECTURE_NONE CONJECTURE_RIEMANN CONTINUITY Certificate
        ContinuityMarker DuplicateOrder MissingOrder MixedOrders MzVerdict NTimesReport
        NotNormalized PEANO_ALL_MZ PEANO_IDENTITY PEANO_UNKNOWN STATUS_MZ STATUS_NOT_MZ
        STATUS_OPEN ggr_set mz_check mz_set_check n_times_check verify_quantum_ggr
    """,
    "probes": """
        FunctionOracle ProbeBoundExceeded ProbeConfig ProbeReport ProbeSequence
        VERDICT_CONVERGES VERDICT_DIVERGES VERDICT_INCONCLUSIVE ZeroInput ZeroStep
        abs_oracle eval_quotient format_oracle limit_probe monomial_oracle parse_oracle
        peano_probe polynomial_oracle sgnsq_oracle subgroup_membership
        subgroup_monomial_oracle
    """,
    "scheme": """
        CalculusError DuplicateNodes IdentityCheckFailed InconsistentSystem InvalidOrder
        OrderBudgetExceeded OrderInfo Scheme Term UnderdeterminedSystem WrongNodeCount
        ZeroDilation ZeroNodeParityError ZeroScale ZeroScheme canonicalize combine
        construct_exact construct_exact_symmetric decompose format_rational format_scheme
        is_scale is_symmetric moment normalized order_info parse_rational reflect scale
        scheme_from_json scheme_to_json_dict
    """,
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_HOME, *_EXPORTS])


def __getattr__(name: str) -> object:
    """A public name or layer module, imported on first access and kept here."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
