"""Same-behaviour gate: CLI output compared byte for byte with golden files.

Each case in ``CASES`` is one ``grdcalc --output json`` command that succeeds;
its stdout is kept in ``tests/golden/<case>.json``.  Each case in
``TEXT_CASES`` is one command in the default text output; its stdout is kept
in ``tests/golden/<case>.txt``.  Each case in ``REFUSALS`` is one command that
must exit 2 with a typed refusal; its stderr is kept in
``tests/golden/<case>.stderr``.  Any change to a verdict, a witness, a path
label, a refusal message or the JSON layout shows up here as a byte
difference.

To record the files again (only when an output change is intended)::

    PYTHONPATH=src python tests/test_golden.py --record

To compare every case in one process, for instance with asserts stripped::

    PYTHONPATH=src python -O tests/test_golden.py --check
"""

import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from grdcalc.cli import DEMOS, main
from test_cli import run_child

GOLDEN = Path(__file__).parent / "golden"

# construct_exact([-1, 2, 3], 2) and its scale by -2: exact, distinct magnitudes
DISTINCT_A = (
    '{"terms":[{"coeff":"1/6","node":"-1/1"},{"coeff":"-2/3","node":"2/1"},'
    '{"coeff":"1/2","node":"3/1"}]}'
)
DISTINCT_B = (
    '{"terms":[{"coeff":"1/8","node":"-6/1"},{"coeff":"-1/6","node":"-4/1"},'
    '{"coeff":"1/24","node":"2/1"}]}'
)
# symmetric part of shift:n=3,k=-1 plus the skew part of riemann:n=3
SHIFT_SYM_RIEMANN_SKEW = (
    '{"terms":[{"coeff":"1/2","node":"-3/1"},{"coeff":"-2/1","node":"-2/1"},'
    '{"coeff":"5/2","node":"-1/1"},{"coeff":"-1/1","node":"0/1"},'
    '{"coeff":"1/2","node":"1/1"},{"coeff":"-1/1","node":"2/1"},'
    '{"coeff":"1/2","node":"3/1"}]}'
)
# twice the first forward difference: not normalized
DOUBLED_FORWARD = '{"terms":[{"coeff":"-2","node":"0"},{"coeff":"2","node":"1"}]}'
D31 = (
    '{"terms":[{"coeff":"-1","node":"-1"},{"coeff":"3","node":"0"},'
    '{"coeff":"-3","node":"1"},{"coeff":"1","node":"2"}]}'
)
# class_member(mz_tilde(3), r=3, s=-1/2, B=5/2): equivalent to, not a scale of, mz-tilde:n=3
TILDE3_MEMBER = (
    '{"terms":[{"coeff":"-1/216","node":"-12/1"},{"coeff":"1/36","node":"-6/1"},'
    '{"coeff":"-1/27","node":"-3/1"},{"coeff":"5/16","node":"-2/1"},'
    '{"coeff":"-15/8","node":"-1/1"},{"coeff":"5/2","node":"-1/2"},'
    '{"coeff":"-15/8","node":"0/1"},{"coeff":"5/2","node":"1/2"},'
    '{"coeff":"-15/8","node":"1/1"},{"coeff":"5/16","node":"2/1"},'
    '{"coeff":"1/27","node":"3/1"},{"coeff":"-1/36","node":"6/1"},'
    '{"coeff":"1/216","node":"12/1"}]}'
)
# scale(mz_tilde_symmetric(4), -3/2)
TILDE_SYM4_SCALE = (
    '{"terms":[{"coeff":"16/81","node":"-3/1"},{"coeff":"-64/81","node":"-3/2"},'
    '{"coeff":"32/27","node":"0/1"},{"coeff":"-64/81","node":"3/2"},'
    '{"coeff":"16/81","node":"3/1"}]}'
)
# scale(symmetric_riemann(2), 5/3)
D2S_SCALE = (
    '{"terms":[{"coeff":"9/25","node":"-5/3"},{"coeff":"-18/25","node":"0/1"},'
    '{"coeff":"9/25","node":"5/3"}]}'
)
# scales of gaussian_affine(2, 3/2) by 1, -2 and 1/3
GAFF_SCALES = [
    '{"terms":[{"coeff":"16/5","node":"1/1"},{"coeff":"-16/3","node":"3/2"},'
    '{"coeff":"32/15","node":"9/4"}]}',
    '{"terms":[{"coeff":"8/15","node":"-9/2"},{"coeff":"-4/3","node":"-3/1"},'
    '{"coeff":"4/5","node":"-2/1"}]}',
    '{"terms":[{"coeff":"144/5","node":"1/3"},{"coeff":"-48/1","node":"1/2"},'
    '{"coeff":"96/5","node":"3/4"}]}',
]
# class_member(D31, r=2, s=-3, B=-7/4)
D31_MEMBER = (
    '{"terms":[{"coeff":"-7/8","node":"-6/1"},{"coeff":"-1/16","node":"-4/1"},'
    '{"coeff":"7/2","node":"-3/1"},{"coeff":"1/8","node":"-2/1"},'
    '{"coeff":"-21/4","node":"0/1"},{"coeff":"-1/8","node":"2/1"},'
    '{"coeff":"7/2","node":"3/1"},{"coeff":"1/16","node":"4/1"},'
    '{"coeff":"-7/8","node":"6/1"}]}'
)

# class_member(gauss-fwd:n=3,q=-2, r=3/2, s=-2, B=-1/3): matched at q = -2
GFWD3_MEMBER = (
    '{"terms":[{"coeff":"-1/72","node":"-8/1"},{"coeff":"-1/81","node":"-6/1"},'
    '{"coeff":"1/36","node":"-4/1"},{"coeff":"-2/81","node":"-3/1"},'
    '{"coeff":"1/9","node":"-2/1"},{"coeff":"8/81","node":"-3/2"},'
    '{"coeff":"-1/4","node":"0/1"},{"coeff":"-8/81","node":"3/2"},'
    '{"coeff":"1/9","node":"2/1"},{"coeff":"2/81","node":"3/1"},'
    '{"coeff":"1/36","node":"4/1"},{"coeff":"1/81","node":"6/1"},'
    '{"coeff":"-1/72","node":"8/1"}]}'
)
# class_member(gauss-aff:n=4,q=3/2, r=-2, s=1/2, B=5)
GAFF4_MEMBER = (
    '{"terms":[{"coeff":"16384/1500525","node":"-81/8"},{"coeff":"-2048/23085","node":"-27/4"},'
    '{"coeff":"512/2025","node":"-9/2"},{"coeff":"-256/855","node":"-3/1"},'
    '{"coeff":"-262144/300105","node":"-81/32"},{"coeff":"768/6175","node":"-2/1"},'
    '{"coeff":"32768/4617","node":"-27/16"},{"coeff":"-8192/405","node":"-9/8"},'
    '{"coeff":"4096/171","node":"-3/4"},{"coeff":"-12288/1235","node":"-1/2"},'
    '{"coeff":"12288/1235","node":"1/2"},{"coeff":"-4096/171","node":"3/4"},'
    '{"coeff":"8192/405","node":"9/8"},{"coeff":"-32768/4617","node":"27/16"},'
    '{"coeff":"768/6175","node":"2/1"},{"coeff":"262144/300105","node":"81/32"},'
    '{"coeff":"-256/855","node":"3/1"},{"coeff":"512/2025","node":"9/2"},'
    '{"coeff":"-2048/23085","node":"27/4"},{"coeff":"16384/1500525","node":"81/8"}]}'
)
# scale(gauss-sym:n=5,q=-3, -2/3): skew-free, so recognition alone decides
GSYM5_SCALE = (
    '{"terms":[{"coeff":"-9/1024","node":"-6/1"},{"coeff":"135/512","node":"-2/1"},'
    '{"coeff":"-729/1024","node":"-2/3"},{"coeff":"729/1024","node":"2/3"},'
    '{"coeff":"-135/512","node":"2/1"},{"coeff":"9/1024","node":"6/1"}]}'
)
# class_member(riemann:n=4, r=2, s=-1, B=3): several symmetric-part ratios
RIEMANN4_MEMBER = (
    '{"terms":[{"coeff":"1/32","node":"-8/1"},{"coeff":"-1/8","node":"-6/1"},'
    '{"coeff":"27/16","node":"-4/1"},{"coeff":"-6/1","node":"-3/1"},'
    '{"coeff":"71/8","node":"-2/1"},{"coeff":"-6/1","node":"-1/1"},'
    '{"coeff":"1/16","node":"0/1"},{"coeff":"6/1","node":"1/1"},'
    '{"coeff":"-73/8","node":"2/1"},{"coeff":"6/1","node":"3/1"},'
    '{"coeff":"-21/16","node":"4/1"},{"coeff":"-1/8","node":"6/1"},'
    '{"coeff":"1/32","node":"8/1"}]}'
)
# construct_exact([-1/2, 1/3, 2], 2): rational nodes and coefficients
RATIONAL_NODES = (
    '{"terms":[{"coeff":"24/25","node":"-1/2"},{"coeff":"-36/25","node":"1/3"},'
    '{"coeff":"12/25","node":"2/1"}]}'
)
# scale(gauss-sym:n=4,q=-3, 1/2)
GSYM4_SCALE = (
    '{"terms":[{"coeff":"8/3","node":"-3/2"},{"coeff":"-24/1","node":"-1/2"},'
    '{"coeff":"128/3","node":"0/1"},{"coeff":"-24/1","node":"1/2"},'
    '{"coeff":"8/3","node":"3/2"}]}'
)
# f(x) and f(x+2h): schemes of order 0, whose refusals name that order
ORDER_0 = '{"terms":[{"coeff":"1","node":"0"}]}'
ORDER_0_AT_2 = '{"terms":[{"coeff":"1","node":"2"}]}'
# not canonical: unsorted, and the node 1/2 written twice, once as "2/4"
UNSORTED_DUPLICATE_NODE = (
    '{"terms":[{"coeff":"1","node":"1"},{"coeff":"1","node":"2/4"},'
    '{"coeff":"-3","node":"0"},{"coeff":"1","node":"1/2"}]}'
)


LONG = "x" * 10_000
NINES = "9" * 3000


def _equiv(a, b, *extra):
    return ["equiv", "--a", a, "--b", b, *extra]


CASES = {
    **{f"demo_{name}": ["demo", name] for name in DEMOS},
    "construct_nodes": ["construct", "--nodes", "-1,0,1,2", "--order", "3"],
    "construct_pairs": ["construct", "--pairs", "1,2", "--order", "3"],
    "decompose": ["decompose", D31],
    "scale": ["scale", "mz-tilde:n=3", "--by", "2"],
    "recognize": ["recognize", "gauss-aff:n=2,q=2"],
    "mz_check": ["mz-check", "riemann:n=3"],
    "mz_check_symmetric": ["mz-check", "riemann-sym:n=2", "--symmetric"],
    "mz_set": ["mz-set"] + [f"shift:n=4,k=-{k}" for k in (1, 2, 3, 4)],
    # catalog members that only the Gaussian search certifies
    "mz_check_tilde_class_member": ["mz-check", TILDE3_MEMBER],
    "mz_check_symmetric_tilde_scale": ["mz-check", TILDE_SYM4_SCALE, "--symmetric"],
    "mz_check_d2s_scale": ["mz-check", D2S_SCALE],
    "mz_set_gaussian_scales": ["mz-set", *GAFF_SCALES],
    # the Gaussian search reads the variant and ratio off the scheme
    "mz_check_gauss_fwd_member": ["mz-check", GFWD3_MEMBER],
    "mz_check_gauss_aff_member": ["mz-check", GAFF4_MEMBER],
    "mz_check_gauss_sym_scale": ["mz-check", GSYM5_SCALE],
    "mz_check_symmetric_gauss_sym_scale": ["mz-check", GSYM5_SCALE, "--symmetric"],
    "mz_check_riemann_member": ["mz-check", RIEMANN4_MEMBER],
    "recognize_gauss_sym_scale": ["recognize", GSYM4_SCALE],
    "recognize_gauss_fwd_order_1": ["recognize", "gauss-fwd:n=1,q=5"],
    "ggr": ["ggr", "--order", "3"],
    "qggr": ["qggr", "--order", "2", "--ell", "0", "--q", "3"],
    "ntimes": [
        "ntimes",
        "--entry", "0:cont",
        "--entry", '1:{"terms": [{"coeff": "-1", "node": "0"}, {"coeff": "1", "node": "1"}]}',
        "--entry", "2:riemann-sym:n=2",
        "--entry", "3:" + D31,
    ],
    "probe": ["probe", "riemann-sym:n=1", "--oracle", "abs"],
    "probe_peano": ["probe", "--peano", "2", "--oracle", "sgnsq"],
    # one probe case per oracle kind and sample-point shape
    "probe_mono_off_zero": ["probe", "riemann:n=2", "--oracle", "mono:k=3", "--x", "-2/3"],
    "probe_poly_rational_off_zero": [
        "probe", "shift:n=2,k=-1", "--oracle", "poly:1/2,-3,2/3,5/4", "--x", "3/2",
    ],
    "probe_subgmono_zero": ["probe", "riemann-sym:n=2", "--oracle", "subgmono:k=2;gens=-2,3/5"],
    "probe_subgmono_off_zero": [
        "probe", "riemann:n=1", "--oracle", "subgmono:k=2;gens=2,3", "--x", "4/3",
    ],
    "probe_json_rational_nodes": ["probe", RATIONAL_NODES, "--oracle", "sgnsq", "--x", "-1/5"],
    "probe_peano_subgmono": ["probe", "--peano", "3", "--oracle", "subgmono:k=2;gens=-2,3/5"],
    # the generator is 1000003 * 1000033: no prime of it is ever needed
    "probe_subgroup_semiprime_generator": [
        "probe", "mz-tilde:n=2", "--oracle", "subgmono:k=3;gens=1000036000099", "--x", "0/1",
    ],
    # one equiv case per path
    "equiv_symmetric_scale": _equiv("riemann-sym:n=2", "riemann-sym:n=2"),
    "equiv_fast_nonneg": _equiv("riemann:n=2", "riemann:n=2"),
    "equiv_fast_distinct": _equiv(DISTINCT_A, DISTINCT_B),
    "equiv_general": _equiv("shift:n=3,k=-1", "shift:n=3,k=-1"),
    "equiv_general_no_fast": _equiv("shift:n=3,k=-1", "shift:n=3,k=-1", "--no-fast"),
    # one equiv case per negative reason
    "equiv_order_mismatch": _equiv("riemann:n=2", "shift:n=3,k=-1"),
    "equiv_symmetric_mismatch": _equiv("riemann:n=2", "riemann-sym:n=2"),
    "equiv_skew_zero": _equiv("shift:n=3,k=-1", "gauss-sym:n=3,q=2"),
    "equiv_skew_mismatch": _equiv("shift:n=3,k=-1", SHIFT_SYM_RIEMANN_SKEW),
    # the general path on a class member built with negative s
    "equiv_no_fast_negative_s": _equiv(D31, D31_MEMBER, "--no-fast"),
    # a non-normalized input
    "equiv_normalized": _equiv(DOUBLED_FORWARD, "riemann:n=1"),
    # even order without the zero node: n+2 nodes, not a unique exact scheme
    "construct_pairs_even_no_zero": ["construct", "--pairs", "1,2", "--order", "2"],
    # symmetric family members at high order, both parities
    "decompose_gauss_sym_order_8": ["decompose", "gauss-sym:n=8,q=-3/2"],
    "scale_gauss_sym_order_11": ["scale", "gauss-sym:n=11,q=5/2", "--by", "-1/3"],
    "scale_mz_tilde_sym_order_7": ["scale", "mz-tilde-sym:n=7", "--by", "2"],
    "scale_mz_tilde_sym_order_10": ["scale", "mz-tilde-sym:n=10", "--by", "-1"],
    "scale_riemann_sym_order_9": ["scale", "riemann-sym:n=9", "--by", "1/2"],
    # a JSON scheme that is not canonical is sorted and merged as it is read
    "scale_json_unsorted_duplicate_node": ["scale", UNSORTED_DUPLICATE_NODE, "--by", "1"],
}

# the default text output of every demo and of one command per reporting verb
TEXT_CASES = {
    **{f"text_demo_{name}": ["demo", name] for name in DEMOS},
    "text_equiv": _equiv(D31, D31_MEMBER),
    "text_mz_check": ["mz-check", D31_MEMBER],
    "text_probe": ["probe", "--peano", "2", "--oracle", "sgnsq"],
    # the order line of a scale is its input's order data, and of a construct its own
    "text_scale_member": ["scale", "gauss-aff:n=4,q=3/2", "--by", "-2"],
    "text_scale_unnormalized": ["scale", DOUBLED_FORWARD, "--by", "3"],
    "text_construct": ["construct", "--nodes", "-1,0,1,2", "--order", "3"],
}

# commands that exit 2; each stderr line names the refusal
REFUSALS = {
    "refuse_mz_tilde_sym_order_1": ["scale", "mz-tilde-sym:n=1", "--by", "1"],
    "refuse_gauss_sym_q_1": ["scale", "gauss-sym:n=3,q=1", "--by", "1"],
    "refuse_shift_without_k": ["scale", "shift:n=3", "--by", "1"],
    "refuse_riemann_with_k": ["scale", "riemann:n=3,k=1", "--by", "1"],
    "refuse_gauss_fwd_without_q": ["scale", "gauss-fwd:n=3", "--by", "1"],
    "refuse_riemann_with_q": ["scale", "riemann:n=2,q=2", "--by", "1"],
    "refuse_unknown_family": ["scale", "nope:n=2", "--by", "1"],
    "refuse_qggr_q_minus_1": ["qggr", "--order", "2", "--ell", "0", "--q", "-1"],
    "refuse_recognize_order_0": ["recognize", "gauss-aff:n=0,q=2"],
    # refusals that quote the input, at a short input
    "refuse_bad_family_parameter": ["scale", "riemann:n=2,k", "--by", "1"],
    "refuse_unknown_oracle": ["probe", "riemann:n=1", "--oracle", "nope"],
    "refuse_abs_oracle_with_parameter": ["probe", "riemann:n=1", "--oracle", "abs:k=3"],
    "refuse_bad_subgroup_field": ["probe", "riemann:n=1", "--oracle", "subgmono:k=2;z=1"],
    "refuse_repeated_subgroup_field": ["probe", "riemann:n=1", "--oracle", "subgmono:k=1;k=2;gens=2"],
    "refuse_bad_chain_order": ["ntimes", "--entry", "x:cont"],
    "refuse_missing_scheme_file": ["scale", "@no-such-scheme.json", "--by", "1"],
    "refuse_missing_batch_file": ["--batch", "no-such-batch.txt"],
    "refuse_unknown_demo": ["demo", "E99"],
    "refuse_ntimes_missing_orders": ["ntimes", "--entry", "0:cont", "--entry", "3:cont"],
    "refuse_ntimes_duplicate_order": ["ntimes", "--entry", "0:cont", "--entry", "0:cont"],
    "refuse_ntimes_negative_order": ["ntimes", "--entry=-1:cont"],
    "refuse_construct_node_count": ["construct", "--nodes", "0,1", "--order", "3"],
    # the same refusals at a 10,000-character input quote at most 100 characters of it
    "refuse_unknown_family_long": ["scale", LONG, "--by", "1"],
    "refuse_bad_family_parameter_long": ["scale", "riemann:n=2," + LONG, "--by", "1"],
    "refuse_unexpected_family_parameters_long": ["scale", f"riemann:n=2,{LONG}=1", "--by", "1"],
    "refuse_unknown_oracle_long": ["probe", "riemann:n=1", "--oracle", LONG],
    "refuse_bad_subgroup_field_long": ["probe", "riemann:n=1", "--oracle", "subgmono:" + LONG],
    "refuse_bad_chain_order_long": ["ntimes", "--entry", LONG + ":cont"],
    "refuse_missing_scheme_file_long": ["scale", "@" + LONG, "--by", "1"],
    "refuse_missing_batch_file_long": ["--batch", LONG],
    "refuse_unknown_demo_long": ["demo", LONG],
    # a long order and bad integer options: refusals of the library and of argparse
    "refuse_recognize_order_negative_long": ["recognize", "riemann:n=-" + "9" * 4000],
    "refuse_ggr_order_negative_long": ["ggr", "--order", "-" + "9" * 4000],
    "refuse_construct_order_not_int": ["construct", "--order", "abc"],
    "refuse_construct_order_not_int_long": ["construct", "--order", LONG],
    "refuse_qggr_ell_not_int_long": ["qggr", "--order", "2", "--ell", LONG, "--q", "3"],
    # long orders, and a chain missing 99,999 orders, in the order refusals
    "refuse_ntimes_missing_orders_long": [
        "ntimes", "--entry", "0:cont", "--entry", "100000:riemann:n=1",
    ],
    "refuse_ntimes_duplicate_order_long": [
        "ntimes", "--entry", "0:cont", "--entry", NINES + ":cont", "--entry", NINES + ":cont",
    ],
    "refuse_ntimes_negative_order_long": ["ntimes", f"--entry=-{NINES}:cont"],
    "refuse_construct_node_count_long": ["construct", "--nodes", "0,1", "--order", NINES],
    "refuse_probe_jmin_not_int": ["probe", "riemann:n=1", "--oracle", "abs", "--jmin", "abc"],
    "refuse_probe_jmin_not_int_long": ["probe", "riemann:n=1", "--oracle", "abs", "--jmin", LONG],
    # probe inputs above their limits are refused before any sample is taken
    "refuse_probe_degree_over_limit": ["probe", "riemann:n=2", "--oracle=mono:k=162", "--x=1"],
    "refuse_probe_depth_over_limit": ["probe", "--peano", "17", "--oracle=mono:k=1", "--x=1/3"],
    "refuse_probe_jmax_over_limit": ["probe", "riemann:n=1", "--oracle", "abs", "--jmax", "257"],
    "refuse_probe_size_over_limit": [
        "probe", "--peano", "16", "--oracle=mono:k=32", "--x=1/3", "--jmax", "256",
    ],
    # the product within its bound, times the 3,000 digits of x above it
    "refuse_probe_x_digits_over_limit": [
        "probe", "riemann:n=4", "--oracle=mono:k=32", "--x=1/" + "7" * 3000,
    ],
    # the product within its bound, times the 1,000 digits of the ratio 1/g that
    # the subgroup oracle adds from its generator g
    "refuse_probe_subgroup_generator_digits_over_limit": [
        "probe", "riemann:n=2", "--oracle", "subgmono:k=32;gens=1" + "0" * 998 + "1", "--x", "0",
    ],
    # an exponent above its limit is refused before Fraction computes 10**999999
    "refuse_rational_exponent_over_limit": ["scale", "riemann:n=2", "--by", "1e999999"],
    # family orders, the ggr order and qggr inputs above their budgets are refused up front
    "refuse_scale_family_over_budget": ["scale", "riemann:n=3000", "--by", "2"],
    "refuse_recognize_family_over_budget": ["recognize", "gauss-aff:n=3000,q=2"],
    "refuse_qggr_over_budget": ["qggr", "--order", "120", "--ell", "0", "--q", "3/2"],
    "refuse_scale_family_order_12_digits": ["scale", "riemann:n=999999999999", "--by", "2"],
    "refuse_decompose_family_over_budget": ["decompose", "riemann:n=3000"],
    "refuse_ggr_order_over_budget": ["ggr", "--order", "400"],
    # the nodes of riemann:n=836, given as a list: refused like the family string
    "refuse_construct_over_budget": [
        "construct", "--nodes", ",".join(map(str, range(837))), "--order", "836",
    ],
    # integers past the 4,300-digit int-from-str limit, refused by their budgets
    "refuse_recognize_family_order_5000_digits": ["recognize", "riemann:n=" + "9" * 5000],
    "refuse_ggr_order_5000_digits": ["ggr", "--order", "9" * 5000],
    # JSON true and false are not rationals
    "refuse_json_boolean_rational": [
        "scale", '{"terms":[{"coeff":true,"node":1},{"coeff":-1,"node":false}]}', "--by", "1",
    ],
    # order-0 schemes are refused by the verb that detects the order, not by an internal call
    "refuse_mz_check_order_0": ["mz-check", ORDER_0],
    "refuse_equiv_order_0": _equiv(ORDER_0, ORDER_0_AT_2),
    "refuse_decompose_order_0": ["decompose", ORDER_0],
    # a set above the ggr limit, whose members are open, is refused in mz-set's own words
    "refuse_mz_set_order_over_ggr_limit": ["mz-set", "riemann:n=130", "shift:n=130,k=-2"],
    # a set of 40 orders is refused with its orders quoted bounded
    "refuse_mz_set_mixed_orders_long": ["mz-set", *(f"riemann:n={n}" for n in range(1, 41))],
    # --zero belongs to --pairs; --nodes lists every node itself
    "refuse_construct_nodes_with_zero": ["construct", "--nodes", "0,1", "--order", "1", "--zero"],
    "refuse_construct_nodes_empty": ["construct", "--nodes", ",", "--order", "1"],
    # a batch file holds the commands; an inline verb beside it is refused, not dropped
    "refuse_batch_with_inline_verb": ["--batch", "no-such-batch.txt", "demo", "E1"],
}
# a refusal quotes its input with a bounded echo, so no stderr file grows past this
REFUSAL_BYTES = 300


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage line to the terminal width, and refuses by exiting
    with redirect_stdout(out), redirect_stderr(err), mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


JSON = ["--output", "json"]
# case -> (argv, exit code, stream kept, golden file), for every golden case
EXPECTED = {
    **{case: ([*JSON, *argv], 0, "stdout", GOLDEN / f"{case}.json") for case, argv in CASES.items()},
    **{case: (argv, 0, "stdout", GOLDEN / f"{case}.txt") for case, argv in TEXT_CASES.items()},
    **{case: ([*JSON, *argv], 2, "stderr", GOLDEN / f"{case}.stderr") for case, argv in REFUSALS.items()},
}


def _mismatch(case: str) -> str:
    """Empty when ``case`` gives its golden exit code, stream bytes and an empty other stream."""
    argv, want_code, stream, path = EXPECTED[case]
    code, out, err = _run(argv)
    got, other = (out, err) if stream == "stdout" else (err, out)
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    if other:
        return "unexpected output on the other stream"
    if got.encode("utf-8") != path.read_bytes():
        return f"{stream} differs from {path.name}"
    return ""


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case):
    assert _mismatch(case) == ""


@pytest.mark.parametrize("case", sorted(TEXT_CASES))
def test_golden_text_output(case):
    assert _mismatch(case) == ""


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_golden_refusal(case):
    assert _mismatch(case) == ""


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_golden_refusal_is_short(case):
    assert len(EXPECTED[case][3].read_bytes()) <= REFUSAL_BYTES


def test_golden_files_match_cases():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(
        path.name for *_, path in EXPECTED.values()
    )


def test_golden_corpus_with_every_unchecked_build_checked(checked_builds):
    # every case in this process, demos included, with each _scheme result
    # rebuilt by the validating Scheme(terms) (see the fixture in conftest)
    assert [case for case in EXPECTED if _mismatch(case)] == []
    assert checked_builds.count > 200


def test_golden_under_optimize_flag():
    # one child with asserts stripped runs every case, stdout and refusals
    result = run_child([sys.executable, "-O", __file__, "--check"])
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout == f"{len(EXPECTED)} golden cases match, asserts off\n"


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for case, (argv, want_code, stream, path) in EXPECTED.items():
        code, out, err = _run(argv)
        if code != want_code:
            raise SystemExit(f"{case}: exit {code}, expected {want_code}")
        path.write_bytes((out if stream == "stdout" else err).encode("utf-8"))


def _check() -> int:
    failed = [(case, why) for case in EXPECTED if (why := _mismatch(case))]
    for case, why in failed:
        print(f"{case}: {why}")
    if failed:
        return 1
    print(f"{len(EXPECTED)} golden cases match, asserts {'on' if __debug__ else 'off'}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        _record()
    elif sys.argv[1:] == ["--check"]:
        sys.exit(_check())
    else:
        raise SystemExit(
            "usage: PYTHONPATH=src python tests/test_golden.py --record | --check"
        )
