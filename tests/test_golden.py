"""Same-behaviour gate: CLI JSON output compared byte for byte with golden files.

Each case below is one ``grdcalc --output json`` command; its stdout is kept
in ``tests/golden/<case>.json``.  Any change to a verdict, a witness, a path
label or the JSON layout shows up here as a byte difference.

To record the files again (only when an output change is intended)::

    PYTHONPATH=src python tests/test_golden.py --record
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from grdcalc.cli import DEMOS, main

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
# scale(gauss-sym:n=4,q=-3, 1/2)
GSYM4_SCALE = (
    '{"terms":[{"coeff":"8/3","node":"-3/2"},{"coeff":"-24/1","node":"-1/2"},'
    '{"coeff":"128/3","node":"0/1"},{"coeff":"-24/1","node":"1/2"},'
    '{"coeff":"8/3","node":"3/2"}]}'
)


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
}


def _stdout(argv) -> tuple[int, str]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["--output", "json", *argv])
    return code, buffer.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case):
    code, out = _stdout(CASES[case])
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{case}.json").read_bytes()


def test_golden_files_match_cases():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        code, out = _stdout(argv)
        if code != 0:
            raise SystemExit(f"{case}: exit {code}")
        (GOLDEN / f"{case}.json").write_bytes(out.encode("utf-8"))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    _record()
