"""Command-line interface: verbs, formats, exit codes, batch mode."""

import argparse
import importlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import grdcalc
from grdcalc import cli
from grdcalc import (
    CONTINUITY,
    CalculusError,
    DuplicateNodes,
    FamilyKind,
    FunctionOracle,
    IndexOutOfRange,
    InvalidOrder,
    OrderBudgetExceeded,
    ProbeConfig,
    Scheme,
    Term,
    canonicalize,
    class_member,
    combine,
    construct_exact,
    construct_exact_symmetric,
    decompose,
    gaussian_affine_shift,
    ggr_set,
    mz_check,
    mz_set_check,
    mz_tilde,
    n_times_check,
    named_scheme,
    parse_rational,
    polynomial_oracle,
    qbinom,
    riemann,
    scale,
    scheme_to_json_dict,
    script_d,
    subgroup_membership,
    subgroup_monomial_oracle,
)
from grdcalc.cli import main
from grdcalc.mz import DEMOS

D31 = construct_exact([-1, 0, 1, 2], 3)
D31_JSON = json.dumps(scheme_to_json_dict(D31))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- construct / scale / decompose ---------------------------------------------


def test_construct_nodes_json(capsys):
    code, out, _ = run(
        capsys, ["--output", "json", "construct", "--nodes", "-1,0,1,2", "--order", "3"]
    )
    assert code == 0
    assert json.loads(out) == scheme_to_json_dict(D31)


def test_construct_symmetric_text(capsys):
    code, out, _ = run(
        capsys, ["construct", "--pairs", "1", "--zero", "--order", "2"]
    )
    assert code == 0
    assert out.splitlines() == [
        "f(x+h) - 2*f(x) + f(x-h)",
        "order: 2   normalizer: 1/1",
    ]


def test_construct_requires_exactly_one_node_form(capsys):
    code, _, err = run(capsys, ["construct", "--order", "2"])
    assert code == 2 and "error:" in err
    code, _, err = run(
        capsys,
        ["construct", "--nodes", "0,1,2", "--pairs", "1", "--order", "2"],
    )
    assert code == 2 and "not both" in err


def test_scale_family_string(capsys):
    code, out, _ = run(
        capsys, ["--output", "json", "scale", "mz-tilde:n=3", "--by", "2"]
    )
    assert code == 0
    expected = scale(named_scheme(mz_tilde(3)), 2)
    assert json.loads(out) == scheme_to_json_dict(expected)


def test_text_scale_detects_no_order(capsys, derivations):
    # the member carries the order its check proved, and the scale keeps it
    code, out, _ = run(capsys, ["scale", "gauss-aff:n=8,q=3/2", "--by", "2"])
    assert code == 0 and out.splitlines()[1] == "order: 8   normalizer: 1/1"
    assert derivations.orders == []


def test_text_construct_detects_no_order(capsys, derivations):
    # construct_exact hands its result the order data its closed form fixes
    code, out, _ = run(capsys, ["construct", "--nodes", "-1,0,1,2", "--order", "3"])
    assert code == 0 and out.splitlines()[1] == "order: 3   normalizer: 1/1"
    assert derivations.orders == []


def test_decompose_inline_json(capsys):
    code, out, _ = run(capsys, ["--output", "json", "decompose", D31_JSON])
    assert code == 0
    plus, minus = decompose(D31, 3)
    assert json.loads(out) == {
        "plus": scheme_to_json_dict(plus),
        "minus": scheme_to_json_dict(minus),
    }


# --- equivalence ----------------------------------------------------------------


def write_scheme_file(path, terms):
    payload = {"terms": [{"coeff": c, "node": n} for c, n in terms]}
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_equiv_from_files(capsys, tmp_path):
    a = write_scheme_file(tmp_path / "a.json", [("-1", "0"), ("1", "1")])
    b = write_scheme_file(
        tmp_path / "b.json", [("2", "-1"), ("-5", "0"), ("3", "1")]
    )
    code, out, _ = run(
        capsys, ["--output", "json", "equiv", "--a", "@" + a, "--b", "@" + b]
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["equivalent"] is True
    assert verdict["witness"] == {"n": 1, "r": "1/1", "s": "1/1", "A": "1/1", "B": "5/1"}
    assert verdict["path"] == "General"

    code, out, _ = run(
        capsys, ["--output", "json", "equiv", "--a", "@" + b, "--b", "@" + a]
    )
    assert json.loads(out)["witness"]["B"] == "1/5"


def test_equiv_no_fast_flag(capsys):
    scaled = json.dumps(
        scheme_to_json_dict(scale(construct_exact([0, 1, 2], 2), 3))
    )
    code, out, _ = run(
        capsys,
        ["--output", "json", "equiv", "--a", "riemann:n=2", "--b", scaled, "--no-fast"],
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["equivalent"] is True
    assert verdict["path"] == "General"


def test_equiv_negative_text(capsys):
    code, out, _ = run(
        capsys, ["equiv", "--a", "riemann:n=2", "--b", "riemann:n=3"]
    )
    assert code == 0  # negative verdicts are successful computations
    assert "equivalent: no" in out
    assert "reason: OrderMismatch" in out


# --- recognition ------------------------------------------------------------------


def test_recognize_member_with_partner(capsys):
    code, out, _ = run(capsys, ["--output", "json", "recognize", "gauss-aff:n=2,q=2"])
    assert code == 0
    data = json.loads(out)
    assert data["match"] == {"variant": "GaussianAffine", "q": "2/1", "b": "1/1", "n": 2}
    assert data["partners"] == [
        {"variant": "GaussianAffine", "q": "1/2", "b": "4/1", "n": 2}
    ]


def test_recognize_none(capsys):
    code, out, _ = run(capsys, ["recognize", D31_JSON])
    assert code == 0
    assert out.strip() == "recognize: none"


# --- verdicts -----------------------------------------------------------------------


def test_mz_check_modes(capsys):
    code, out, _ = run(capsys, ["--output", "json", "mz-check", "riemann:n=3"])
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "known-not-mz"
    assert data["certificate"]["kind"] == "RiemannProvenNotMZ"

    code, out, _ = run(capsys, ["--output", "json", "mz-check", "riemann-sym:n=2"])
    assert json.loads(out)["status"] == "known-not-mz"

    code, out, _ = run(
        capsys, ["--output", "json", "mz-check", "riemann-sym:n=2", "--symmetric"]
    )
    assert json.loads(out)["status"] == "known-mz"


def test_mz_set_coverage(capsys):
    code, out, _ = run(
        capsys,
        ["--output", "json", "mz-set"]
        + [f"shift:n=4,k=-{k}" for k in (1, 2, 3, 4)],
    )
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "known-mz"
    assert data["certificate"] == {"kind": "GgrSet", "n": 4, "reduced": False}


def test_ggr_listing(capsys):
    code, out, _ = run(capsys, ["--output", "json", "ggr", "--order", "3"])
    assert code == 0
    assert len(json.loads(out)["members"]) == 3
    code, out, _ = run(
        capsys, ["--output", "json", "ggr", "--order", "3", "--reduced"]
    )
    assert len(json.loads(out)["members"]) == 1


def test_qggr_ok_and_invalid(capsys):
    code, out, _ = run(
        capsys, ["--output", "json", "qggr", "--order", "2", "--ell", "0", "--q", "3"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["witnesses"] == [
        {"k": 0, "scale": "1/1"},
        {"k": 1, "scale": "3/1"},
        {"k": 2, "scale": "9/1"},
    ]
    code, _, err = run(
        capsys, ["qggr", "--order", "2", "--ell", "0", "--q", "1"]
    )
    assert code == 2 and "error:" in err


def test_ntimes_identity_chain(capsys, tmp_path):
    d31 = write_scheme_file(
        tmp_path / "d31.json",
        [("-1", "-1"), ("3", "0"), ("-3", "1"), ("1", "2")],
    )
    code, out, _ = run(
        capsys,
        [
            "--output",
            "json",
            "ntimes",
            "--entry",
            "0:cont",
            "--entry",
            '1:{"terms": [{"coeff": "-1", "node": "0"}, {"coeff": "1", "node": "1"}]}',
            "--entry",
            "2:riemann-sym:n=2",
            "--entry",
            "3:@" + d31,
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["peano_equivalence"] == "EstablishedByIdentity"
    assert data["all_mz"] is False
    assert len(data["identity_certificate"]["terms"]) == 3


def test_ntimes_bad_entry(capsys):
    code, _, err = run(capsys, ["ntimes", "--entry", "cont"])
    assert code == 2 and "error:" in err


# --- probes ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [11, 12])
def test_scale_prints_integers_past_the_digit_limit(capsys, n):
    # the script rows' nodes q**(2**j) outgrow the 4,300-digit int-to-str limit
    assert main(["--output", "json", "scale", f"scriptD-bar:n={n},q=3/2", "--by", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    terms = json.loads(captured.out)["terms"]
    assert max(len(t[key]) for t in terms for key in ("coeff", "node")) > 4300


def test_scale_reads_back_its_own_output_past_the_digit_limit(capsys):
    argv = ["--output", "json", "scale", "scriptD-bar:n=11,q=3/2", "--by", "1"]
    code, first, _ = run(capsys, argv)
    assert code == 0
    argv[3] = first
    code, again, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert again == first


def test_long_non_rational_gets_a_short_refusal(capsys):
    text = "7" * 9999 + "x"
    code, out, err = run(capsys, ["scale", "riemann:n=2", "--by", text])
    assert code == 2 and out == ""
    assert err.startswith("error: not a rational: '777")
    assert err.endswith("... (10002 characters)\n") and len(err) < 200


def test_probe_converges_json(capsys):
    code, out, _ = run(
        capsys, ["--output", "json", "probe", "riemann-sym:n=1", "--oracle", "abs"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "converges"
    assert data["estimate"] == "0/1"
    assert data["numeric_evidence"] is True


def test_probe_subgroup_off_zero(capsys):
    code, out, _ = run(
        capsys,
        ["--output", "json", "probe", "mz-tilde:n=2", "--oracle=subgmono:k=2;gens=2,3",
         "--x=1/7"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "converges"
    assert data["estimate"] == "0/1"


def test_probe_config_flags(capsys):
    code, out, _ = run(
        capsys,
        [
            "--output", "json", "probe", "riemann:n=1", "--oracle", "abs",
            "--h0", "1", "--ratios", "1/2", "--jmin", "4", "--jmax", "12",
            "--tol", "1/1000000",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["config"] == {
        "h0": "1/1",
        "ratios": ["1/2"],
        "j_min": 4,
        "j_max": 12,
        "tol": "1/1000000",
    }
    assert len(data["sequences"]) == 2  # one ratio, both signs
    assert data["verdict"] == "diverges"


@pytest.mark.parametrize(
    "options, given",
    [
        ([], {}),
        (["--h0", "-2/3"], {"h0": Fraction(-2, 3)}),
        (["--ratios", "1/2, -2/3"], {"ratios": (Fraction(1, 2), Fraction(-2, 3))}),
        (["--jmin", "2"], {"j_min": 2}),
        (["--jmax", "12"], {"j_max": 12}),
        (["--tol", "1e-6"], {"tol": Fraction(1, 10 ** 6)}),
    ],
)
def test_probe_options_reach_the_config_as_given(capsys, options, given):
    oracle, config = grdcalc.parse_oracle("subgmono:k=2;gens=2,3"), grdcalc.ProbeConfig(**given)
    argv = ["--output", "json", "probe", "--oracle", "subgmono:k=2;gens=2,3", "--x=1/3", *options]
    code, out, err = run(capsys, [*argv, "riemann:n=2"])
    report = grdcalc.limit_probe(named_scheme(riemann(2)), oracle, Fraction(1, 3), config)
    assert (code, err) == (0, "") and json.loads(out) == report.to_json_dict()
    code, out, err = run(capsys, [*argv, "--peano", "2"])
    stages = grdcalc.peano_probe(oracle, Fraction(1, 3), 2, config)
    assert (code, err) == (0, "")
    assert json.loads(out)["stages"] == [
        {"order": order, "report": report.to_json_dict()} for order, report in stages
    ]


@pytest.mark.parametrize(
    "options, message",
    [
        (["--h0", "abc"], "not a rational: 'abc'"),
        (["--tol", "abc"], "not a rational: 'abc'"),
        (["--ratios", "1/2,abc"], "not a rational: 'abc'"),
        (["--ratios", " , "], "expected a comma-separated list of rationals"),
        (["--h0", "0"], "h0 must be nonzero"),
        (["--tol", "-1"], "tolerance must be positive"),
        (["--ratios", "1/2,1"], "ratios must satisfy 0 < |rho| < 1"),
        (["--jmin", "5", "--jmax", "3"], "need 0 <= j_min < j_max"),
        (["--h0", "abc", "--tol", "xyz"], "not a rational: 'abc'"),
        # the ratios are read before the config that reads h0
        (["--h0", "abc", "--ratios", "xyz"], "not a rational: 'xyz'"),
    ],
)
def test_probe_option_refusals(capsys, options, message):
    for verb in (["probe", "riemann:n=1"], ["probe", "--peano", "1"]):
        code, out, err = run(capsys, [*verb, "--oracle", "abs", *options])
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_probe_peano_staging(capsys):
    code, out, _ = run(
        capsys, ["--output", "json", "probe", "--peano", "2", "--oracle", "sgnsq"]
    )
    assert code == 0
    stages = json.loads(out)["stages"]
    assert [s["order"] for s in stages] == [1, 2]
    assert stages[1]["report"]["verdict"] == "diverges"


def test_probe_argument_conflicts(capsys):
    code, _, err = run(
        capsys, ["probe", "riemann:n=1", "--peano", "2", "--oracle", "abs"]
    )
    assert code == 2 and "replaces" in err
    code, _, err = run(capsys, ["probe", "--oracle", "abs"])
    assert code == 2 and "needs a scheme" in err
    code, _, err = run(capsys, ["probe", "riemann:n=1", "--oracle", "nope"])
    assert code == 2


def test_probe_negative_monomial_degree(capsys):
    code, _, err = run(capsys, ["probe", "riemann:n=1", "--oracle", "mono:k=-1"])
    assert code == 2
    assert "error: monomial degree must be >= 0" in err


# --- demos ------------------------------------------------------------------------------


def test_all_demos_pass(capsys):
    for name in DEMOS:
        code, out, _ = run(capsys, ["demo", name])
        assert code == 0, f"demo {name} failed"
        assert f"[demo {name}]" in out


def test_unknown_demo(capsys):
    code, _, err = run(capsys, ["demo", "NOPE"])
    assert code == 2 and "unknown demo" in err


# --- input errors ------------------------------------------------------------------------


def test_malformed_inputs_exit_2(capsys):
    code, _, err = run(capsys, ["recognize", "{not json"])
    assert code == 2 and "invalid scheme JSON" in err
    code, _, err = run(capsys, ["recognize", "@/nonexistent/scheme.json"])
    assert code == 2 and "cannot read scheme file" in err
    code, _, err = run(capsys, ["recognize", "no-such-family:n=2"])
    assert code == 2 and "unknown family" in err
    code, _, err = run(capsys, ["construct", "--nodes", "0,0,1", "--order", "2"])
    assert code == 2


def test_argparse_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["construct", "--nodes", "0,1"])  # missing required --order
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-verb"])
    assert info.value.code == 2


def test_no_verb_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


# --- one parser per process ----------------------------------------------------------


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        if kwargs.get("prog") == "grdcalc":
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        assert run(capsys, ["construct", "--nodes", "0,1", "--order", "1"])[0] == 0
        assert run(capsys, ["mz-check", "riemann:n=2"])[0] == 0
    finally:
        cli.build_parser.cache_clear()
    assert len(built) == 1


def test_cached_parser_behaves_like_a_fresh_one(capsys):
    fresh = cli.build_parser.__wrapped__()
    for _ in range(2):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out == fresh.format_help()
        with pytest.raises(SystemExit) as info:
            main(["construct", "--nodes", "0,1"])
        assert info.value.code == 2
        assert "the following arguments are required: --order" in capsys.readouterr().err
    # parsed values do not carry over from one command to the next
    _, out, _ = run(capsys, ["--output", "json", "equiv", "--a", "riemann:n=2",
                             "--b", "riemann:n=2", "--no-fast"])
    assert json.loads(out)["path"] == "General"
    _, out, _ = run(capsys, ["--output", "json", "equiv", "--a", "riemann:n=2",
                             "--b", "riemann:n=2"])
    assert json.loads(out)["path"] == "FastNonNegNodes"


# --- batch mode ----------------------------------------------------------------------------


def test_batch_runs_all_lines(capsys, tmp_path):
    batch = tmp_path / "cmds.txt"
    batch.write_text(
        "# comment line\n"
        "\n"
        "construct --nodes 0,1,2 --order 2\n"
        "mz-check riemann:n=2\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, ["--batch", str(batch)])
    assert code == 0
    assert "order: 2" in out
    assert "status: known-mz" in out


def test_batch_json_output_propagates(capsys, tmp_path):
    batch = tmp_path / "cmds.txt"
    batch.write_text("construct --nodes 0,1 --order 1\n", encoding="utf-8")
    code, out, _ = run(capsys, ["--output", "json", "--batch", str(batch)])
    assert code == 0
    assert json.loads(out) == scheme_to_json_dict(construct_exact([0, 1], 1))


def test_batch_rejects_nesting_and_missing_file(capsys, tmp_path):
    batch = tmp_path / "cmds.txt"
    for line in ("--batch other.txt", "--batch=other.txt scale riemann:n=1 --by 2",
                 "--bat other.txt scale riemann:n=1 --by 2"):
        batch.write_text(line + "\n", encoding="utf-8")
        code, out, err = run(capsys, ["--batch", str(batch)])
        assert code == 2 and out == "" and "cannot nest" in err, line
    code, _, err = run(capsys, ["--batch", str(tmp_path / "missing.txt")])
    assert code == 2 and "cannot read batch file" in err


def test_batch_stops_on_first_error(capsys, tmp_path):
    batch = tmp_path / "cmds.txt"
    batch.write_text(
        "recognize no-such-family:n=2\n"
        "construct --nodes 0,1 --order 1\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, ["--batch", str(batch)])
    assert code == 2
    assert "order: 1" not in out  # second command never ran


def one_line_refusal(code, out, err):
    return code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


# an integer field of a family or oracle string, its parser, the command
# that reads it, and its refusal: a plain CalculusError with this message
INTEGER_FIELD_REFUSALS = [
    (grdcalc.parse_family, "riemann:n=x", ["mz-check"], "order n must be an integer"),
    (grdcalc.parse_family, "shift:n=3,k=1/2", ["mz-check"], "shift k must be an integer"),
    (grdcalc.parse_oracle, "mono:k=x", ["probe", "riemann:n=2", "--oracle"],
     "monomial degree must be an integer"),
    (grdcalc.parse_oracle, "subgmono:k=x;gens=2", ["probe", "riemann:n=2", "--oracle"],
     "subgroup degree must be an integer"),
]


@pytest.mark.parametrize("parse, text, argv, message", INTEGER_FIELD_REFUSALS)
def test_integer_fields_are_refused_with_their_message(capsys, parse, text, argv, message):
    with pytest.raises(grdcalc.CalculusError) as refusal:
        parse(text)
    assert type(refusal.value) is grdcalc.CalculusError and str(refusal.value) == message
    code, out, err = run(capsys, argv + [text])
    assert one_line_refusal(code, out, err) and err == f"error: {message}\n"


def test_deeply_nested_scheme_json_is_refused(capsys):
    nested = '{"terms": ' + "[" * 3000 + "]" * 3000 + "}"
    code, out, err = run(capsys, ["scale", nested, "--by", "1"])
    assert one_line_refusal(code, out, err)
    assert err.startswith("error: invalid scheme JSON: maximum recursion depth")


def test_non_utf8_files_are_refused(capsys, tmp_path):
    binary = tmp_path / "latin1.json"
    binary.write_bytes('{"terms": []} \u00e9'.encode("latin-1"))
    code, out, err = run(capsys, ["scale", "@" + str(binary), "--by", "1"])
    assert one_line_refusal(code, out, err) and "can't decode byte 0xe9" in err
    code, out, err = run(capsys, ["--batch", str(binary)])
    assert one_line_refusal(code, out, err) and "cannot read batch file" in err


def test_batch_line_with_an_unclosed_quote_is_refused(capsys, tmp_path):
    batch = tmp_path / "cmds.txt"
    batch.write_text('scale "riemann:n=2 --by 1\n', encoding="utf-8")
    code, out, err = run(capsys, ["--batch", str(batch)])
    assert one_line_refusal(code, out, err)
    assert err == "error: cannot split batch line: No closing quotation\n"


# characters of batch lines: the blanks shlex splits on, whitespace it keeps
# inside words (\x0b, \x0c, \xa0), its quotes and escape, and a '#'; and
# lines of quotes and escapes alone, so that they often meet
BATCH_LINES = st.one_of(
    st.text(alphabet=" \t\r\n\x0b\x0c\xa0#ab-:=,/19'\"\\"),
    st.text(alphabet=" a'\"\\"),
)


def words_or_refusal(split, line):
    """``split(line)``, or the text of the ``ValueError`` it raises."""
    try:
        return split(line)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=1000)
@given(BATCH_LINES)
@example('a"b\\"c\\\\d\\e"f')  # escapes inside "...": a"b\"c\\d\ef reads as ab"c\d\ef
@example('"a\\')  # an open "..." that ends in a lone backslash
@example('"a\\\\')  # an open "..." that ends in an escaped backslash
@example("'a\\")  # a backslash inside an open '...' escapes nothing
def test_batch_line_splits_into_shlex_words(text):
    for line in (text, text.strip()):  # main strips each batch line
        assert words_or_refusal(cli._words, line) == words_or_refusal(shlex.split, line)


def test_batch_lines_with_quoting_are_unquoted(capsys, tmp_path):
    for line in ("'riemann:n=2'", '"riemann:n=2"', "riemann\\:n=2", "rie'mann:'n=2", '"rie"mann:n""=2'):
        assert shlex.split(line) == ["riemann:n=2"]
        batch = tmp_path / "cmds.txt"
        batch.write_text(f"scale {line} --by 1/2\n", encoding="utf-8")
        code, out, _ = run(capsys, ["--output", "json", "--batch", str(batch)])
        assert code == 0
        assert json.loads(out) == scheme_to_json_dict(scale(cli.read_scheme("riemann:n=2"), "1/2"))


@pytest.fixture
def no_shlex(monkeypatch):
    def refuse(line):
        raise AssertionError("a batch line went to shlex.split")

    monkeypatch.setattr(shlex, "split", refuse)


def test_quote_free_batch_line_is_split_without_shlex(capsys, tmp_path, no_shlex):
    # a 500,000-digit exponent that reads as 1 (shlex.split takes about 6 s on such a line)
    by = "1e" + "0" * 499_999 + "1"
    batch = tmp_path / "cmds.txt"
    batch.write_text(f"scale riemann:n=1 --by {by}\n", encoding="utf-8")
    code, out, _ = run(capsys, ["--output", "json", "--batch", str(batch)])
    assert code == 0
    assert json.loads(out) == scheme_to_json_dict(scale(cli.read_scheme("riemann:n=1"), 10))


def test_quoted_batch_line_is_split_without_shlex(capsys, tmp_path, no_shlex):
    # inline JSON needs quotes on a batch line; shlex.split takes about 3 s on this 300,000-digit node
    scheme = json.dumps({"terms": [{"coeff": "-1", "node": "0"}, {"coeff": "1", "node": "7" * 300_000}]})
    batch = tmp_path / "cmds.txt"
    batch.write_text(f"scale '{scheme}' --by 2\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, _ = run(capsys, ["--output", "json", "--batch", str(batch)])
    seconds = time.perf_counter() - start
    assert code == 0
    assert run(capsys, ["--output", "json", "scale", scheme, "--by", "2"]) == (0, out, "")
    assert seconds < 2.0


def test_batch_split_is_many_times_faster_than_shlex():
    # shlex.split grows a word one character at a time, in time quadratic in
    # its length; the batch split is linear.  On these 100,000-character
    # words it is hundreds of times faster, so a 20x margin holds on a busy host.
    long = "1e" + "0" * 100_000 + "1"
    words = ["scale", "riemann:n=1", "--by", long]
    for line in (f"scale riemann:n=1 --by {long}", f"scale riemann:n=1 --by '{long}'"):
        split = []
        for _ in range(5):
            start = time.perf_counter()
            assert cli._words(line) == words
            split.append(time.perf_counter() - start)
        start = time.perf_counter()
        assert shlex.split(line) == words
        reference = time.perf_counter() - start
        assert min(split) * 20 < reference, f"batch split {min(split):.6f} s, shlex.split {reference:.6f} s"


# --- output stability -------------------------------------------------------------------------


def test_json_output_is_byte_stable(capsys):
    argv = ["--output", "json", "mz-check", "mz-tilde:n=4"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_symmetric_construct_matches_library(capsys):
    code, out, _ = run(
        capsys,
        ["--output", "json", "construct", "--pairs", "1,2", "--order", "3"],
    )
    assert code == 0
    expected = construct_exact_symmetric([1, 2], False, 3)
    assert json.loads(out) == scheme_to_json_dict(expected)


# --- entry points ------------------------------------------------------------------------------

# The console-script wrapper pip writes for a ``module:attr`` entry point.
CONSOLE_SCRIPT_TEMPLATE = """\
import re
import sys
from {module} import {import_name}
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
    sys.exit({attr}())
"""

CONSTRUCT_ARGV = ["--output", "json", "construct", "--nodes", "0,1", "--order", "1"]


def run_child(argv):
    """Run ``argv`` in a child process that imports the same ``grdcalc`` as this process."""
    env = dict(os.environ)
    package_root = str(Path(grdcalc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)


def test_ntimes_twelve_digit_order_is_refused_in_bounded_memory():
    # listing the 10**12 missing orders would need terabytes; the child
    # alone runs under a 1 GiB address-space limit, so a listing fails fast
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from grdcalc.cli import main\n"
        "sys.exit(main(['ntimes', '--entry', '0:cont', '--entry', '1000000000000:riemann:n=1']))\n"
    )
    result = run_child([sys.executable, "-c", code])
    assert result.returncode == 2, result.stderr[-300:]
    assert result.stderr == "error: chain misses orders 1..999999999999\n"
    assert len(result.stderr.encode()) <= 300


def test_console_script_entry(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    module, _, attr = scripts["grdcalc"].partition(":")
    target = importlib.import_module(module)
    for name in attr.split("."):
        target = getattr(target, name)
    assert target is main

    script = tmp_path / "grdcalc"
    script.write_text(
        CONSOLE_SCRIPT_TEMPLATE.format(
            module=module, import_name=attr.split(".")[0], attr=attr
        ),
        encoding="utf-8",
    )

    result = run_child([sys.executable, str(script), *CONSTRUCT_ARGV])
    assert result.returncode == 0
    assert json.loads(result.stdout) == scheme_to_json_dict(construct_exact([0, 1], 1))

    refused = run_child([sys.executable, str(script), "construct", "--order", "2"])
    assert refused.returncode == 2
    assert "error:" in refused.stderr


@pytest.mark.skipif(shutil.which("grdcalc") is None, reason="grdcalc console script not on PATH")
def test_installed_console_script():
    result = run_child([shutil.which("grdcalc"), *CONSTRUCT_ARGV])
    assert result.returncode == 0
    assert json.loads(result.stdout) == scheme_to_json_dict(construct_exact([0, 1], 1))


def test_module_entry():
    module = run_child([sys.executable, "-m", "grdcalc", "demo", "E13"])
    assert module.returncode == 0
    assert "[demo E13]" in module.stdout


@pytest.mark.parametrize("name", list(DEMOS))
def test_demo_under_optimize_flag(name):
    result = run_child([sys.executable, "-O", "-m", "grdcalc", "demo", name])
    assert result.returncode == 0, result.stderr
    assert f"[demo {name}]" in result.stdout


def test_failed_identity_exits_3_under_optimize_flag():
    # a wrong verdict must still be caught when -O strips asserts: with every
    # equivalence decided negative, mz_check leaves the backward shift open
    code = (
        "import sys, grdcalc.cli as cli, grdcalc.mz as mz\n"
        "from grdcalc.equivalence import REASON_SKEW, EquivalenceVerdict\n"
        "if __debug__:\n"
        "    sys.exit('not running under -O')\n"
        "negative = EquivalenceVerdict(False, None, None, REASON_SKEW, False)\n"
        "mz.decide_equivalent = lambda a, b: negative\n"
        "sys.exit(cli.main(['demo', 'P88']))\n"
    )
    result = run_child([sys.executable, "-O", "-c", code])
    assert result.returncode == 3
    assert "internal assertion failed: must be known MZ" in result.stderr


# --- the JSON emitter --------------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"
# every code point: non-ASCII, control characters and lone surrogates
any_text = st.text(st.characters(blacklist_categories=()))
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-10 ** 400, max_value=10 ** 400)
    | any_text,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(any_text, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300)
@given(json_values)
def test_json_emitter_matches_indented_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2)


class Text(str):
    """A str subclass: json.dumps writes it as its text, and so must the emitter."""


# keys that a %-template or a format string would misread, non-ASCII and lone surrogates
record_keys = st.lists(
    any_text | st.sampled_from(["%", "%s", "%%d", "{", "{0}", "}", "é", "\ud800", "h", "value"]),
    min_size=1,
    max_size=4,
    unique=True,
)
str_values = any_text | any_text.map(Text)
# each way a row can leave the records path: other key order, a missing or
# extra key, a value that is not a str, or a row that is not a dict
MISFITS = ("order", "missing", "extra", "int", "none", "nested", "list", "row")


@st.composite
def record_lists(draw, misfit):
    keys = draw(record_keys)
    values = st.tuples(*[str_values] * len(keys))
    # up to 40 rows, about a probe sequence's sample count
    rows = [dict(zip(keys, v)) for v in draw(st.lists(values, min_size=1, max_size=40))]
    if misfit is None:
        return rows
    kind = draw(st.sampled_from(MISFITS))
    row = dict(rows[0])
    first = keys[0]
    if kind == "order":
        row = {k: row[k] for k in keys[1:] + keys[:1]} if len(keys) > 1 else {}
    elif kind == "missing":
        del row[first]
    elif kind == "extra":
        row[draw(any_text.filter(lambda k: k not in keys))] = "x"
    elif kind == "row":
        row = draw(str_values)
    else:
        row[first] = {"int": 7, "none": None, "nested": {"a": "b"}, "list": ["a"]}[kind]
    rows.insert(draw(st.integers(0, len(rows))), row)
    return rows


@settings(max_examples=300)
@given(record_lists(None))
def test_json_emitter_writes_records_through_one_template(rows):
    assert cli._records(rows, "\n  ") is not None
    for value in (rows, {"samples": rows}, [rows, rows]):
        assert cli._json(value) == json.dumps(value, indent=2)


@settings(max_examples=300)
@given(record_lists(True))
def test_json_emitter_falls_back_on_a_misfit_row(rows):
    assert cli._records(rows, "\n  ") is None
    for value in (rows, {"samples": rows}):
        assert cli._json(value) == json.dumps(value, indent=2)


def test_a_list_whose_first_row_is_no_record_leaves_before_encoding(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "encode_basestring_ascii", lambda s: calls.append(s) or s)
    rows = [{"order": 1, "verdict": "mz"}] + [{"h": "1/2", "value": "3"}] * 30
    assert cli._records(rows, "\n  ") is None
    assert calls == []


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_json_emitter_reproduces_every_golden_payload(path):
    text = path.read_text(encoding="utf-8")
    assert cli._json(json.loads(text)) + "\n" == text


# --- limits on probe inputs and exponents, in a child: without them these ran for minutes --

TEN_DIGIT_EXPONENT = "1e9999999999"
EXPONENT_REFUSAL = (
    f"error: a rational's exponent must be at most 4300 in magnitude, got '{TEN_DIGIT_EXPONENT}'\n"
)
SIZE_REFUSAL = (
    "error: the probe size depth * max(j_max, degree)**2 * max(degree, 1) * digits "
    "must be at most 4194304, got "
)


@pytest.mark.parametrize(
    "argv, message",
    [
        # the degree counts in the probe size, three times over: 10**8 - 1 gives 24 digits
        (["probe", "riemann:n=2", "--oracle=mono:k=99999999", "--x=1"],
         SIZE_REFUSAL + f"{99999999 ** 3}\n"),
        (["probe", "--peano", "100000", "--oracle=mono:k=1", "--x=1/3"],
         "error: the probe depth n must be at most 16, got 100000\n"),
        (["probe", "riemann:n=1", "--oracle=abs", "--jmax", "9" * 4000],
         "error: j_max must be at most 256, got " + "9" * 100 + "... (4000 characters)\n"),
        # each input within its own limit, their product above MAX_PROBE_SIZE
        (["probe", "--peano", "16", "--oracle=mono:k=32", "--x=1/3", "--jmax", "256"],
         SIZE_REFUSAL + "33554432\n"),
        # a rational's exponent, wherever a rational is read: Fraction would
        # compute 10**9999999999 from these 12 characters
        *(
            (argv, EXPONENT_REFUSAL)
            for argv in [
                ["scale", "riemann:n=2", "--by", TEN_DIGIT_EXPONENT],
                ["probe", "riemann:n=1", "--oracle=abs", "--x", TEN_DIGIT_EXPONENT],
                ["probe", "riemann:n=1", "--oracle=abs", "--h0", TEN_DIGIT_EXPONENT],
                ["scale", f"gauss-aff:n=2,q={TEN_DIGIT_EXPONENT}", "--by", "1"],
                ["scale", f'{{"terms":[{{"coeff":1,"node":"{TEN_DIGIT_EXPONENT}"}}]}}', "--by", "1"],
            ]
        ),
        # the product within its bound, times the digits of x, a ratio or h0 above it:
        # these ran for 52 s (38.6 MB of output), 10.9 s, 14.2 s and 2.2 s
        *(
            (["probe", "riemann:n=4", "--oracle=mono:k=32", option, "1/" + "7" * digits],
             SIZE_REFUSAL + f"{40 ** 2 * 32 * digits}\n")
            for option, digits in [("--x", 3000), ("--x", 1000), ("--ratios", 300), ("--h0", 1000)]
        ),
        # the 1,000 digits of the ratio 1/g that a subgroup oracle adds from its generator g:
        # this ran for more than 10 s
        *(
            ([*verb, "--oracle", "subgmono:k=32;gens=1" + "0" * 998 + "1", "--x", "0"],
             SIZE_REFUSAL + f"{40 ** 2 * 32 * 1000}\n")
            for verb in [["probe", "riemann:n=2"], ["probe", "--peano", "1"]]
        ),
        # the moments' setup grows as the cube of the degree: with the degree cap
        # simply deleted this took 8.1 s
        (["probe", "riemann:n=2", "--oracle=mono:k=1000", "--jmin", "0", "--jmax", "1"],
         SIZE_REFUSAL + f"{1000 ** 3}\n"),
    ],
)
def test_probe_inputs_over_a_limit_are_refused_at_once(argv, message):
    code = (
        "import resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from grdcalc.cli import main\n"
        "t0 = time.perf_counter()\n"
        "status = main(sys.argv[1:])\n"
        "print(time.perf_counter() - t0)\n"
        "sys.exit(status)\n"
    )
    result = run_child([sys.executable, "-c", code, *argv])
    assert result.returncode == 2, result.stderr[-300:]
    assert result.stderr == message
    assert float(result.stdout) < 1.0


def test_long_rational_is_read_in_subquadratic_time():
    # 500,000 digits: read through Decimal, as the rational reader once did,
    # the read took 10.5 s; it takes 0.42 s (one process, 2-core container).
    # The command that reads it as --by also prints it, which is timed apart.
    code = (
        "import io, sys, time\n"
        "from contextlib import redirect_stdout\n"
        "from grdcalc.cli import main\n"
        "from grdcalc.scheme import parse_rational\n"
        "by = '123456789' * 55555 + '12345'\n"
        "t0 = time.perf_counter()\n"
        "value = parse_rational(by)\n"
        "seconds = time.perf_counter() - t0\n"
        "with redirect_stdout(io.StringIO()) as out:\n"
        "    status = main(['--output', 'json', 'scale', 'riemann:n=1', '--by', by])\n"
        "print(status, by in out.getvalue(), value.denominator, seconds)\n"
    )
    result = run_child([sys.executable, "-c", code])
    status, found, denominator, seconds = result.stdout.split()
    assert (status, found, denominator) == ("0", "True", "1"), result.stderr[-300:]
    assert float(seconds) < 2.0


NINES_5000 = "9" * 5000


@pytest.mark.parametrize(
    "argv, message",
    [
        # integers past the 4,300-digit int-from-str limit are integers, refused by their limits
        (["recognize", f"riemann:n={NINES_5000}"], "error: member size "),
        (
            ["scale", f"gauss-aff:n=2,k={NINES_5000},q=2", "--by", "1"],
            "error: member size ",
        ),
        (
            ["probe", "riemann:n=1", f"--oracle=mono:k={NINES_5000}", "--x=1"],
            SIZE_REFUSAL + "999",
        ),
        (
            ["probe", "riemann:n=1", f"--oracle=subgmono:k={NINES_5000};gens=2", "--x=1"],
            SIZE_REFUSAL + "999",
        ),
        (["ggr", "--order", NINES_5000], "error: the ggr order must be at most 128, got 999"),
        (
            ["probe", "riemann:n=1", "--oracle=abs", "--jmax", NINES_5000],
            "error: j_max must be at most 256, got 999",
        ),
        (
            ["ntimes", "--entry", "0:cont", "--entry", f"{NINES_5000}:cont"],
            "error: chain misses orders 1..99999",
        ),
    ],
)
def test_integers_past_the_digit_limit_get_their_real_refusal(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 2 and not out
    assert err.startswith(message)
    assert len(err.encode()) <= 300


@pytest.mark.parametrize("digits", [4000, 5000])
def test_missing_order_count_is_quoted_bounded(capsys, digits):
    # the range of missing orders has as many digits as the top order; it was quoted whole
    code, out, err = run(capsys, ["ntimes", "--entry", "0:cont", "--entry", "9" * digits + ":cont"])
    assert code == 2 and not out
    assert err.startswith("error: chain misses orders 1..99999")
    assert err.endswith(f"... ({digits + 3} characters)\n")
    assert len(err.encode()) <= 300


# --- every work budget: one refusal shape, just past its limit ------------------

BUDGET_REFUSAL = re.compile(r"^error: .+ must be at most \d+, got ")


@pytest.mark.parametrize(
    "argv",
    [
        ["probe", "riemann:n=2", "--oracle=mono:k=162", "--x=1"],
        ["probe", "--peano", "17", "--oracle=mono:k=1", "--x=1/3"],
        ["probe", "riemann:n=1", "--oracle=abs", "--jmax", "257"],
        # 2 * 256**2 * 32 is the probe size bound itself
        ["probe", "--peano", "3", "--oracle=mono:k=32", "--x=1/3", "--jmax", "256"],
        ["scale", "riemann:n=836", "--by", "1"],
        ["construct", "--nodes", ",".join(map(str, range(837))), "--order", "836"],
        ["construct", "--pairs", ",".join(map(str, range(1, 419))), "--zero", "--order", "836"],
        ["ggr", "--order", "129"],
        ["mz-set", "riemann:n=130", "shift:n=130,k=-2"],
        # 3 * (1359 + 6) * 1 = 4095 is answered
        ["qggr", "--order", "3", "--ell", "1360", "--q", "3/2"],
        # qbinom has no verb: its budget is read through the library
        ["qbinom", 256, 128, Fraction(10 ** 10 + 1, 10 ** 10)],
    ],
    ids=[
        "oracle-degree", "peano-depth", "j_max", "probe-size", "family-string",
        "construct-nodes", "construct-pairs", "ggr-order", "mz-set-order", "qggr-size",
        "qbinom-size",
    ],
)
def test_every_budget_refuses_in_one_shape(capsys, argv):
    if argv[0] == "qbinom":
        with pytest.raises(OrderBudgetExceeded) as refused:
            qbinom(*argv[1:])
        code, out, err = 2, "", f"error: {refused.value}\n"
    else:
        code, out, err = run(capsys, argv)
    assert code == 2 and not out
    assert BUDGET_REFUSAL.match(err), err
    assert len(err.encode()) <= 300


FAMILY_REFUSAL = r"^member size \(n\+1\)\*\*2 \* node digits must be at most "


def _gaussian_class_member():
    # gauss-aff:n=128,q=2 as given nodes: construct counts their 39 digits, while
    # the Gaussian search's candidate member counts 128 times the digits of q
    nodes = [2 ** i for i in range(129)]
    return class_member(construct_exact(nodes, 128), 1, 1, 3)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: qbinom(3, 10 ** 5000, 2), IndexOutOfRange, r"^need 0 <= i <= n, got i=1000"),
        (lambda: qbinom(3, -(10 ** 200), 2), IndexOutOfRange, r"^need 0 <= i <= n, got i=-1000"),
        (lambda: qbinom(3.5, 1, 2), CalculusError, r"^qbinom's n and i must be integers$"),
        (lambda: qbinom(True, 1, 2), CalculusError, r"^qbinom's n and i must be integers$"),
        (lambda: Scheme((Term(1, 10 ** 5000), Term(2, 10 ** 5000))), DuplicateNodes,
         r"^duplicate node 1000.*\(5001 characters\)$"),
        (lambda: Scheme((Term(0, 10 ** 5000),)), CalculusError,
         r"^zero coefficient at node 1000.*\(5001 characters\)$"),
        (lambda: named_scheme(script_d(22, 3)), OrderBudgetExceeded, FAMILY_REFUSAL),
        (lambda: named_scheme(gaussian_affine_shift(2, 10 ** 7, Fraction(3, 2))),
         OrderBudgetExceeded, FAMILY_REFUSAL),
        (lambda: mz_check(_gaussian_class_member()), OrderBudgetExceeded, FAMILY_REFUSAL),
        # values whose str and repr raise past the int-to-str limit are named by their type
        (lambda: parse_rational([10 ** 5000]), CalculusError,
         r"^not a rational: <unprintable list object>$"),
        (lambda: canonicalize([(1, 2, 10 ** 5000)]), CalculusError,
         r"^not a \(coeff, node\) pair: <unprintable tuple object>$"),
        (lambda: construct_exact([0, 1], Fraction(10 ** 5000, 3)), InvalidOrder,
         r"^order must be a positive integer, got <unprintable Fraction object>$"),
        (lambda: n_times_check([(0, CONTINUITY), (Fraction(10 ** 5000, 3), CONTINUITY)]),
         CalculusError, r"^chain orders must be integers >= 0, got <unprintable Fraction object>$"),
        # a variant or oracle kind is quoted bounded, at any length and of any type
        (lambda: FamilyKind("x" * 10 ** 6, 1), CalculusError,
         r"^unknown family variant 'x{99}\.\.\. \(1000002 characters\)$"),
        (lambda: FunctionOracle("y" * 10 ** 6), CalculusError,
         r"^unknown oracle kind 'y{99}\.\.\. \(1000002 characters\)$"),
        (lambda: FamilyKind(10 ** 5000, 1), CalculusError,
         r"^unknown family variant 10{99}\.\.\. \(5001 characters\)$"),
        (lambda: FunctionOracle(-(10 ** 5000)), CalculusError,
         r"^unknown oracle kind -10{98}\.\.\. \(5002 characters\)$"),
        (lambda: FamilyKind(["riemann"], 1), CalculusError, r"^unknown family variant \['riemann'\]$"),
        # a call that takes a sequence refuses anything else, and each item not of its shape
        (lambda: canonicalize(5), CalculusError, r"^terms must be a sequence, got 5$"),
        (lambda: combine(5), CalculusError, r"^parts must be a sequence, got 5$"),
        (lambda: Scheme(5), CalculusError, r"^terms must be a sequence, got 5$"),
        (lambda: ProbeConfig(ratios=5), CalculusError, r"^ratios must be a sequence, got 5$"),
        (lambda: ProbeConfig(ratios="1/2"), CalculusError, r"^ratios must be a sequence, got '1/2'$"),
        (lambda: FunctionOracle("poly", coeffs=5), CalculusError, r"^coeffs must be a sequence, got 5$"),
        (lambda: polynomial_oracle(5), CalculusError, r"^coeffs must be a sequence, got 5$"),
        (lambda: subgroup_monomial_oracle(2, 5), CalculusError,
         r"^generators must be a sequence, got 5$"),
        (lambda: mz_set_check(5), CalculusError, r"^the scheme set must be a sequence, got 5$"),
        (lambda: n_times_check(5), CalculusError, r"^the chain must be a sequence, got 5$"),
        (lambda: canonicalize(10 ** 5000), CalculusError,
         r"^terms must be a sequence, got 10{99}\.\.\. \(5001 characters\)$"),
        (lambda: combine([5]), CalculusError, r"^not a \(coeff, dilation, scheme\) part: 5$"),
        (lambda: n_times_check([5]), CalculusError, r"^not an \(order, scheme\) entry: 5$"),
        (lambda: combine([(1, 1)]), CalculusError, r"^not a \(coeff, dilation, scheme\) part: \(1, 1\)$"),
        (lambda: combine([(1, 1, D1, 4)]), CalculusError,
         r"^not a \(coeff, dilation, scheme\) part: \(1, 1, Scheme\(.*, 4\)$"),
        (lambda: mz_set_check([named_scheme(riemann(2)), "x"]), CalculusError,
         r"^entry at position 1 is a str, not a scheme$"),
        (lambda: Scheme([1]), CalculusError, r"^not a Term: 1$"),
        (lambda: construct_exact(5, 1), CalculusError, r"^nodes must be a sequence, got 5$"),
        (lambda: construct_exact("01", 1), CalculusError, r"^nodes must be a sequence, got '01'$"),
        (lambda: construct_exact_symmetric(5, False, 2), CalculusError,
         r"^node pairs must be a sequence, got 5$"),
        (lambda: subgroup_membership(2, 5), CalculusError, r"^generators must be a sequence, got 5$"),
    ],
    ids=[
        "qbinom-index-digits", "qbinom-index-long", "qbinom-float", "qbinom-bool",
        "scheme-duplicate-node", "scheme-zero-coefficient", "script-member",
        "gaussian-shift-member", "gaussian-search-candidate", "rational-list-digits",
        "canonicalize-tuple-digits", "order-fraction-digits", "chain-order-fraction-digits",
        "family-variant-long", "oracle-kind-long", "family-variant-digits", "oracle-kind-digits",
        "family-variant-list", "canonicalize-int", "combine-int", "scheme-int", "ratios-int",
        "ratios-str", "oracle-coeffs-int", "polynomial-oracle-int", "subgroup-oracle-int",
        "mz-set-int", "chain-int", "canonicalize-int-digits", "combine-part-int", "chain-entry-int",
        "combine-part-pair", "combine-part-quadruple", "mz-set-member-str", "scheme-term-int",
        "construct-nodes-int", "construct-nodes-str", "symmetric-pairs-int", "membership-int",
    ],
)
def test_library_refusals_are_typed_and_short(call, error, message):
    with pytest.raises(error, match=message) as refused:
        call()
    assert len(str(refused.value).encode()) <= 300


D1 = named_scheme(riemann(1))
# what a caller may pass: ints up to 5,000 digits (past the int-to-str limit), floats, None,
# bools, strings and Fractions, nested in lists, tuples and dicts
caller_values = st.recursive(
    st.none()
    | st.booleans()
    | st.floats()
    | st.text(max_size=8)
    | st.integers()
    | st.integers(0, 5000).map(lambda digits: 10 ** digits - 1)
    | st.builds(Fraction, st.integers(4000, 5000).map(lambda k: -(10 ** k)), st.integers(1, 9)),
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
LIBRARY_CALLS = {
    "parse_rational": parse_rational,
    "Term-coeff": lambda v: Term(v, 1),
    "Term-node": lambda v: Term(1, v),
    "canonicalize": lambda v: canonicalize([v]),
    "combine-coeff": lambda v: combine([(v, 1, D1)]),
    "combine-dilation": lambda v: combine([(1, v, D1)]),
    "ProbeConfig-h0": lambda v: ProbeConfig(h0=v),
    "construct_exact-order": lambda v: construct_exact([0, 1], v),
    "decompose-order": lambda v: decompose(D1, v),
    "ggr_set-order": ggr_set,
    "n_times_check-order": lambda v: n_times_check([(0, CONTINUITY), (v, D1)]),
    "FamilyKind-variant": lambda v: FamilyKind(v, 1),
    "FamilyKind-order": lambda v: FamilyKind("Riemann", v),
    "FunctionOracle-kind": FunctionOracle,
    # each sequence parameter given the value as the whole argument
    "canonicalize-terms": canonicalize,
    "Scheme-terms": Scheme,
    "combine-parts": combine,
    "combine-part": lambda v: combine([v]),
    "combine-scheme": lambda v: combine([(1, 1, v)]),
    "ProbeConfig-ratios": lambda v: ProbeConfig(ratios=v),
    "FunctionOracle-coeffs": lambda v: FunctionOracle("poly", coeffs=v),
    "polynomial_oracle": polynomial_oracle,
    "subgroup_monomial_oracle-generators": lambda v: subgroup_monomial_oracle(2, v),
    "mz_set_check": mz_set_check,
    "n_times_check": n_times_check,
    "construct_exact-nodes": lambda v: construct_exact(v, 1),
    "construct_exact_symmetric-pairs": lambda v: construct_exact_symmetric(v, False, 2),
    "subgroup_membership-generators": lambda v: subgroup_membership(2, v),
}


@pytest.mark.parametrize("call", LIBRARY_CALLS.values(), ids=LIBRARY_CALLS)
@settings(max_examples=100, deadline=None)
@given(caller_values)
@example(10 ** 5000)
@example([10 ** 5000])
@example({"x": 10 ** 5000})
@example((1, 2, 10 ** 5000))
@example("z" * 10 ** 6)
def test_a_library_refusal_quotes_any_value_bounded(call, value):
    # each call answers or refuses in a message as short as a command-line refusal
    try:
        call(value)
    except CalculusError as refused:
        assert len(str(refused)) <= 300


def test_a_gaussian_member_is_answered_where_construct_answers_its_nodes(capsys):
    # recognize gauss-aff:n=101,q=3/2 was refused while construct answered its 102 nodes
    code, out, err = run(capsys, ["--output", "json", "recognize", "gauss-aff:n=101,q=3/2"])
    assert code == 0 and not err
    assert json.loads(out)["match"] == {"variant": "GaussianAffine", "q": "3/2", "b": "1/1", "n": 101}


def test_the_construct_and_qbinom_budgets_answer_at_their_limits(capsys):
    # the nodes of riemann:n=835, the largest equispaced member, as a list
    argv = ["--output", "json", "construct", "--nodes", ",".join(map(str, range(836))), "--order", "835"]
    code, out, err = run(capsys, argv)
    assert code == 0 and not err
    assert json.loads(out) == scheme_to_json_dict(named_scheme(riemann(835)))
    # README's slowest qbinom case: 128 * 128 * 7 = 114,688
    assert qbinom(256, 128, Fraction(1000001, 1000000)) > 0
