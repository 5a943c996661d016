"""Command-line surface: plain-text outputs, JSON envelope + schema
validation, CSV hand-off, byte-determinism, and exit codes."""
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import freerat
import freerat.automata as automata
import freerat.cli as cli
from freerat.automata import equivalent, positive_acceptor, reduced_acceptor
from freerat.cli import SCHEMA_ID, main
from freerat.errors import GaveUp
from freerat.ratexpr import MAX_DEPTH, Finite, Product, Star, leaf_words, parse_ratexpr
from freerat.words import MAX_WORD_LETTERS, parse_word

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "src" / "freerat" / "schemas" / "report.schema.json").read_text()
)

SQUARES_EXPR = "(star (fin (x1 x2)))"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert payload["schema"] == SCHEMA_ID
    return payload


# -- plain-text commands ---------------------------------------------------


def test_word_reduce_prints_bare_word(capsys):
    code, out, _ = run_cli(capsys, "word", "reduce", "x1 x1^-1 x2")
    assert code == 0
    assert out == "x2\n"


def test_fp_reduce_and_cyclic(capsys):
    assert run_cli(capsys, "fp", "reduce", "a b b^-1 a")[1] == "a^2\n"
    assert run_cli(capsys, "fp", "cyclic", "a b a^-1")[1] == "b\n"


def test_fp_moduli_flags(capsys):
    code, out, _ = run_cli(capsys, "fp", "reduce", "a^3 b^2", "--a-mod", "2")
    assert code == 0
    assert out == "a b^2\n"


# -- JSON envelope commands ------------------------------------------------


def test_word_classify(capsys):
    payload = run_json(capsys, "word", "classify", "x1^2 x2^-4")
    assert payload["command"] == "word.classify"
    assert payload["seed"] is None
    assert payload["result"] == {
        "class": "proper",
        "exponent_gcd": 2,
        "profile": [2, -4],
        "word": "x1^2 x2^-4",
    }


def test_word_bezout(capsys):
    result = run_json(capsys, "word", "bezout", "x1^2 x2^3")["result"]
    assert result["gcd"] == 1
    assert 2 * result["exponents"][0] + 3 * result["exponents"][1] == 1


def test_rat_member(capsys):
    result = run_json(
        capsys, "rat", "member", "--expr", "(fin x1 (x1 x2))", "--word", "x1 x2"
    )["result"]
    assert result["member"] is True


def test_rat_member_long_inline_expr(capsys):
    # longer than a file name may be, so the path check itself fails
    text = "(fin " + " ".join(f"(x1^{k} x2)" for k in range(1, 60)) + ")"
    assert len(text.encode()) > 300
    result = run_json(capsys, "rat", "member", "--expr", text, "--word", "x1^7 x2")["result"]
    assert result["member"] is True


def test_rat_positive(capsys):
    result = run_json(
        capsys, "rat", "positive", "--expr", "(star (fin (x2^-1 x1 x2)))"
    )["result"]
    assert result["positive"] is False
    assert result["witness"] == "x2^-1 x1 x2"


def test_rat_positive_counts_only_inverse_letters_as_negative(capsys):
    # x3 is a positive letter of F3: only an inverse letter makes a member
    # non-positive, whatever the rank
    result = run_json(capsys, "rat", "positive", "--expr", "(fin x3)")["result"]
    assert (result["positive"], result["witness"]) == (True, None)
    result = run_json(capsys, "rat", "positive", "--expr", "(fin (x1 x3^-1))")["result"]
    assert (result["positive"], result["witness"]) == (False, "x1 x3^-1")
    result = run_json(capsys, "sign", "positivize", "--expr", "(fin x3)")["result"]
    assert result["expression"] == "(fin x3)"


def test_rat_enumerate(capsys):
    result = run_json(
        capsys, "rat", "enumerate", "--expr", SQUARES_EXPR, "--cap-len", "4"
    )["result"]
    assert result["count"] == 3
    assert result["words"] == ["1", "x1 x2", "x1 x2 x1 x2"]


def test_rat_enumerate_is_exact(capsys):
    # x1^6 x1^-6: the bounded unrolling dropped the identity at cap 0
    leaves = ["(fin x1)"] * 6 + ["(fin x1^-1)"] * 6
    text = leaves[-1]
    for leaf in reversed(leaves[:-1]):
        text = f"(prod {leaf} {text})"
    result = run_json(capsys, "rat", "enumerate", "--expr", text, "--cap-len", "0")["result"]
    assert result["count"] == 1
    assert result["words"] == ["1"]


def test_rat_enumerate_refuses_a_negative_cap(capsys):
    code, out, err = run_cli(capsys, "rat", "enumerate", "--expr", SQUARES_EXPR, "--cap-len", "-1")
    assert (code, out) == (1, "")
    assert err == "error: --cap-len must be nonnegative, got -1\n"


def test_rat_expr_from_file(capsys, tmp_path):
    path = tmp_path / "squares.sexp"
    path.write_text(SQUARES_EXPR + "\n")
    result = run_json(
        capsys, "rat", "enumerate", "--expr", str(path), "--cap-len", "2"
    )["result"]
    assert result["words"] == ["1", "x1 x2"]


# -- rat member and rat enumerate answer a cached text without parsing it


WARM_EXPR = "(prod (star (fin (x1 x2^-1))) (fin x1^-4 x2^5))"


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty acceptor cache for one test, so its cold runs are misses."""
    monkeypatch.setattr(automata, "_acceptors", {})


def test_warm_rat_member_and_enumerate_skip_the_parse(capsys, monkeypatch, tmp_path, fresh_cache):
    path = tmp_path / "warm.sexp"
    path.write_text(WARM_EXPR + "\n")
    requests = [
        ("rat", "member", "--expr", WARM_EXPR, "--word", "x1 x2^-1 x2^5"),
        ("rat", "enumerate", "--expr", WARM_EXPR, "--cap-len", "4"),
        ("rat", "member", "--expr", str(path), "--word", "x1 x2^-1 x2^5"),
    ]
    before = reduced_acceptor.cache_info()
    cold = [run_cli(capsys, *argv) for argv in requests]
    assert [code for code, _, _ in cold] == [0, 0, 0]
    assert cold[2] == cold[0]
    assert json.loads(cold[0][1])["result"]["member"] is True

    def refuse(text):
        raise AssertionError(f"parsed a cached text: {text!r}")

    monkeypatch.setattr(automata, "parse_ratexpr", refuse)
    monkeypatch.setattr(cli, "parse_ratexpr", refuse)
    warm = [run_cli(capsys, *argv) for argv in requests]
    assert warm == cold
    after = reduced_acceptor.cache_info()
    assert (after.hits, after.misses) == (before.hits + 5, before.misses + 1)


def test_rat_member_refuses_a_positive_cache_key(capsys, fresh_cache):
    positive_acceptor(parse_ratexpr("(fin x1)"))
    for argv in (
        ("rat", "member", "--expr", "positive (fin x1)", "--word", "x1"),
        ("rat", "enumerate", "--expr", "positive (fin x1)", "--cap-len", "1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1


def test_rat_member_prints_the_canonical_text(capsys, tmp_path, fresh_cache):
    canonical = "(star (fin x1 (x2 x1^-1)))"
    path = tmp_path / "expr.sexp"
    path.write_text(canonical + "\n")
    texts = ["  (star  (fin (x2 x1^-1)\tx1 ))\n", canonical, str(path), "(star (fin (x2 x1^-1) x1))"]
    for text in texts:
        result = run_json(capsys, "rat", "member", "--expr", text, "--word", "x2 x1^-1 x1")["result"]
        assert (result["expression"], result["word"], result["member"]) == (canonical, "x2", True)
        result = run_json(capsys, "rat", "enumerate", "--expr", text, "--cap-len", "2")["result"]
        assert result["expression"] == canonical
        assert result["words"] == ["1", "x1", "x2", "x1^2", "x1 x2", "x2 x1^-1", "x2 x1", "x2^2"]


def test_rat_member_with_a_bad_word_builds_no_dfa(capsys, fresh_cache):
    for _ in range(2):  # cold, then with the expression's DFA cached
        before = reduced_acceptor.cache_info()
        code, out, err = run_cli(capsys, "rat", "member", "--expr", WARM_EXPR, "--word", "x0")
        assert (code, out, err) == (1, "", "error: generator index must be >= 1 at position 1: 'x0'\n")
        assert reduced_acceptor.cache_info()[:2] == before[:2]
        reduced_acceptor(parse_ratexpr(WARM_EXPR))
    # a bad expression is reported before a bad word
    code, out, err = run_cli(capsys, "rat", "member", "--expr", "(fin", "--word", "x0")
    assert (code, out, err) == (1, "", "error: missing ')' for fin at position 2\n")


def test_a_cached_text_past_the_parser_limits_is_still_refused(capsys, monkeypatch, fresh_cache):
    # a tree built in the process may nest deeper than the parser allows
    deep = Finite([parse_word("x1")])
    for _ in range(MAX_DEPTH + 1):
        deep = Star(deep)
    reduced_acceptor(deep)
    code, out, err = run_cli(capsys, "rat", "member", "--expr", _nested_stars(MAX_DEPTH + 1), "--word", "x1")
    assert (code, out) == (1, "")
    assert err.startswith("error: operators nest deeper than") and err.count("\n") == 1
    # or hold a word longer than a parsed word may be
    long_word = f"(fin x1^{MAX_WORD_LETTERS + 1})"
    monkeypatch.setitem(automata._acceptors, long_word, reduced_acceptor(parse_ratexpr("(fin x1)")))
    code, out, err = run_cli(capsys, "rat", "member", "--expr", long_word, "--word", "x1")
    assert (code, out) == (1, "")
    assert err == f"error: word longer than {MAX_WORD_LETTERS} letters at position 1\n"


def test_sign_positivize(capsys):
    result = run_json(
        capsys,
        "sign", "positivize",
        "--expr", "(star (fin (x1^-1 x2 x1)))",
        "--left", "x1",
        "--right", "x1^-1",
    )["result"]
    assert result["expression"] == "(star (fin x2))"
    assert result["trace"]["case"] == "star-positive"


def _positivized(capsys, expr, left="1"):
    """``sign positivize`` of left·expr, checked: exit 0, positive leaves,
    and the same set as the sandwich."""
    result = run_json(capsys, "sign", "positivize", "--expr", expr, "--left", left)["result"]
    got = parse_ratexpr(result["expression"])
    assert all(w.is_positive() for w in leaf_words(got))
    sandwich = Product(Finite([parse_word(left)]), parse_ratexpr(expr))
    assert equivalent(reduced_acceptor(got), reduced_acceptor(sandwich))
    return result


def test_sign_positivize_product_samples_are_exact(capsys):
    # P = x2^11 x2^-11 x1 denotes {x1}; a bounded unrolling of P misses x1
    # below 10 letters
    leaves = ["(fin x2)"] * 11 + ["(fin x2^-1)"] * 11 + ["(fin x1)"]
    text = leaves[-1]
    for leaf in reversed(leaves[:-1]):
        text = f"(prod {leaf} {text})"
    result = _positivized(capsys, f"(prod {text} (fin x2))")
    assert result["trace"]["case"] == "product"


def test_sign_positivize_product_split_reads_long_members(capsys):
    # {x1^5 x2^16}: the right factor's one member has 17 letters; the
    # middle element is read off the DFAs, not off samples
    result = _positivized(capsys, "(prod (fin (x1^-1)) (fin (x1 x2^16)))", "x1^5")
    assert result["expression"] == "(prod (fin x1^4) (fin (x1 x2^16)))"


def test_sign_positivize_not_positive_prints_the_word(capsys):
    code, out, err = run_cli(capsys, "sign", "positivize", "--expr", "(fin x1^-1)")
    assert (code, out) == (1, "")
    assert err == "error: the sandwiched set is not positive: x1^-1\n"


def test_sign_positivize_answers_rank_3_at_the_split_and_the_star(capsys):
    result = _positivized(capsys, "(prod (fin x3) (fin x1))")
    assert result["expression"] == "(prod (fin x3) (fin x1))"
    result = _positivized(capsys, "(star (fin (x3^-1 x2 x3)))", "x3")
    assert result["trace"]["case"] == "star-conjugated"
    assert result["trace"]["conjugator"] == "x3"
    result = _positivized(capsys, "(star (fin x3 (x1 x3)))")
    assert result["trace"]["case"] == "star-positive"
    result = _positivized(capsys, "(prod (fin (x3 x1)) (fin x2))", "x3^-1")
    assert result["expression"] == "(prod (fin x1) (fin x2))"


def test_sign_positivize_star_conjugates_by_the_longest_run(capsys):
    # members sharing the deepest negative index differ in exponent there
    # (x2^-1 and x2^-2); the conjugator takes the longer run
    result = _positivized(
        capsys, "(star (union (fin (x2^-1 x1 x2^2) (x2^-2 x1 x2^4)) (fin x2^2)))", "x2^2"
    )
    assert result["trace"]["conjugator"] == "x2^2"


def test_gaps_profile_delta_table(capsys):
    result = run_json(capsys, "gaps", "profile", "--u", "b a b", "--b", "b^1")["result"]
    assert result["table"] == {"1": [1, 0]}
    assert result["max_k"] == 1
    assert result["b"] == ["b", 1]


def test_gaps_family(capsys):
    result = run_json(
        capsys, "gaps", "family", "--u", "a b^2", "--v", "a b", "--n", "4"
    )["result"]
    assert result["gammas"] == [1, 3, 3, 5]
    assert len(result["members"]) == 4


@pytest.mark.parametrize("n", ["0", "-1"])
def test_gaps_family_refuses_an_empty_family(capsys, n):
    code, out, err = run_cli(capsys, "gaps", "family", "--u", "a b^2", "--v", "a b", "--n", n)
    assert (code, out) == (1, "")
    assert err == f"error: n_max (--n) must be >= 1, got {n}\n"


def test_verbal_enum(capsys):
    result = run_json(
        capsys, "verbal", "enum", "--word", "x1^2", "--cap-len", "1"
    )["result"]
    assert result["count"] == 5
    assert "x1^2" in result["values"]
    assert "1" in result["values"]


def test_verbal_member(capsys):
    result = run_json(
        capsys,
        "verbal", "member", "--word", "x1^2", "--element", "x1^4", "--cap-len", "2",
    )["result"]
    assert result["verdict"] == "yes"
    assert result["witness"] == ["x1^2"]


def test_verbal_length(capsys):
    result = run_json(
        capsys,
        "verbal", "length",
        "--word", "x1^2",
        "--element", "x1^2 x2^2 x1^2",
        "--cap-len", "4",
    )["result"]
    assert result["length"] == 2
    assert result["abelianized_index"] == 4


def test_verbal_dichotomy(capsys):
    result = run_json(
        capsys,
        "verbal", "dichotomy", "--word", "x1^2", "--gen", "a b", "--gen", "b a",
    )["result"]
    assert result["case"] == "refuted"
    assert result["exact"] is True


def test_verbal_dichotomy_single_axis(capsys):
    result = run_json(
        capsys, "verbal", "dichotomy", "--word", "x1^2", "--gen", "a", "--gen", "a^3"
    )["result"]
    assert result == {"case": "single-axis", "axis": "a"}


def test_verbal_dichotomy_reports_the_common_support_alone(capsys):
    # the support itself, not its closure under splitting syllables: a
    # 1,500-letter syllable costs a few bytes
    code, out, err = run_cli(capsys, "verbal", "dichotomy", "--word", "x1^2", "--gen", "a^1500 b")
    assert code == 0, err
    assert json.loads(out)["result"] == {"case": "common-support", "support": [["a", 1500], ["b", 1]]}
    assert len(out.encode()) < 2048


# -- gaps scan CSV hand-off ------------------------------------------------


def test_gaps_scan_csv_to_stdout(capsys):
    code, out, _ = run_cli(
        capsys,
        "gaps", "scan",
        "--word", "x1^2", "--b", "b^1",
        "--samples", "5", "--seed", "7", "--cap-len", "6",
    )
    assert code == 0
    lines = out.splitlines()
    header = json.loads(lines[0].removeprefix("# "))
    assert header["seed"] == 7
    assert header["samples"] == 5
    assert header["max_syllables"] == 6
    assert lines[1] == "sample_id,syllable_length,gamma,max_k"
    rows = lines[2:]
    assert len(rows) == 5
    for i, row in enumerate(rows):
        fields = [int(x) for x in row.split(",")]
        assert len(fields) == 4
        assert fields[0] == i


def test_gaps_scan_out_file_with_json_summary(capsys, tmp_path):
    path = tmp_path / "scan.csv"
    code, out, _ = run_cli(
        capsys,
        "gaps", "scan",
        "--word", "x1^2", "--b", "b^1",
        "--samples", "5", "--seed", "7", "--cap-len", "6",
        "--out", str(path),
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    assert payload["command"] == "gaps.scan"
    assert payload["seed"] == 7
    assert payload["result"]["samples"] == 5
    assert payload["result"]["csv"] == str(path)
    assert isinstance(payload["result"]["max_gamma"], int)
    csv_lines = path.read_text().splitlines()
    assert csv_lines[1] == "sample_id,syllable_length,gamma,max_k"
    assert len(csv_lines) == 2 + 5


@pytest.mark.parametrize(
    "flag,value,name,bound",
    [
        ("--samples", "-3", "samples", 0),
        ("--cap-len", "-1", "max_syllables", 0),
        ("--max-exponent", "0", "max_exponent", 1),
        ("--max-exponent", "-2", "max_exponent", 1),
        ("--cap-len", "1000000000", "max_syllables", MAX_WORD_LETTERS),
    ],
)
def test_gaps_scan_refuses_out_of_range_bounds(capsys, tmp_path, flag, value, name, bound):
    path = tmp_path / "scan.csv"
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "gaps", "scan", "--word", "x1^2", "--b", "b^1", flag, value, "--out", str(path)
    )
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    relation = ">=" if int(value) < bound else "<="
    assert err == f"error: {name} ({flag}) must be {relation} {bound}, got {value}\n"
    assert not path.exists()


@pytest.mark.parametrize("samples", ["0", "5"])
def test_gaps_scan_refuses_self_inverse_b_whatever_the_sample_count(capsys, samples):
    code, out, err = run_cli(
        capsys, "gaps", "scan", "--word", "x1^2", "--b", "b^1", "--b-mod", "2", "--samples", samples
    )
    assert (code, out) == (1, "")
    assert err == "error: gamma needs b different from its inverse\n"


# -- refute ----------------------------------------------------------------


def test_refute_missing_value_stdout(capsys):
    payload = run_json(capsys, "refute", "--word", "x1^2", "--expr", SQUARES_EXPR)
    result = payload["result"]
    assert result["outcome"] == "missing-value"
    assert result["replayed"] is True
    assert result["exact"] is True
    assert result["witness"] == " ".join(["x1^2 x2"] * 8)


@pytest.mark.parametrize(
    "flag,value,name,low,expr",
    [
        # the loop length and probe depth of the sampled classification
        # are no options: usage errors
        ("--enum-cap", "-1", "enum_cap", 0, "(star (fin x1 x2))"),
        ("--foreign-cap", "-1", "foreign_cap", 0, "(star (fin x1 x2))"),
        ("--probe-depth", "1", "probe_depth", 2, "(fin x1^2)"),
    ],
)
def test_refute_refuses_out_of_range_limits(capsys, flag, value, name, low, expr):
    code, out, err = run_cli(capsys, "refute", "--word", "x1^2", "--expr", expr, flag, value)
    assert (code, out) == (1, "")
    if flag == "--foreign-cap":
        assert err == f"error: {name} ({flag}) must be >= {low}, got {value}\n"
    else:
        assert err == f"error: unrecognized arguments: {flag} {value}\n"


def test_refute_long_finite_leaf(capsys):
    # A 1,500-letter leaf makes a chain of 1,500 states; minimization and
    # the component pass walk it without recursing once per state.
    payload = run_json(capsys, "refute", "--word", "x1^2", "--expr", "(fin x1^1500)")
    result = payload["result"]
    assert result["outcome"] == "missing-value"
    assert result["replayed"] is True


def test_refute_writes_report_file(capsys, tmp_path):
    sexp = tmp_path / "squares.sexp"
    sexp.write_text(SQUARES_EXPR)
    report = tmp_path / "report.json"
    code, out, err = run_cli(
        capsys,
        "refute", "--word", "x1^2", "--expr", str(sexp), "--out", str(report),
    )
    assert code == 0, err
    assert out == ""
    payload = json.loads(report.read_text())
    jsonschema.validate(payload, SCHEMA)
    assert payload["result"]["outcome"] == "missing-value"
    assert payload["result"]["replayed"] is True


def test_refute_replay_failure_exits_nonzero(capsys, monkeypatch):
    monkeypatch.setattr("freerat.cli.replay_report", lambda payload: False)
    code, _, err = run_cli(capsys, "refute", "--word", "x1^2", "--expr", SQUARES_EXPR)
    assert code == 2
    assert "replay" in err


def test_refute_runtime_error_exits_3(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise GaveUp("product probe exceeded the budget of 100000 elements")

    monkeypatch.setattr("freerat.cli.refute", exhausted)
    code, out, err = run_cli(capsys, "refute", "--word", "x1^2", "--expr", SQUARES_EXPR)
    assert code == 3
    assert out == ""
    assert err == "error: product probe exceeded the budget of 100000 elements\n"


def test_refute_star_of_unions_answers_exactly(capsys):
    # the positive part's minimal DFA has one 6-state component; expanded
    # into a standard form, it would have millions of summands
    start = time.perf_counter()
    result = run_json(
        capsys,
        "refute", "--word", "x1^2",
        "--expr", "(star (union (fin (x1 x2) (x2 x1)) (fin x2^2 (x1^-1 x2 x1))))",
    )["result"]
    assert (result["replayed"], result["exact"]) == (True, True)
    assert result["outcome"] == "foreign-element"
    assert time.perf_counter() - start < 5.0


# the second: an x1 self-loop beside x2-edges in one component makes x1-runs
# unbounded, so the component is refuted, and x1 is the shortest non-square
LONG_CHAIN_ANSWERS = {
    "(prod (star (fin x1)) (fin (x1^-1 x2^1500)))": ("missing-value", None),
    "(star (fin (x1^-1 x2^1500 x1) x1))": ("foreign-element", "x1"),
}


@pytest.mark.parametrize("expr", list(LONG_CHAIN_ANSWERS))
def test_refute_long_chain_positive_part_answers_exactly(capsys, expr):
    # the positive part's DFA has a chain of 1,500 states; minimization and
    # the component pass walk it without recursing once per state
    start = time.perf_counter()
    result = run_json(capsys, "refute", "--word", "x1^2", "--expr", expr)["result"]
    assert (result["replayed"], result["exact"]) == (True, True)
    outcome, witness = LONG_CHAIN_ANSWERS[expr]
    assert result["outcome"] == outcome
    assert witness is None or result["witness"] == witness
    assert time.perf_counter() - start < 5.0


def _nested_unions(levels: int) -> str:
    text = "(fin x1)"
    for _ in range(levels):
        text = f"(union {text} (fin x1))"
    return text


def test_sign_positivize_depth_cap_names_its_limit(capsys):
    code, out, err = run_cli(capsys, "sign", "positivize", "--expr", _nested_unions(50))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "depth cap of 48" in err
    code, _, err = run_cli(capsys, "sign", "positivize", "--expr", _nested_unions(47))
    assert code == 0, err


def test_file_errors_exit_1_with_one_line(capsys, tmp_path):
    code, out, err = run_cli(capsys, "rat", "member", "--expr", str(tmp_path), "--word", "x1")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    missing = tmp_path / "absent" / "x.json"
    code, out, err = run_cli(capsys, "word", "classify", "x1", "--out", str(missing))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not missing.exists()


def test_verbal_member_search_budget_exits_3(capsys):
    code, out, err = run_cli(
        capsys,
        "verbal", "member",
        "--word", "x1^2 x2^2", "--element", "x1^2 x2^4 x1^2", "--cap-len", "6",
    )
    assert code == 3
    assert out == ""
    assert err == "error: 1457^2 substitution tuples exceed the search budget of 500000\n"


def test_refute_internal_check_failure_is_not_an_exit_status(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("refuted-branch witness not accepted; embedding bug")

    monkeypatch.setattr("freerat.cli.refute", broken)
    with pytest.raises(RuntimeError, match="embedding bug"):
        main(["refute", "--word", "x1^2", "--expr", SQUARES_EXPR])


def test_refute_rejects_commutator_word(capsys):
    code, _, err = run_cli(
        capsys, "refute", "--word", "x1 x2 x1^-1 x2^-1", "--expr", SQUARES_EXPR
    )
    assert code == 1
    assert "commutator" in err


def test_refute_rejects_a_candidate_over_more_than_two_generators(capsys):
    code, out, err = run_cli(capsys, "refute", "--word", "x1^2", "--expr", "(star (fin x1^2 x3^2))")
    assert (code, out) == (1, "")
    assert err == "error: positive intersection is defined over F2\n"


# -- determinism -----------------------------------------------------------


def test_repeated_runs_are_byte_identical(capsys):
    argv = ("refute", "--word", "x1^2", "--expr", SQUARES_EXPR)
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second

    argv = ("gaps", "scan", "--word", "x1^2", "--b", "b^1", "--samples", "4", "--seed", "3")
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv)


def test_out_file_matches_stdout_bytes(capsys, tmp_path):
    _, stdout_text, _ = run_cli(capsys, "word", "classify", "x1^2 x2^2")
    path = tmp_path / "report.json"
    run_cli(capsys, "word", "classify", "x1^2 x2^2", "--out", str(path))
    assert path.read_text() == stdout_text


def test_different_seed_changes_scan(capsys):
    base = ("gaps", "scan", "--word", "x1^2", "--b", "b^1", "--samples", "4")
    first = run_cli(capsys, *base, "--seed", "1")[1]
    second = run_cli(capsys, *base, "--seed", "2")[1]
    assert first != second


# -- errors ----------------------------------------------------------------


def test_parse_errors_carry_positions(capsys):
    code, _, err = run_cli(capsys, "word", "reduce", "x1 xq")
    assert code == 1
    assert "position 2" in err

    code, _, err = run_cli(capsys, "rat", "member", "--expr", "(finite x1)", "--word", "x1")
    assert code == 1
    assert "position" in err

    code, _, err = run_cli(capsys, "fp", "reduce", "a qq")
    assert code == 1
    assert "position 2" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rat", "member", "--a-mod", "2", "--expr", "(fin x1)", "--word", "x1"], "unrecognized arguments: --a-mod 2"),
        (["rat", "enumerate", "--expr", "(fin x1)", "--cap-len", "six"], "argument --cap-len: invalid int value: 'six'"),
        (["rat", "member", "--word", "x1"], "the following arguments are required: --expr"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        ([], "the following arguments are required: command"),
    ],
    ids=["unknown-flag", "non-integer", "missing-flag", "bad-command", "empty-argv"],
)
def test_usage_errors_exit_1_with_one_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["word", "reduce", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: freerat word reduce")


def _nested_stars(depth):
    return "(star " * depth + "(fin x1)" + ")" * depth


def test_rat_member_at_the_nesting_limit(capsys):
    result = run_json(
        capsys, "rat", "member", "--expr", _nested_stars(MAX_DEPTH), "--word", "x1^3"
    )["result"]
    assert result["member"] is True


def test_rat_member_nesting_past_the_limit_is_bad_input(capsys):
    code, out, err = run_cli(
        capsys, "rat", "member", "--expr", _nested_stars(MAX_DEPTH + 1), "--word", "x1"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(MAX_DEPTH) in err


def test_word_reduce_rejects_a_huge_exponent(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "word", "reduce", "x1^1000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert out == ""
    assert err == f"error: word longer than {MAX_WORD_LETTERS} letters at position 1\n"


def test_gaps_profile_rejects_multi_syllable_b(capsys):
    code, _, err = run_cli(capsys, "gaps", "profile", "--u", "b a b", "--b", "a b")
    assert code == 1
    assert "single syllable" in err


# -- module entry point ----------------------------------------------------


def _child_env() -> dict:
    """The environment in which a child finds the package where this
    process imported it from."""
    src = str(Path(freerat.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_python_m_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "freerat", "word", "reduce", "x1 x1^-1 x2"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == "x2\n"


# Inputs whose work grows without end; each must stop at a budget.  They
# run in a child with a wall-clock timeout and an address-space limit, so a
# regression fails in seconds, with no swap or out-of-memory kill.
_UNBOUNDED_INPUTS = {
    "rat-enumerate": (
        ["rat", "enumerate", "--expr", "(star (fin x1 x2))", "--cap-len", "40"],
        "enumeration exceeded the budget of 500000 expanded prefixes",
    ),
    "refute-foreign-cap": (
        [
            "refute", "--word", "x1^2 x2^-2 x1^2",
            "--expr", "(star (union (fin x1^2) (fin x2^2)))", "--foreign-cap", "60",
        ],
        "enumeration exceeded the budget of 500000 expanded prefixes",
    ),
    "verbal-enum": (
        ["verbal", "enum", "--word", "x1^2", "--cap-len", "16"],
        "86093441^1 substitution tuples exceed the evaluation budget of 2000000",
    ),
    "verbal-dichotomy": (
        ["verbal", "dichotomy", "--word", "x1^2", "--gen", "a b", "--budget", "1000000"],
        "product probe exceeded the budget of 500000 syllables",
    ),
}


@pytest.mark.parametrize("name", sorted(_UNBOUNDED_INPUTS))
def test_unbounded_input_gives_up_at_its_budget(name):
    argv, message = _UNBOUNDED_INPUTS[name]

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "freerat", *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=30,
        preexec_fn=limit_memory,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == f"error: {message}\n"


def test_schema_file_is_draft_2020():
    assert SCHEMA["$schema"].endswith("2020-12/schema")
