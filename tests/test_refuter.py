"""The refuter: block schemes, witness transcripts, decomposability, and
end-to-end refutation reports with certificate replay."""
import json
import random

import pytest

from freerat.ratexpr import Finite, Product, Star, Union, standard_form
from freerat.refuter import (
    BranchRefuted,
    DecompositionScheme,
    _analyze,
    decomposable,
    refute,
    replay_report,
    witness_word,
)
from freerat.words import Word, parse_word, substitute

from oracle_decomp import brute_decomposable

W = parse_word
SQ = W("x1^2")


def extract_scheme(sf, w):
    """The block scheme of a positive standard form at the refuter's
    default caps, without the per-branch records."""
    s, _ = _analyze(sf, w, enum_cap=6, probe_depth=3)
    return s


def scheme(syllables, n):
    return DecompositionScheme(frozenset(syllables), n)


# -- decomposition schemes --------------------------------------------------


def test_scheme_validation():
    with pytest.raises(ValueError, match="block count"):
        scheme([], 0)
    with pytest.raises(ValueError, match="positive"):
        scheme([("a", -1)], 1)
    with pytest.raises(ValueError, match="positive"):
        scheme([("c", 1)], 1)


def test_scheme_json_roundtrip():
    s = scheme([("a", 2), ("b", 1)], 3)
    assert DecompositionScheme.from_json(s.as_json()) == s


def test_extract_scheme_frozen():
    # lone star over one axis: no support, three blocks
    s = extract_scheme(standard_form(Star(Finite([SQ]))), SQ)
    assert s == scheme([], 3)
    # coefficient in front adds its syllable
    s = extract_scheme(standard_form(Product(Finite([W("x1")]), Star(Finite([W("x2")])))), SQ)
    assert s == scheme([("a", 1)], 3)
    # two starred factors in one summand: five blocks
    s = extract_scheme(
        standard_form(Product(Star(Finite([W("x1")])), Star(Finite([W("x2")])))), SQ
    )
    assert s == scheme([], 5)
    # a finite summand alone: one block, syllables from its word
    s = extract_scheme(standard_form(Finite([W("x1^2 x2")])), SQ)
    assert s == scheme([("a", 2), ("b", 1)], 1)
    # common-support base contributes its closed support
    s = extract_scheme(standard_form(Star(Finite([W("x1 x2^2")]))), SQ)
    assert s == scheme([("a", 1), ("b", 1), ("b", 2)], 3)


def test_extract_scheme_refuted_branch_raises():
    sf = standard_form(Star(Finite([W("x1 x2"), W("x1 x2^2")])))
    with pytest.raises(BranchRefuted) as err:
        extract_scheme(sf, SQ)
    assert err.value.case.exact


# -- witness words ----------------------------------------------------------


def test_witness_word_frozen():
    wc = witness_word(SQ, scheme([("a", 1), ("b", 1)], 3))
    assert (wc.t, wc.l, wc.e) == (2, 4, 2)
    assert wc.base == W("x1^2 x2") ** 4
    assert wc.u == wc.base**2 and len(wc.u.letters) == 24
    assert substitute(SQ, wc.images) == wc.u
    wc = witness_word(SQ, scheme([], 1))
    assert (wc.t, wc.l) == (1, 2) and wc.u == W("x1 x2") ** 4


def test_witness_word_multivariable():
    w = W("x1^2 x2^4")  # exponent gcd 2
    wc = witness_word(w, scheme([("a", 3)], 2))
    assert wc.t == 4 and wc.e == 2
    assert substitute(w, wc.images) == wc.u == wc.base**2


def test_witness_word_rejects_small_gcd():
    with pytest.raises(ValueError):
        witness_word(W("x1 x2"), scheme([], 1))


# -- block decomposability --------------------------------------------------


def test_decomposable_frozen():
    assert decomposable(W("x1^3"), scheme([("a", 1)], 1))[0]
    assert decomposable(W("x1^3"), scheme([], 1))[0]  # one axis power block
    assert not decomposable(W("x1 x2 x1 x2"), scheme([], 1))[0]
    assert not decomposable(W("x1 x2 x1 x2"), scheme([], 2))[0]
    assert decomposable(W("x1 x2 x1 x2"), scheme([], 4))[0]
    assert decomposable(W("x1 x2 x1 x2"), scheme([("a", 1), ("b", 1)], 1))[0]
    # support word bridging partial runs around an axis block
    assert decomposable(W("x1^3 x2 x1^3"), scheme([("a", 1), ("b", 1)], 2))[0]


def test_decomposable_rejects_negative_letters():
    with pytest.raises(ValueError):
        decomposable(W("x1^-1"), scheme([], 1))


def test_decomposable_trace_is_replayable():
    verdict, trace = decomposable(W("x1 x2 x1 x2"), scheme([("a", 1)], 2))
    restored = DecompositionScheme.from_json(trace["scheme"])
    assert decomposable(W("x1 x2 x1 x2"), restored)[0] == verdict == trace["decomposable"]


def test_decomposable_matches_brute_force():
    rng = random.Random(17)
    pool = [("a", 1), ("a", 2), ("b", 1), ("b", 2)]
    for _ in range(300):
        letters = []
        while len(letters) < rng.randrange(1, 13):
            a = rng.choice([1, 2])
            letters.extend([a] * rng.randrange(1, 4))
        u = Word(letters[:12])
        if not u.letters:
            continue
        support = frozenset(s for s in pool if rng.random() < 0.5)
        n = rng.randrange(1, 4)
        got, _ = decomposable(u, DecompositionScheme(support, n))
        assert got == brute_decomposable(u, support, n)


def test_refutation_witness_never_decomposes():
    rng = random.Random(23)
    pool = [("a", 1), ("a", 2), ("a", 3), ("b", 1), ("b", 2)]
    for _ in range(60):
        support = frozenset(s for s in pool if rng.random() < 0.5)
        n = rng.randrange(1, 5)
        s = DecompositionScheme(support, n)
        wc = witness_word(SQ, s)
        assert not decomposable(wc.u, s)[0]


# -- end-to-end refutation --------------------------------------------------


def test_refute_missing_value_for_even_powers():
    report = refute(Star(Finite([SQ])), SQ)
    assert report.outcome == "missing-value" and report.exact
    assert report.witness == W("x1 x2") ** 8
    tr = report.certificate["transcript"]
    assert (tr["t"], tr["l"]) == (1, 4)
    assert replay_report(report.as_json())


def test_refute_foreign_element_for_all_positive_words():
    report = refute(Star(Finite([W("x1"), W("x2")])), SQ)
    assert report.outcome == "foreign-element" and report.exact
    assert report.witness == W("x1")  # shortest accepted non-square
    assert report.certificate["nonvalue"]["method"] == "power-root"
    assert replay_report(report.as_json())


def test_refute_finite_candidate():
    report = refute(Finite([SQ, W("x1^4"), W("x2^2")]), SQ)
    assert report.outcome == "missing-value" and report.exact
    assert report.witness == W("x1^6")
    assert report.certificate["finite_positive_part"]
    assert report.certificate["also_missing"] == "x1^8"
    assert replay_report(report.as_json())


def test_refute_common_support_candidate():
    report = refute(Star(Finite([W("x1 x2")])), SQ)
    assert report.outcome == "missing-value"
    assert report.witness == (W("x1^2 x2")) ** 8
    assert replay_report(report.as_json())


def test_refute_mixed_sign_leaves_via_acceptor():
    expr = Union(Finite([W("x1^-1 x2^-1")]), Star(Finite([W("x2^2")])))
    report = refute(expr, SQ)
    assert report.outcome == "missing-value"
    assert replay_report(report.as_json())


def test_refute_budget_misclassification_is_flagged():
    hidden = Star(Finite([W("x1 x2") ** 4]))
    low = refute(hidden, SQ, enum_cap=6)
    assert low.outcome == "inconsistent-branch" and not low.exact
    assert low.certificate["decomposition"]["decomposable"] is False
    assert replay_report(low.as_json())
    high = refute(hidden, SQ, enum_cap=8)
    assert high.outcome == "missing-value" and high.exact
    assert replay_report(high.as_json())


def test_refute_higher_degree_word():
    report = refute(Star(Finite([W("x1^3")])), W("x1^3"))
    assert report.outcome == "missing-value"
    tr = report.certificate["transcript"]
    assert tr["degree"] == 3
    assert report.witness == W("x1 x2") ** (tr["l"] * 3)
    assert replay_report(report.as_json())


def test_refute_rejects_out_of_scope_words():
    expr = Star(Finite([SQ]))
    with pytest.raises(ValueError, match="commutator"):
        refute(expr, W("x1 x2 x1^-1 x2^-1"))
    with pytest.raises(ValueError, match="gcd 1"):
        refute(expr, W("x1 x2"))
    with pytest.raises(ValueError, match="F2"):
        refute(Finite([W("x3")]), SQ)


def test_reports_serialize_to_json():
    report = refute(Star(Finite([SQ])), SQ)
    blob = json.dumps(report.as_json(), sort_keys=True)
    assert replay_report(json.loads(blob))


def test_replay_rejects_tampered_reports():
    report = refute(Star(Finite([SQ])), SQ).as_json()
    for key, value in (
        ("witness", "x1 x2"),
        ("outcome", "foreign-element"),
        ("word", "x1^3"),
    ):
        bad = json.loads(json.dumps(report))
        bad[key] = value
        assert not replay_report(bad)
    bad = json.loads(json.dumps(report))
    bad["certificate"]["transcript"]["images"][0] = "x1"
    assert not replay_report(bad)


def test_replay_rejects_malformed_reports():
    assert not replay_report({})
    assert not replay_report({"word": "x1^2", "outcome": "nonsense"})
