"""The refuter: block schemes, witness transcripts, decomposability, and
end-to-end refutation reports with certificate replay."""
import json
import random
from itertools import product

import pytest

from freerat.automata import positive_acceptor, reduced_acceptor
from freerat.ratexpr import Finite, Product, Star, Union
from freerat.refuter import (
    DecompositionScheme,
    _analyze,
    _classify,
    _loop_supports,
    loop_components,
    refute,
    replay_report,
    witness_word,
)
from freerat.words import Word, parse_word, substitute

from oracle_decomp import brute_decomposable, decomposable
from oracle_refute import replay_sampled, scheme_from_json

W = parse_word
SQ = W("x1^2")


def extract_scheme(expr, w):
    """The block scheme of the positive part of expr, without the
    per-branch records."""
    s, _ = _analyze(positive_acceptor(expr), w)
    return s


def scheme(a, b, n):
    return DecompositionScheme(a, b, n)


# -- decomposition schemes --------------------------------------------------


def test_scheme_validation():
    with pytest.raises(ValueError, match="scheme n"):
        scheme(0, 0, 0)
    with pytest.raises(ValueError, match="scheme a"):
        scheme(-1, 0, 1)
    with pytest.raises(ValueError, match="scheme b"):
        scheme(0, 1.5, 1)


def test_scheme_json_roundtrip():
    s = scheme(2, 1, 3)
    assert scheme_from_json(s.as_json()) == s


def test_extract_scheme_frozen():
    # lone star over one axis: no support, three blocks
    s = extract_scheme(Star(Finite([SQ])), SQ)
    assert s == scheme(0, 0, 3)
    # coefficient in front bounds its letter's runs
    s = extract_scheme(Product(Finite([W("x1")]), Star(Finite([W("x2")]))), SQ)
    assert s == scheme(1, 0, 3)
    # two looping components on one path: five blocks; the edge between
    # them reads the first x2
    s = extract_scheme(Product(Star(Finite([W("x1")])), Star(Finite([W("x2")]))), SQ)
    assert s == scheme(0, 1, 5)
    # a finite part alone: one block, the longest letter runs of its word
    s = extract_scheme(Finite([W("x1^2 x2")]), SQ)
    assert s == scheme(2, 1, 1)
    # common-support loop contributes the longest syllables of its support
    s = extract_scheme(Star(Finite([W("x1 x2^2")])), SQ)
    assert s == scheme(1, 2, 3)
    # the empty set: one block, no runs
    s = extract_scheme(Finite([W("x1^-1")]), SQ)
    assert s == scheme(0, 0, 1)


def test_extract_scheme_returns_refuted_branch():
    expr = Star(Finite([W("x1 x2"), W("x1 x2^2")]))
    component, case = _analyze(positive_acceptor(expr), SQ)
    assert case.exact
    assert component == 0


def test_loop_read_at_the_component_first_state():
    # (x1 x2 x1 | x1 x2 x1 x2)*: states 0 -x1-> 1 -x2-> 2 -x1-> 3, then
    # 3 -x1-> 1 and 3 -x2-> 0.  No letter has a cycle of its own, so the
    # component is read at state 0: its first loop there is (x1 x2)^2, and
    # the first with another cyclic support is x1 x2 x1^2 x2 x1 x2.
    expr = Star(Product(Finite([W("x1 x2")]), Finite([W("x1"), W("x1 x2")])))
    acc = positive_acceptor(expr)
    components, looping = loop_components(acc)
    assert looping == [True] and sorted(components[0]) == [0, 1, 2, 3]
    assert _loop_supports(acc, 0b1111, 0) == [
        (frozenset({(1, 1), (2, 1)}), (1, 2, 1, 2)),
        (frozenset({(1, 1), (1, 2), (2, 1)}), (1, 2, 1, 1, 2, 1, 2)),
    ]
    report = refute(expr, SQ)
    assert report.outcome == "foreign-element" and report.exact
    assert report.witness == W("x1 x2 x1")
    assert replay_report(report.as_json())
    # on a simple cycle, the state nearest the initial one, with its one
    # cyclic support
    acc = positive_acceptor(Product(Finite([W("x2")]), Star(Finite([W("x1 x2 x1")]))))
    components, looping = loop_components(acc)
    (cycle,) = [c for c, loops in zip(components, looping) if loops]
    assert sorted(cycle) == [1, 2, 3]
    assert _loop_supports(acc, 0b1110, 1) == [(frozenset({(1, 2), (2, 1)}), (1, 2, 1))]
    assert _classify(acc, cycle, SQ) == {"kind": "common-support", "a": 2, "b": 1}


def test_loop_components_finish_after_what_they_reach():
    # x1* x2 (x1 x2)* x2: components in the order a search finishes them
    expr = Product(
        Product(Star(Finite([W("x1")])), Finite([W("x2")])),
        Product(Star(Finite([W("x1 x2")])), Finite([W("x2")])),
    )
    acc = positive_acceptor(expr)
    components, looping = loop_components(acc)
    assert [sorted(c) for c in components] == [[3], [1, 2], [0]]
    assert looping == [False, True, True]
    assert extract_scheme(expr, SQ).n == 5


# -- witness words ----------------------------------------------------------


def test_witness_word_frozen():
    wc = witness_word(SQ, scheme(1, 1, 3))
    assert (wc.t, wc.l, wc.e) == (2, 4, 2)
    assert wc.base == W("x1^2 x2") ** 4
    assert wc.u == wc.base**2 and len(wc.u.letters) == 24
    assert substitute(SQ, wc.images) == wc.u
    wc = witness_word(SQ, scheme(0, 0, 1))
    assert (wc.t, wc.l) == (1, 2) and wc.u == W("x1 x2") ** 4


def test_witness_word_multivariable():
    w = W("x1^2 x2^4")  # exponent gcd 2
    wc = witness_word(w, scheme(3, 0, 2))
    assert wc.t == 4 and wc.e == 2
    assert substitute(w, wc.images) == wc.u == wc.base**2


def test_witness_word_rejects_small_gcd():
    with pytest.raises(ValueError):
        witness_word(W("x1 x2"), scheme(0, 0, 1))


# -- block decomposability --------------------------------------------------


def test_decomposable_frozen():
    assert decomposable(W("x1^3"), scheme(1, 0, 1))[0]
    assert decomposable(W("x1^3"), scheme(0, 0, 1))[0]  # one axis power block
    assert not decomposable(W("x1 x2 x1 x2"), scheme(0, 0, 1))[0]
    assert not decomposable(W("x1 x2 x1 x2"), scheme(0, 0, 2))[0]
    assert decomposable(W("x1 x2 x1 x2"), scheme(0, 0, 4))[0]
    assert decomposable(W("x1 x2 x1 x2"), scheme(1, 1, 1))[0]
    # support word bridging partial runs around an axis block
    assert decomposable(W("x1^3 x2 x1^3"), scheme(1, 1, 2))[0]


def test_decomposable_rejects_negative_letters():
    with pytest.raises(ValueError):
        decomposable(W("x1^-1"), scheme(0, 0, 1))


def test_decomposable_trace_is_replayable():
    verdict, trace = decomposable(W("x1 x2 x1 x2"), scheme(1, 0, 2))
    restored = scheme_from_json(trace["scheme"])
    assert decomposable(W("x1 x2 x1 x2"), restored)[0] == verdict == trace["decomposable"]


def test_decomposable_matches_brute_force():
    # every positive word of <= 8 letters, against the closed support sets
    # of run bounds 0..2, split into 1..3 pairs
    for length in range(9):
        for letters in product((1, 2), repeat=length):
            u = Word(letters)
            for a, b, n in product(range(3), range(3), range(1, 4)):
                support = [("a", k) for k in range(1, a + 1)] + [("b", k) for k in range(1, b + 1)]
                got, trace = decomposable(u, scheme(a, b, n))
                assert got == brute_decomposable(u, support, n), (letters, a, b, n)
                assert got == (trace["pairs_needed"] <= n)


def test_refutation_witness_never_decomposes():
    rng = random.Random(23)
    for _ in range(60):
        s = scheme(rng.randrange(4), rng.randrange(3), rng.randrange(1, 5))
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
    # an 8-letter loop, which first returns of <= 6 letters never saw: the
    # component is read exactly, whatever the length of its loops
    report = refute(Star(Finite([W("x1 x2") ** 4])), SQ)
    assert report.outcome == "missing-value" and report.exact
    assert report.certificate["branches"] == [{"component": 0, "kind": "common-support", "a": 1, "b": 1}]
    assert replay_report(report.as_json())


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


# The report of (x1 x2)^8 that sampled first returns of <= 6 letters gave:
# the set accepts the witness, which splits into no 3 block pairs.
INCONSISTENT_BRANCH = {
    "certificate": {
        "accepted": True,
        "branches": [],
        "decomposition": {
            "decomposable": False, "letters": 16, "pairs_needed": 16, "scheme": {"a": 0, "b": 0, "n": 3},
        },
        "heuristic_note": "branch classification is budget-limited",
        "kind": "inconsistent-branch",
        "transcript": {
            "base": "x1 x2 x1 x2 x1 x2 x1 x2",
            "degree": 2,
            "exponents": [1],
            "images": ["x1 x2 x1 x2 x1 x2 x1 x2"],
            "l": 4,
            "t": 1,
            "value": "x1 x2 x1 x2 x1 x2 x1 x2 x1 x2 x1 x2 x1 x2 x1 x2",
        },
    },
    "exact": False,
    "expression": "(star (fin (x1 x2 x1 x2 x1 x2 x1 x2)))",
    "outcome": "inconsistent-branch",
    "witness": "x1 x2 x1 x2 x1 x2 x1 x2 x1 x2 x1 x2 x1 x2 x1 x2",
    "word": "x1^2",
}


def test_replay_rejects_a_block_count_that_decomposes_the_witness():
    # an exact scheme's witness is never accepted, so an inconsistent-branch
    # report does not replay, though its every check holds; a block count
    # that lets the witness split fails those checks, and answers False
    # rather than running out of stack
    assert replay_sampled(INCONSISTENT_BRANCH)
    assert not replay_report(INCONSISTENT_BRANCH)
    for edit in (
        lambda s: s.update(n=5000),
        lambda s: s.update(a=-1),
        lambda s: s.update(a=1.5),
        lambda s: s.pop("a"),
    ):
        bad = _edited(INCONSISTENT_BRANCH, lambda r: edit(r["certificate"]["decomposition"]["scheme"]))
        assert not replay_sampled(bad) and not replay_report(bad)


def _edited(report, edit):
    copy = json.loads(json.dumps(report))
    edit(copy)
    return copy


def test_replay_rejects_malformed_reports():
    assert not replay_report({})
    assert not replay_report({"word": "x1^2", "outcome": "nonsense"})
    assert not replay_report([])
    missing = refute(Star(Finite([SQ])), SQ).as_json()
    foreign = refute(Star(Finite([W("x1"), W("x2")])), SQ).as_json()
    abelian = refute(Star(Finite([W("x1"), W("x2")])), W("x1^2 x2^2")).as_json()
    assert abelian["certificate"]["nonvalue"]["method"] == "abelianization"
    assert all(replay_report(r) for r in (missing, foreign, abelian))
    for report, edit in (
        # missing structure
        (missing, lambda r: r.update(certificate={})),
        (missing, lambda r: r["certificate"]["transcript"].pop("base")),
        (foreign, lambda r: r["certificate"]["nonvalue"].pop("method")),
        (foreign, lambda r: r["certificate"].pop("nonvalue")),
        (abelian, lambda r: r["certificate"]["nonvalue"].pop("modulus")),
        # wrong-typed fields
        (missing, lambda r: r.update(word=2)),
        (missing, lambda r: r.update(certificate=[])),
        (missing, lambda r: r["certificate"].update(transcript="x1 x2")),
        (missing, lambda r: r["certificate"]["transcript"].update(images=3)),
        (missing, lambda r: r["certificate"]["transcript"].update(exponents=[1.5])),
        (missing, lambda r: r["certificate"]["transcript"].update(degree=None)),
        (foreign, lambda r: r["certificate"].update(nonvalue=None)),
        (foreign, lambda r: r["certificate"]["nonvalue"].update(degree="2")),
        (abelian, lambda r: r["certificate"]["nonvalue"].update(modulus="2")),
    ):
        assert not replay_report(_edited(report, edit))


def test_refute_and_replay_build_one_positive_acceptor():
    # the replay reads the DFA the refutation cached: one miss, one hit
    expr = Star(Finite([W("x1^11 x2^7 x1^3")]))
    before = reduced_acceptor.cache_info()
    report = refute(expr, SQ)
    assert replay_report(report.as_json())
    after = reduced_acceptor.cache_info()
    assert (after.misses, after.hits) == (before.misses + 1, before.hits + 1)
