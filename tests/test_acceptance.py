"""Acceptance suite: ten end-to-end criteria, one test per criterion.

Every comparison is exact — set equality, integer equality, certified
witnesses — and each test asserts its own wall-clock budget.  Sample
sizes and seeds are pinned so reruns are reproducible.
"""
import functools
import json
import random
import time

from oracle_boolean import intersect, positive_walk
from oracle_enum import enumerate_bounded
from oracle_decomp import decomposable
from oracle_refute import refute_by_standard_form, refute_sampled, replay_sampled
from oracle_signs import STANDARD_F2_SIGN, SignModel, is_positive, positive_universe, split_product
from oracle_squares import exhaustive_square_gamma_max
from oracle_verbal import lattice_index
from oracle_words import bezout_substitution

from freerat.automata import (
    enumerate_accepted,
    equivalent,
    minimize,
    positive_acceptor,
    reduced_acceptor,
)
from freerat.freeprod import FREE_ZZ, FreeProduct, to_f2
from freerat.gaps import ScanConfig, criterion_scan, unbounded_family
from freerat.ratexpr import (
    Finite,
    Product,
    Star,
    Union,
    complexity,
    format_ratexpr,
    leaf_words,
    parse_ratexpr,
)
from freerat.errors import GaveUp
from freerat.refuter import _analyze, loop_components, refute, replay_report
from freerat import signs
from freerat.signs import positive_witness, positivize
from freerat.verbal import abelianized_verbal
from freerat.words import (
    IDENTITY,
    Word,
    WordClass,
    classify,
    exponent_gcd,
    exponent_profile,
    format_word,
    parse_word,
    root_extract,
    substitute,
)


# -- shared generators ------------------------------------------------------


def _random_word(rng, max_len=8, rank=2):
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    return Word([rng.choice(letters) for _ in range(rng.randrange(max_len + 1))])


def _random_fp(rng, group, max_syllables=6):
    fids = list(group.factors)
    start = rng.randrange(2)
    out = []
    for k in range(rng.randrange(max_syllables + 1)):
        fid = fids[(start + k) % 2]
        factor = group.factors[fid]
        if factor.modulus is None:
            exp = rng.choice([-3, -2, -1, 1, 2, 3])
        else:
            exp = rng.randrange(1, factor.modulus)
        out.append((fid, exp))
    return group.element(out)


# Criterion 3/4 corpus: random expressions over short leaf words.  The
# letter x2^-1 is kept out of the single-letter pool so star bases never
# cover all four letters, which keeps bounded enumeration desk-sized.
_LEAF_POOL = [
    parse_word(t)
    for t in ["x1", "x2", "x1^-1", "x1 x2", "x2 x1", "x1^2", "1", "x1 x2 x1", "x2 x1^-1", "x2^2"]
]


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return Finite(rng.sample(_LEAF_POOL, rng.randint(1, 2)))
    kind = rng.choice(["union", "prod", "star"])
    if kind == "union":
        return Union(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == "prod":
        return Product(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    return Star(_random_expr(rng, depth - 1))


@functools.lru_cache(maxsize=1)
def _expr_corpus():
    rng = random.Random(202603)
    out = []
    while len(out) < 100:
        expr = _random_expr(rng, rng.randint(1, 3))
        if complexity(expr) <= 3:
            out.append(expr)
    return tuple(out)


@functools.lru_cache(maxsize=1)
def _corpus_enumerations():
    return tuple(
        (expr, frozenset(enumerate_bounded(expr, 8))) for expr in _expr_corpus()
    )


@functools.lru_cache(maxsize=1)
def _all_reduced_words(max_len=8):
    out = [IDENTITY]
    frontier = [IDENTITY]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for a in (1, -1, 2, -2):
                if w.letters and a == -w.letters[-1]:
                    continue
                nxt.append(Word(w.letters + (a,)))
        out.extend(nxt)
        frontier = nxt
    return tuple(out)


# -- criterion 1: algebra laws ---------------------------------------------


def test_c01_algebra_laws_bulk_randomized():
    start = time.perf_counter()
    rng = random.Random(202601)
    for _ in range(10_000):
        u, v, w = (_random_word(rng) for _ in range(3))
        assert (u * v) * w == u * (v * w)
        assert u * u.inv() == IDENTITY
        assert u.inv().inv() == u
        uv = u * v
        assert uv.inv() == v.inv() * u.inv()
        # reduction invariant: no cancelling adjacent pair survives
        assert all(x + y != 0 for x, y in zip(uv.letters, uv.letters[1:]))

    mixed = FreeProduct(None, 6)
    for i in range(10_000):
        group = FREE_ZZ if i % 2 else mixed
        x, y, z = (_random_fp(rng, group) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * x.inv() == group.identity
        assert x.inv().inv() == x
        xy = x * y
        assert xy.inv() == y.inv() * x.inv()
        # normal-form invariant: factors alternate, no identity syllable
        syl = xy.syllables
        assert all(f1 != f2 for (f1, _), (f2, _) in zip(syl, syl[1:]))
        assert all(group.factors[f].canon(e) != 0 for f, e in syl)
    assert time.perf_counter() - start < 5.0


# -- criterion 2: the power substitution certificate ------------------------


def test_c02_bezout_substitution_hits_the_power():
    start = time.perf_counter()
    rng = random.Random(202602)
    checked = 0
    while checked < 500:
        w = _random_word(rng, max_len=10, rank=3)
        if classify(w) is not WordClass.PROPER or len(w) < 2:
            continue
        g = _random_word(rng, max_len=6, rank=2)
        assert bezout_substitution(w, g) == g ** exponent_gcd(w)
        checked += 1
    assert time.perf_counter() - start < 10.0


# -- criterion 3: membership oracle vs bounded enumeration ------------------


def test_c03_member_matches_enumeration_on_corpus():
    start = time.perf_counter()
    universe = _all_reduced_words()
    for expr, enumerated in _corpus_enumerations():
        acc = reduced_acceptor(expr)
        members = {w for w in universe if acc.accepts_word(w)}
        assert members == set(enumerated)
    assert time.perf_counter() - start < 60.0


# -- criterion 4: positive-part acceptor vs enumeration ---------------------


def test_c04_positive_intersection_matches_enumeration():
    start = time.perf_counter()
    for expr, enumerated in _corpus_enumerations():
        acc = positive_acceptor(expr)
        accepted = set(enumerate_accepted(acc, 8))
        expected = {w.letters for w in enumerated if w.is_positive()}
        assert accepted == expected
    assert time.perf_counter() - start < 60.0


def test_enumerate_accepted_matches_oracle_on_corpus():
    # the live-state mask keeps every prefix that some member extends
    start = time.perf_counter()
    for expr, enumerated in _corpus_enumerations():
        strings = list(enumerate_accepted(reduced_acceptor(expr), 8))
        assert len(strings) == len(set(strings))
        assert set(strings) == {w.letters for w in enumerated}
    assert time.perf_counter() - start < 60.0


# -- criterion 5: the product split contract --------------------------------

_MIXED_GROUP = FreeProduct(None, 6)
_MIXED_SIGN = SignModel(_MIXED_GROUP, (("a", None), ("b", frozenset({0, 2, 4}))))


def _random_positive_fp(rng, group, sign, max_syllables=4):
    fids = list(group.factors)
    start = rng.randrange(2)
    out = group.identity
    for k in range(rng.randrange(max_syllables + 1)):
        fid = fids[(start + k) % 2]
        factor = group.factors[fid]
        if factor.modulus is None:
            exp = rng.randrange(1, 4)
        else:
            choices = [r for r in sign.rule(fid) if r != 0]
            if not choices:
                continue
            exp = rng.choice(choices)
        out = out * group.syllable(fid, exp)
    return out


def _split_instance(rng, group, sign):
    # S ⊆ Pos·x⁻¹ and T ⊆ x·Pos make every product s·t positive.
    x = _random_fp(rng, group, max_syllables=3)
    S = {
        _random_positive_fp(rng, group, sign) * x.inv()
        for _ in range(rng.randrange(1, 4))
    }
    T = {
        x * _random_positive_fp(rng, group, sign)
        for _ in range(rng.randrange(1, 4))
    }
    return S, T


def test_c05_split_contract_thousand_instances():
    start = time.perf_counter()
    rng = random.Random(202605)
    cases = [(FREE_ZZ, STANDARD_F2_SIGN)] * 700 + [(_MIXED_GROUP, _MIXED_SIGN)] * 300
    for group, sign in cases:
        S, T = _split_instance(rng, group, sign)
        trace = split_product(S, T, sign)
        u_inv = trace.u.inv()
        assert all(is_positive(s * u_inv, sign) for s in S)
        assert all(is_positive(trace.u * t, sign) for t in T)
    assert time.perf_counter() - start < 10.0


def test_c05_middle_element_on_the_free_instances():
    # the shipped construction, on the DFAs of the same 700 ℤ∗ℤ instances
    rng = random.Random(202605)
    cases = set()
    for _ in range(700):
        S, T = _split_instance(rng, FREE_ZZ, STANDARD_F2_SIGN)
        s_words, t_words = [to_f2(s) for s in S], [to_f2(t) for t in T]
        u, case = signs._middle(reduced_acceptor(Finite(s_words)), reduced_acceptor(Finite(t_words)))
        assert all((s * u.inv()).is_positive() for s in s_words), (S, T)
        assert all((u * t).is_positive() for t in t_words), (S, T)
        assert case == split_product(S, T, STANDARD_F2_SIGN).case, (S, T)
        cases.add(case)
    assert cases == {"both-positive", "case-2", "mirrored"}


# -- criterion 6: positivization preserves the language ---------------------


def _conjugated_star(core_words, c):
    inner = Finite([c.inv() * g * c for g in core_words])
    return Product(Product(Finite([c]), Star(inner)), Finite([c.inv()]))


@functools.lru_cache(maxsize=1)
def _curated_positive_exprs():
    fixed = [
        Star(Finite([parse_word("x2")])),
        _conjugated_star([parse_word("x2")], parse_word("x1")),
        _conjugated_star([parse_word("x2"), parse_word("x2^2")], parse_word("x1")),
        Star(_conjugated_star([parse_word("x2")], parse_word("x1"))),
        Union(
            _conjugated_star([parse_word("x1")], parse_word("x2")),
            Finite([parse_word("x1 x2")]),
        ),
        Product(
            Finite([parse_word("x1^2")]),
            _conjugated_star([parse_word("x2 x1")], parse_word("x2")),
        ),
    ]
    rng = random.Random(202606)
    pos_pool = [parse_word(t) for t in ["x1", "x2", "x1 x2", "x2 x1", "x1^2", "x2^2 x1"]]
    conj_pool = [parse_word(t) for t in ["x1", "x2", "x1 x2", "x2^-1", "x1^-1 x2"]]
    out = list(fixed)
    while len(out) < 50:
        c = rng.choice(conj_pool)
        cores = rng.sample(pos_pool, rng.randint(1, 2))
        expr = _conjugated_star(cores, c)
        if rng.random() < 0.4:
            expr = Product(expr, Finite(rng.sample(pos_pool, 1)))
        if rng.random() < 0.3:
            expr = Union(expr, _conjugated_star(rng.sample(pos_pool, 1), rng.choice(conj_pool)))
        out.append(expr)
    return tuple(out)


def test_c06_positivize_total_equivalent_positive_leaves():
    start = time.perf_counter()
    for expr in _curated_positive_exprs():
        assert positive_witness(expr) is None  # the set is exactly positive
        result = positivize(expr)
        assert all(w.is_positive() for w in leaf_words(result.expr))
        assert equivalent(reduced_acceptor(expr), reduced_acceptor(result.expr))
    assert time.perf_counter() - start < 60.0


# -- criterion 7: gap-count boundedness on squares --------------------------


def test_c07_square_gamma_matched_scale_and_plateau():
    start = time.perf_counter()
    reference = exhaustive_square_gamma_max(12)
    assert reference == 2  # exhaustive over all squares of <= 12 syllables

    # Matched scale: 10⁴ sampled squares of the same size attain the
    # exhaustive maximum exactly.
    matched = criterion_scan(
        parse_word("x1^2"),
        ("b", 1),
        2,
        ScanConfig(samples=10_000, seed=11, max_syllables=6),
    )
    assert matched.max_gamma == reference

    # Larger squares push γ a little higher but plateau: boundedness in
    # action, sampled at the 40-syllable scale.
    wide = criterion_scan(
        parse_word("x1^2"),
        ("b", 1),
        2,
        ScanConfig(samples=10_000, seed=11, max_syllables=20),
    )
    assert reference <= wide.max_gamma <= 6
    assert time.perf_counter() - start < 120.0


# -- criterion 8: engineered family with growing gap count ------------------


def test_c08_family_gamma_grows_and_members_are_certified_nonsquares():
    start = time.perf_counter()
    u = FREE_ZZ.element([("a", 1), ("b", 1)])
    v = FREE_ZZ.element([("a", 1), ("b", 2)])
    fam = unbounded_family(FREE_ZZ.identity, u, v, FREE_ZZ.identity, 20, e=2)
    gammas = fam.gammas
    assert all(g2 >= g1 for g1, g2 in zip(gammas, gammas[1:]))
    assert sum(1 for g1, g2 in zip(gammas, gammas[1:]) if g2 > g1) >= 10

    reference = 2  # the criterion-7 exhaustive bound
    flagged = [m for m, g in zip(fam.members, gammas) if g > reference]
    assert flagged
    for member in flagged:
        assert root_extract(to_f2(member), 2) is None
    assert time.perf_counter() - start < 10.0


# -- criterion 9: the refuter end to end ------------------------------------


def _random_positive_standard_form(rng):
    pool = [parse_word(t) for t in ["x1", "x2", "x1 x2", "x2 x1", "x1^2", "x2^2"]]

    def block():
        base = Finite(rng.sample(pool, rng.randint(1, 2)))
        return Star(base) if rng.random() < 0.5 else base

    expr = block()
    for _ in range(rng.randint(0, 2)):
        expr = Product(expr, block())
    if rng.random() < 0.3:
        expr = Union(expr, block())
    return expr


@functools.lru_cache(maxsize=1)
def _refuter_corpus():
    fixed = [
        "(star (fin x1 x2))",                     # all positive words
        "(star (fin (x1 x1)))",                   # even powers only
        "(star (fin (x1^2) (x2^2)))",             # products of even powers
        "(fin 1)",                                # identity only
        "(fin (x1 x2))",                          # a single non-value
        "(star (fin (x1 x2)))",                   # the (x1 x2)-ladder
        "(star (fin (x1 x2 x1 x2 x1 x2 x1 x2)))", # loop beyond a 6-letter sample
        "(fin (x1 x2^-1) (x1 x2))",               # mixed-sign leaves
        "(prod (fin (x1^2)) (star (fin (x2 x1))))",
        "(union (star (fin (x1 x2 x1 x2))) (fin (x1^2)))",
    ]
    exprs = [parse_ratexpr(t) for t in fixed]
    rng = random.Random(202609)
    while len(exprs) < 20:
        exprs.append(_random_positive_standard_form(rng))
    return tuple(exprs)


def test_c09_refuter_certificates_replay_on_corpus():
    start = time.perf_counter()
    w = parse_word("x1^2")
    outcomes = set()
    for expr in _refuter_corpus():
        report = refute(expr, w)
        payload = json.loads(json.dumps(report.as_json()))
        assert replay_report(payload)
        assert report.exact, format_ratexpr(expr)
        outcomes.add(report.outcome)
    assert outcomes == {"missing-value", "foreign-element"}
    assert time.perf_counter() - start < 120.0


def test_positive_acceptor_is_the_product_with_positive_strings_on_corpus():
    # the refuter's input accepts what the reduced DFA's product with the
    # one-state positive universe does, in as many states as that
    # product's minimal DFA
    for expr in _refuter_corpus():
        product = intersect(reduced_acceptor(expr), positive_universe())
        got = positive_acceptor(expr)
        assert equivalent(got, product), format_ratexpr(expr)
        assert got.n_states == minimize(product).n_states


def test_positive_acceptor_matches_the_positive_walk():
    # the subset construction over positive letters against the walk over
    # the full reduced DFA that it replaced, on the c09 corpus and 300
    # mixed-sign trees: one language, one minimal size, no inverse edge
    rng = random.Random(20261021)
    exprs = list(_refuter_corpus()) + [_mixed_sign_tree(rng, rng.randint(1, 4)) for _ in range(300)]
    for expr in exprs:
        got, walk = positive_acceptor(expr), positive_walk(expr)
        assert equivalent(got, walk), format_ratexpr(expr)
        assert got.n_states == minimize(walk).n_states, format_ratexpr(expr)
        assert all(a > 0 for _, a, _ in got.transitions()), format_ratexpr(expr)


def _mixed_sign_tree(rng, depth: int):
    if depth == 0 or rng.random() < 0.25:
        words = set()
        for _ in range(rng.randint(1, 3)):
            letters: list[int] = []
            for _ in range(rng.randint(0, 3)):
                a = rng.choice((1, -1, 2, -2))
                if not letters or a != -letters[-1]:
                    letters.append(a)
            words.add(Word(letters))
        return Finite(words)
    kind = rng.choice(("union", "prod", "star"))
    if kind == "star":
        return Star(_mixed_sign_tree(rng, depth - 1))
    cls = Union if kind == "union" else Product
    return cls(_mixed_sign_tree(rng, depth - 1), _mixed_sign_tree(rng, depth - 1))


def test_no_looping_component_matches_pumping_oracle_on_corpus():
    # a trimmed n-state acceptor has an infinite language exactly when it
    # accepts a string of some length n..2n-1 (pumping on accepting paths)
    rng = random.Random(20261018)
    exprs = list(_refuter_corpus()) + [_mixed_sign_tree(rng, rng.randint(1, 4)) for _ in range(200)]
    verdicts = set()
    for expr in exprs:
        acc = positive_acceptor(expr)
        n = acc.n_states
        infinite = any(len(s) >= n for s in enumerate_accepted(acc, 2 * n - 1))
        assert any(loop_components(acc)[1]) == infinite, format_ratexpr(expr)
        verdicts.add(infinite)
    assert verdicts == {False, True}


def _positive_leaf_tree(rng, depth: int):
    pool = [parse_word(t) for t in ["x1", "x2", "x1 x2", "x2 x1", "x1^2", "x2^2", "x1 x2 x1", "x2 x1^2"]]
    if depth == 0 or rng.random() < 0.25:
        return Finite(rng.sample(pool, rng.randint(1, 2)))
    kind = rng.choice(("union", "prod", "prod", "star") if depth <= 2 else ("union", "prod", "prod"))
    if kind == "star":
        return Star(_positive_leaf_tree(rng, depth - 1))
    cls = Union if kind == "union" else Product
    return cls(_positive_leaf_tree(rng, depth - 1), _positive_leaf_tree(rng, depth - 1))


def _answer(expr, w, refuter, replay=replay_report):
    """(outcome, exact) of a replayed report, or "gave-up"."""
    try:
        report = refuter(expr, w)
    except GaveUp:
        return "gave-up"
    assert replay(json.loads(json.dumps(report.as_json()))), format_ratexpr(expr)
    return report.outcome, report.exact


def test_component_scheme_never_worse_than_standard_forms():
    # The refuter's scheme, read off the components of the minimal
    # positive DFA, against the scheme of the standard form of a
    # positive-leaf expression: every report replays, an exact answer stays
    # exact and an answer stays an answer.  Outcome kinds may move between
    # exact certificates; the moves on this corpus are pinned.
    start = time.perf_counter()
    rng = random.Random(20261019)
    words = [parse_word(t) for t in ("x1^2", "x1^3", "x1^2 x2^2")]
    cases = [(expr, parse_word("x1^2")) for expr in _refuter_corpus() if all(g.is_positive() for g in leaf_words(expr))]
    cases += [(_positive_leaf_tree(rng, rng.randint(2, 4)), rng.choice(words)) for _ in range(200)]
    moved = {}
    for expr, w in cases:
        new = _answer(expr, w, refute)
        old = _answer(expr, w, refute_by_standard_form, replay_sampled)
        assert new != "gave-up" or old == "gave-up", format_ratexpr(expr)
        if old != "gave-up" and old[1]:
            assert new[1], format_ratexpr(expr)
        if new != old:
            moved[format_ratexpr(expr), w] = (old, new)
    # on one input, the standard form's sampled classification leaves a
    # scheme whose witness the set accepts
    assert sorted(moved.values()) == [(("inconsistent-branch", False), ("missing-value", True))], moved
    assert time.perf_counter() - start < 60.0


def test_component_scheme_answers_mixed_sign_trees():
    rng = random.Random(20261020)
    w = parse_word("x1^2")
    for _ in range(200):
        expr = _mixed_sign_tree(rng, rng.randint(1, 4))
        assert _answer(expr, w, refute) != "gave-up", format_ratexpr(expr)


def _refuter_cases():
    """The refuter corpus, 200 positive-leaf trees and 200 mixed-sign trees,
    each with its word, as the tests above draw them."""
    cases = [(expr, parse_word("x1^2")) for expr in _refuter_corpus()]
    rng = random.Random(20261019)
    words = [parse_word(t) for t in ("x1^2", "x1^3", "x1^2 x2^2")]
    cases += [(_positive_leaf_tree(rng, rng.randint(2, 4)), rng.choice(words)) for _ in range(200)]
    rng = random.Random(20261020)
    cases += [(_mixed_sign_tree(rng, rng.randint(1, 4)), parse_word("x1^2")) for _ in range(200)]
    return cases


# the inputs on which first returns of <= 6 letters misclassify a component
SAMPLED_AT_6_DIFFERS = [
    ("(star (fin (x1 x2 x1 x2 x1 x2 x1 x2)))", "x1^2"),
    (
        "(union (prod (prod (prod (fin x2) (fin x1^2 x2^2)) (prod (fin (x1 x2 x1) (x2 x1^2)) (fin x1))) "
        "(prod (prod (fin x2) (fin x2^2)) (fin (x2 x1)))) (prod (prod (star (fin x2 (x1 x2 x1))) (union "
        "(fin (x2 x1) x2^2) (fin x1^2 (x1 x2 x1)))) (prod (prod (fin (x1 x2 x1)) (fin (x2 x1))) (fin x2 "
        "(x1 x2)))))",
        "x1^2",
    ),
    (
        "(prod (union (fin (x2 x1) (x1 x2 x1)) (prod (star (fin x1)) (star (fin (x2 x1) (x2 x1^2))))) "
        "(union (prod (prod (fin x1^2 (x1 x2)) (fin (x1 x2))) (union (fin (x1 x2 x1)) (fin x2^2))) (fin "
        "(x2 x1^2))))",
        "x1^3",
    ),
]


def test_exact_components_match_sampled_loops_once_the_samples_suffice():
    # The report of the exact classification against the refuter that
    # classifies on first returns of <= cap letters: byte-identical at caps
    # 10 and 14, and at cap 6 different only where the sample misses a loop
    # (the sampled answer is the one that moves with the cap).
    start = time.perf_counter()
    differs = {10: [], 14: [], 6: []}
    for expr, w in _refuter_cases():
        exact = json.dumps(refute(expr, w).as_json(), sort_keys=True)
        for cap, out in differs.items():
            sampled = refute_sampled(expr, w, enum_cap=cap)
            assert replay_sampled(json.loads(json.dumps(sampled.as_json())))
            if json.dumps(sampled.as_json(), sort_keys=True) != exact:
                out.append((format_ratexpr(expr), format_word(w)))
    assert differs == {10: [], 14: [], 6: SAMPLED_AT_6_DIFFERS}
    assert time.perf_counter() - start < 30.0


def test_accepted_positive_strings_decompose_under_the_scheme():
    # Soundness of the exact classification: every accepted positive string
    # of <= 12 letters splits into the block pairs of the refuter's scheme,
    # so the witness, which does not, is never accepted.
    start = time.perf_counter()
    schemes = 0
    for expr, w in _refuter_cases():
        acc = positive_acceptor(expr)
        analysis = _analyze(acc, w)
        if isinstance(analysis[0], int):
            continue  # a refuted component: no scheme
        scheme, _ = analysis
        schemes += 1
        for string in enumerate_accepted(acc, 12):
            assert decomposable(Word(string), scheme)[0], (format_ratexpr(expr), string)
    assert schemes >= 300
    assert time.perf_counter() - start < 20.0


# -- criterion 10: abelianized verbal subgroup index ------------------------


def test_c10_abelianized_index_matches_lattice_oracle():
    start = time.perf_counter()
    rng = random.Random(202610)
    for _ in range(100):
        w = _random_word(rng, max_len=8)
        if not w.letters:
            continue
        info = abelianized_verbal(w, 2)
        e = exponent_gcd(w)
        assert info.index == (e * e if e else None)
        vectors = []
        for i in (1, 2):
            for g in (Word([1]), Word([2])):
                images = [g if j == i else IDENTITY for j in (1, 2)]
                vectors.append(exponent_profile(substitute(w, images), 2))
        assert lattice_index(vectors) == info.index
    assert time.perf_counter() - start < 5.0
