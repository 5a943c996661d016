"""Rational expressions, bounded enumeration, automata, exact membership."""
import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import freerat.automata as automata
from freerat.automata import (
    Acceptor,
    determinize,
    enumerate_accepted,
    equivalent,
    longest_run,
    minimize,
    positive_acceptor,
    reduced_acceptor,
    reverse,
    saturate,
    shortest_accepted,
    text_acceptor,
)
from freerat.ratexpr import (
    EMPTY,
    EPSILON,
    Finite,
    Product,
    RatExpr,
    Star,
    Union,
    complexity,
    _map_leaves,
    conjugate_expr,
    format_ratexpr,
    leaf_words,
    parse_ratexpr,
)
from freerat.words import IDENTITY, Word, generator, parse_word, substitute

from oracle_boolean import (
    complement_reduced,
    difference,
    equivalent_by_difference,
    intersect,
    is_empty,
    positive_walk,
)
from oracle_enum import enumerate_bounded, finite
from oracle_refute import Summand, standard_form
from oracle_saturate import CORPUS as SATURATE_CORPUS, acceptor_to_json
from oracle_signs import positive_universe

x1 = generator(1)
x2 = generator(2)


def hom_image(expr: RatExpr, images) -> RatExpr:
    """Image under the homomorphism sending generator i to images[i-1]."""
    return _map_leaves(expr, lambda w: substitute(w, images))


# -- oracle: naive enumeration without the prefix-join machinery -----------


def naive_enumerate(expr: RatExpr, max_len: int, slack: int) -> set:
    """Plain-loop denotation enumeration, kept deliberately independent of
    the production implementation.  Both sides of the comparison get the
    same working cap so they explore the same unrolling horizon."""
    cap = max_len + slack

    def go(e: RatExpr) -> set:
        if isinstance(e, Finite):
            return {w for w in e.elements if len(w) <= cap}
        if isinstance(e, Union):
            return go(e.left) | go(e.right)
        if isinstance(e, Product):
            return {
                p
                for u in go(e.left)
                for v in go(e.right)
                if len(p := u * v) <= cap
            }
        if isinstance(e, Star):
            base = go(e.inner) - {IDENTITY}
            seen = {IDENTITY}
            frontier = {IDENTITY}
            while frontier:
                grown = {
                    p
                    for u in frontier
                    for v in base
                    if len(p := u * v) <= cap
                }
                frontier = grown - seen
                seen |= grown
            return seen
        raise TypeError(e)

    return {w for w in go(expr) if len(w) <= max_len}


# -- random expression pool -------------------------------------------------

_LEAF_POOL = [
    parse_word(t)
    for t in ["x1", "x2", "x1^-1", "x2^-1", "x1 x2", "x2 x1^-1", "x1^2", "1"]
]


def random_expr(rng: random.Random, depth: int) -> RatExpr:
    if depth == 0 or rng.random() < 0.3:
        k = rng.randint(1, 2)
        return Finite(rng.sample(_LEAF_POOL, k))
    kind = rng.choice(["union", "prod", "star"])
    if kind == "union":
        return Union(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if kind == "prod":
        return Product(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    return Star(random_expr(rng, depth - 1))


# depth <= 2 keeps nested-star languages desk-sized
EXPR_SAMPLES = [random_expr(random.Random(1000 + i), 2) for i in range(30)]
# single-word leaves admit deeper structure without language blowup
EXPR_DEEP = [
    Star(Product(Star(finite("x1 x2")), finite("x2^-1"))),
    Product(Star(finite("x1^2")), Union(finite("x2"), Star(finite("x2 x1")))),
    Star(Union(finite("x1 x2"), finite("x2^-1 x1"))),
]


# -- complexity -------------------------------------------------------------


def test_complexity_frozen_examples():
    assert complexity(finite("x1")) == 0
    assert complexity(Star(finite("x1"))) == 1
    assert complexity(Product(Star(finite("x1")), Star(finite("x2")))) == 2


def test_complexity_structural():
    e = Union(Star(finite("x1")), finite("x2"))
    assert complexity(e) == 2
    assert complexity(Star(e)) == 3
    assert complexity(EMPTY) == 0 and complexity(EPSILON) == 0


# -- bounded enumeration ----------------------------------------------------


def test_enumerate_frozen_examples():
    assert enumerate_bounded(Star(finite("x1")), 3) == {
        IDENTITY,
        x1,
        x1**2,
        x1**3,
    }
    assert enumerate_bounded(Product(finite("x1"), finite("x1^-1")), 5) == {IDENTITY}
    got = enumerate_bounded(Union(finite("x2"), Star(finite("x1 x2"))), 4)
    assert got == {x2, IDENTITY, x1 * x2, x1 * x2 * x1 * x2}


def test_enumerate_cancelling_product():
    # both factors overshoot the cap before cancelling back under it
    e = Product(finite("x1 x2 x1"), finite("x1^-1 x2^-1 x1"))
    assert enumerate_bounded(e, 2) == {x1 * x1}


def test_enumerate_matches_naive_oracle():
    for expr in EXPR_SAMPLES + EXPR_DEEP:
        assert enumerate_bounded(expr, 4, slack=4) == naive_enumerate(
            expr, 4, slack=4
        ), format_ratexpr(expr)


def test_enumerate_star_identity_always_present():
    for expr in EXPR_SAMPLES[:10]:
        assert IDENTITY in enumerate_bounded(Star(expr), 0, slack=4)


# -- conjugation and homomorphic images ------------------------------------


def test_conjugate_frozen_examples():
    c = conjugate_expr(finite("x1"), x2)
    assert isinstance(c, Finite) and c.elements == {x2.inv() * x1 * x2}
    assert complexity(c) == 0
    s = conjugate_expr(Star(finite("x1")), x2)
    assert isinstance(s, Star) and complexity(s) == 1


def test_conjugate_preserves_complexity_and_denotation():
    g = x2
    for expr in EXPR_SAMPLES[:12]:
        conj = conjugate_expr(expr, g)
        assert complexity(conj) == complexity(expr)
        inner = enumerate_bounded(expr, 3, slack=4)
        outer = enumerate_bounded(conj, 3 + 2 * len(g), slack=4)
        assert {g.inv() * w * g for w in inner} <= outer


def test_hom_image_frozen_examples():
    e = Finite([parse_word("x1 x3 x2")])
    img = hom_image(e, [x1, x2, IDENTITY])
    assert isinstance(img, Finite) and img.elements == {x1 * x2}
    e2 = Union(finite("x1"), Star(finite("x2")))
    assert hom_image(e2, [x1, x2]) == e2


def test_hom_image_commutes_with_enumeration():
    images = [x1, x1 * x2]
    for expr in EXPR_SAMPLES[:10]:
        img = hom_image(expr, images)
        assert complexity(img) <= complexity(expr)
        for w in sorted(enumerate_bounded(expr, 3, slack=4))[:8]:
            assert reduced_acceptor(img).accepts_word(substitute(w, images))


# -- standard form ----------------------------------------------------------


def test_standard_form_frozen_shapes():
    e_star = Star(finite("x1 x2"))
    sf = standard_form(e_star)
    assert len(sf.summands) == 1
    (s,) = sf.summands
    assert s.coefficients == (IDENTITY, IDENTITY)
    assert s.stars == (finite("x1 x2"),)

    prod = Product(Finite([x1, x2]), e_star)
    sf2 = standard_form(prod)
    assert len(sf2.summands) == 2
    assert {s.coefficients[0] for s in sf2.summands} == {x1, x2}
    for s in sf2.summands:
        assert s.stars == (finite("x1 x2"),)
        assert s.coefficients[1] == IDENTITY

    crossed = standard_form(
        Product(Union(finite("x1"), finite("x2")), Union(finite("x1"), finite("x2")))
    )
    assert len(crossed.summands) == 4
    assert {s.coefficients[0] for s in crossed.summands} == {
        x1 * x1,
        x1 * x2,
        x2 * x1,
        x2 * x2,
    }


def test_standard_form_preserves_denotation():
    for expr in EXPR_SAMPLES[:15] + EXPR_DEEP:
        sf = standard_form(expr)
        assert enumerate_bounded(sf.as_expr(), 4, slack=4) == enumerate_bounded(
            expr, 4, slack=4
        )


def test_summand_shape_validation():
    with pytest.raises(ValueError):
        Summand((IDENTITY,), (finite("x1"),))


# -- minimization -------------------------------------------------------------


def _distinguishing_string(acc: Acceptor, p: int, q: int):
    """A shortest string accepted from exactly one of the states p and q
    of a DFA, by breadth-first search over pairs of states (0 = stuck)."""
    seen = {(1 << p, 1 << q)}
    layer = [((1 << p, 1 << q), ())]
    while layer:
        nxt = []
        for (a, b), string in layer:
            if bool(a & acc.finals) != bool(b & acc.finals):
                return string
            for letter in sorted(acc.letters):
                pair = (acc.step(a, letter), acc.step(b, letter))
                if pair not in seen:
                    seen.add(pair)
                    nxt.append((pair, string + (letter,)))
        layer = nxt
    return None


def _accepts_from(acc: Acceptor, state: int, string) -> bool:
    return Acceptor(acc.alphabet, acc.table, 1 << state, acc.finals).accepts(string)


def test_minimize_is_equivalent_with_pairwise_distinct_states():
    for expr in EXPR_SAMPLES + EXPR_DEEP:
        for dfa in (reduced_acceptor(expr), positive_walk(expr)):
            small = minimize(dfa)
            # the reference shares no code with minimize; equivalent does
            assert equivalent_by_difference(small, dfa), format_ratexpr(expr)
            assert small.n_states <= dfa.n_states
            for p, q in itertools.combinations(range(small.n_states), 2):
                string = _distinguishing_string(small, p, q)
                assert string is not None, (format_ratexpr(expr), p, q)
                assert _accepts_from(small, p, string) != _accepts_from(small, q, string)
            # every state is reachable from the initial one and live
            for s in range(small.n_states):
                assert shortest_accepted(Acceptor(small.alphabet, small.table, small.initial, 1 << s)) is not None
                assert shortest_accepted(Acceptor(small.alphabet, small.table, 1 << s, small.finals)) is not None


def test_minimize_numbers_states_by_the_language_alone():
    # the same language from different expressions gives the same table
    evens = Star(finite("x1^2"))
    spelled = Union(EPSILON, Product(finite("x1 x1"), Star(Union(finite("x1^2"), finite("x1^4")))))
    a, b = minimize(reduced_acceptor(evens)), minimize(reduced_acceptor(spelled))
    assert (a.table, a.initial, a.finals) == (b.table, b.initial, b.finals)
    assert a.n_states == 2
    # breadth-first from the initial state: x1 before x2
    c = positive_acceptor(Union(finite("x2 x2"), finite("x1")))
    assert c.initial == 1
    assert c.step(1, 1) == 1 << 1 and c.step(1, 2) == 1 << 2
    assert minimize(c).table == c.table


def test_minimize_of_the_empty_language_has_no_states():
    for expr in (EMPTY, finite("x1^-1"), Product(finite("x1"), finite("x1^-1 x2^-1"))):
        small = minimize(positive_walk(expr))
        assert (small.n_states, small.initial, small.finals) == (0, 0, 0)
        assert is_empty(small)
        assert positive_acceptor(expr).table == small.table


# -- saturation and membership ---------------------------------------------


def strings(acc: Acceptor, max_len: int) -> set:
    return set(enumerate_accepted(acc, max_len))


def test_saturate_frozen_examples():
    acc = saturate(finite("x1"))
    assert acc.n_states == 2 and len(list(acc.transitions())) == 1

    cancel = reduced_acceptor(Product(finite("x1"), finite("x1^-1")))
    assert strings(cancel, 4) == {()}

    loop = reduced_acceptor(Star(finite("x1 x2")))
    assert strings(loop, 6) == {(), (1, 2), (1, 2, 1, 2), (1, 2, 1, 2, 1, 2)}


def test_determinize_drops_strings_that_are_not_reduced():
    # 0 --x1--> 1 --x1^-1--> 2, finals 1 and 2: the NFA accepts x1 and x1 x1^-1
    alphabet = frozenset((1, -1, 2, -2))
    edges = {(0, 1): 1, (1, -1): 2}
    table = [tuple(1 << edges[p, a] if (p, a) in edges else 0 for a in alphabet) for p in range(3)]
    nfa = Acceptor(alphabet, table, 1, 0b110)
    assert strings(nfa, 4) == {(1,), (1, -1)}
    assert strings(determinize(nfa), 4) == {(1,)}


def test_enumerate_accepted_expands_only_live_prefixes(monkeypatch):
    # the complete DFA of {x1 x2} has a dead state; of the prefixes only
    # (), x1 and x1 x2 reach a live state, so only they are stepped
    dfa = reduced_acceptor(finite("x1 x2"))
    calls = 0
    successors = Acceptor.successors

    def counting(self, states):
        nonlocal calls
        calls += 1
        return successors(self, states)

    monkeypatch.setattr(Acceptor, "successors", counting)
    assert list(enumerate_accepted(dfa, 8)) == [(1, 2)]
    assert calls == 3


def test_enumerate_accepted_stops_when_no_prefix_is_left():
    # a finite language: the layers run out long before the length cap
    dfa = reduced_acceptor(finite("x1", "x2 x1"))
    assert list(enumerate_accepted(dfa, 10**9)) == [(1,), (2, 1)]


def test_reverse_accepts_exactly_the_reversed_strings():
    for expr in SATURATE_CORPUS:
        dfa = reduced_acceptor(expr)
        assert strings(reverse(dfa), 6) == {s[::-1] for s in strings(dfa, 6)}, format_ratexpr(expr)


def test_longest_run_on_a_chain_and_on_a_loop():
    # the complete DFA's dead state loops on every letter; it is not live
    chain = reduced_acceptor(finite("x1^3 x2", "x1^5 x2^-1", "x2"))
    assert longest_run(chain, chain.initial, 1) == 5
    assert longest_run(chain, chain.initial, -1) == 0
    assert longest_run(chain, chain.step(chain.initial, 1), 1) == 4
    loop = reduced_acceptor(Product(finite("x2"), Star(finite("x1"))))
    assert longest_run(loop, loop.initial, 1) == 0
    assert longest_run(loop, loop.step(loop.initial, 2), 1) is None
    # the reversed acceptor is an NFA; runs read its state sets
    assert longest_run(reverse(chain), reverse(chain).initial, 1) == 0
    assert longest_run(reverse(loop), reverse(loop).initial, 1) is None


def test_reduced_acceptor_accepts_only_reduced_strings():
    for expr in EXPR_SAMPLES[:15]:
        dfa = reduced_acceptor(expr)
        for s in strings(dfa, 5):
            assert Word(s).letters == s  # already reduced
        # the Benois NFA may accept unreduced strings, but only of members
        for s in strings(saturate(expr), 5):
            assert dfa.accepts_word(Word(s))


def test_member_frozen_examples():
    assert reduced_acceptor(Star(finite("x1 x2"))).accepts_word(IDENTITY)
    assert reduced_acceptor(Star(finite("x1"))).accepts_word(IDENTITY)
    assert not reduced_acceptor(Star(finite("x1"))).accepts_word(x2)


def test_member_matches_enumeration_oracle():
    rng = random.Random(7)
    probes = [
        Word(tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 4))))
        for _ in range(30)
    ]
    for expr in EXPR_SAMPLES[:20]:
        denoted = enumerate_bounded(expr, 4, slack=8)
        for w in sorted(denoted)[:8]:
            assert reduced_acceptor(expr).accepts_word(w), (format_ratexpr(expr), w)
        for w in probes:
            if len(w) <= 4:
                assert reduced_acceptor(expr).accepts_word(w) == (w in denoted), (format_ratexpr(expr), w)


# -- Boolean operations -----------------------------------------------------


def test_intersection_with_complement_is_empty():
    for expr in EXPR_SAMPLES[:10]:
        acc = reduced_acceptor(expr)
        assert is_empty(intersect(acc, complement_reduced(acc)))


def test_complement_within_reduced_strings():
    acc = reduced_acceptor(Star(finite("x1")))
    comp = complement_reduced(acc)
    assert not comp.accepts((1,))
    assert comp.accepts((2,))
    assert comp.accepts((1, 2))
    assert not comp.accepts(())  # identity is x1^0
    # complements stay inside the reduced universe
    assert not comp.accepts((1, -1))


def test_de_morgan_extensionally():
    a = reduced_acceptor(Star(finite("x1")))
    b = reduced_acceptor(Union(finite("x1"), finite("x2")))
    lhs = complement_reduced(intersect(a, b))
    letters = sorted(a.alphabet)
    reduced = (s for n in range(5) for s in itertools.product(letters, repeat=n) if Word(s).letters == s)
    for s in reduced:
        assert lhs.accepts(s) == (not (a.accepts(s) and b.accepts(s)))


def test_difference_and_equivalence():
    star_x1 = reduced_acceptor(Star(finite("x1")))
    sub = reduced_acceptor(Union(EPSILON, finite("x1")))
    diff = difference(star_x1, sub)
    assert strings(diff, 3) == {(1, 1), (1, 1, 1)}
    assert not equivalent(star_x1, sub)
    assert equivalent(
        reduced_acceptor(Star(finite("x1 x1^-1"))), reduced_acceptor(EPSILON)
    )
    assert shortest_accepted(difference(star_x1, star_x1)) is None


def test_positive_universe_intersection():
    acc = intersect(reduced_acceptor(Star(finite("x1"))), positive_universe())
    assert strings(acc, 3) == {(), (1,), (1, 1), (1, 1, 1)}


def _equivalence_pairs():
    """Pairs of expressions, equal in language or not: each of a pool of
    expressions against its same-language rewrites, against itself with
    one short word added, and against the next one in the pool."""
    rng = random.Random(1414)
    pool = list(SATURATE_CORPUS)
    pool += [random_expr(rng, rng.randint(1, 3)) for _ in range(400)]
    words = [parse_word(t) for t in ("1", "x1", "x2^-1", "x1 x2", "x2 x1^-1")]
    pairs = []
    for e, other in zip(pool, pool[1:] + pool[:1]):
        pairs += [
            (e, Union(e, e)),
            (e, Product(e, EPSILON)),
            (Product(Star(e), Star(e)), Star(e)),
            (e, Union(e, Finite([rng.choice(words)]))),
            (e, other),
        ]
    # leaves over x3 that cancel: a rank-3 alphabet against a rank-2 one
    pairs += [
        (Product(finite("x1 x3"), finite("x3^-1 x2")), finite("x1 x2")),
        (Product(Star(finite("x3")), finite("x3^-1")), Union(finite("x3^-1"), Star(finite("x3")))),
        (Product(finite("x3"), finite("x3^-1")), EPSILON),
        (Product(finite("x3"), finite("x3^-1 x1")), finite("x1", "x2")),
    ]
    # the empty language
    pairs += [
        (EMPTY, EMPTY),
        (EMPTY, Product(Star(finite("x1")), EMPTY)),
        (EMPTY, EPSILON),
        (Star(EMPTY), EPSILON),
        (finite("x1"), Union(EMPTY, finite("x1"))),
    ]
    return pairs


def test_equivalent_matches_the_difference_search():
    outcomes = []
    for a, b in _equivalence_pairs():
        dfa_a, dfa_b = reduced_acceptor(a), reduced_acceptor(b)
        got = equivalent(dfa_a, dfa_b)
        assert got == equivalent_by_difference(dfa_a, dfa_b), (format_ratexpr(a), format_ratexpr(b))
        outcomes.append(got)
    assert len(outcomes) >= 2000
    assert outcomes.count(True) >= 1000 and outcomes.count(False) >= 300


# -- positive intersection over F2 -----------------------------------------


def test_positive_acceptor_frozen_examples():
    got = positive_acceptor(Finite([x1, x1.inv()]))
    assert strings(got, 3) == {(1,)}

    only_identity = positive_acceptor(Star(finite("x1 x2^-1")))
    assert strings(only_identity, 4) == {()}

    everything = positive_acceptor(Star(Finite([x1, x2])))
    found = strings(everything, 4)
    assert found == {
        s for n in range(5) for s in itertools.product((1, 2), repeat=n)
    }


def test_positive_acceptor_rejects_higher_rank():
    with pytest.raises(ValueError, match="positive intersection is defined over F2"):
        positive_acceptor(finite("x3"))


# -- acceptor JSON export ---------------------------------------------------


def test_acceptor_json_shape():
    blob = acceptor_to_json(reduced_acceptor(finite("x1")))
    assert set(blob) == {"alphabet", "states", "initial", "terminals", "transitions"}
    assert blob == acceptor_to_json(reduced_acceptor(finite("x1")))


# -- the acceptor cache ------------------------------------------------------
# Keyed on format_ratexpr, which parse_ratexpr inverts
# (test_format_roundtrip_random), so equal keys mean equal trees.


def test_acceptor_cache_info_fields():
    info = reduced_acceptor.cache_info()
    assert info.maxsize == 512
    assert 0 <= info.currsize <= info.maxsize
    reduced_acceptor(finite("x1^5 x2^-3"))
    after = reduced_acceptor.cache_info()
    assert after.hits + after.misses == info.hits + info.misses + 1


def test_acceptor_cache_keeps_no_tree():
    expr = parse_ratexpr("(star (union (fin (x1^7 x2^-5)) (fin (x2^4 x1^-6))))")
    ref = weakref.ref(expr)
    reduced_acceptor(expr)
    del expr
    gc.collect()
    assert ref() is None


def test_acceptor_cache_hits_on_a_fresh_parse():
    text = "(prod (star (fin (x1^3 x2))) (fin x2^-7))"
    dfa = reduced_acceptor(parse_ratexpr(text))
    before = reduced_acceptor.cache_info()
    assert reduced_acceptor(parse_ratexpr(text)) is dfa
    after = reduced_acceptor.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_acceptor_cache_evicts_least_recently_used():
    oldest = finite("x1^9 x2^9")
    recent = finite("x2^9 x1^9")
    reduced_acceptor(oldest)
    dfa = reduced_acceptor(recent)
    fresh = [finite(f"x1^{k} x2^-1") for k in range(100, 612)]
    for expr in fresh[:510]:
        reduced_acceptor(expr)
    assert reduced_acceptor(recent) is dfa  # now the most recent
    for expr in fresh[510:]:
        reduced_acceptor(expr)
    before = reduced_acceptor.cache_info()
    assert before.currsize == 512
    assert reduced_acceptor(recent) is dfa
    reduced_acceptor(oldest)
    after = reduced_acceptor.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses + 1)


def test_text_acceptor_counts_as_the_parse_path(monkeypatch):
    # canonical, respaced, reordered, repeated and positive-keyed texts
    texts = [
        "(star (fin x1^3 x2))",
        " (star  (fin x2 x1^3))\n",
        "(star (fin x1^3 x2))",
        "(prod (fin x2^-3) (union (fin x1) (fin)))",
        "(prod (fin x2^-3)\n(union (fin x1) (fin)))",
        "(fin x2^-3)",
        "(fin x2^-3)",
    ]

    def parse_path(text):
        expr = parse_ratexpr(text)
        return format_ratexpr(expr), reduced_acceptor(expr)

    runs = []
    for ask in (parse_path, text_acceptor):
        monkeypatch.setattr(automata, "_acceptors", {})
        positive_acceptor(parse_ratexpr("(fin x2^-3)"))
        before = reduced_acceptor.cache_info()
        answers = [ask(text) for text in texts]
        after = reduced_acceptor.cache_info()
        runs.append((
            [(key, dfa.table, dfa.finals) for key, dfa in answers],
            after.hits - before.hits,
            after.misses - before.misses,
            list(automata._acceptors),
        ))
    assert runs[0] == runs[1]
    assert runs[1][1:3] == (4, 3)


def test_positive_acceptor_has_its_own_cache_entry():
    # one expression text keys two DFAs, the reduced one and its positive part
    expr = parse_ratexpr("(star (fin (x1^13 x2^-1) (x2 x1^13)))")
    before = reduced_acceptor.cache_info()
    positive, reduced = positive_acceptor(expr), reduced_acceptor(expr)
    assert positive is not reduced
    assert positive_acceptor(expr) is positive and reduced_acceptor(expr) is reduced
    after = reduced_acceptor.cache_info()
    assert (after.misses, after.hits) == (before.misses + 2, before.hits + 2)


# -- s-expression text form -------------------------------------------------


def test_parse_format_frozen():
    e = parse_ratexpr("(union (fin x2) (star (fin (x1 x2))))")
    assert e == Union(finite("x2"), Star(finite("x1 x2")))
    assert parse_ratexpr(format_ratexpr(e)) == e
    assert parse_ratexpr("(fin)") == EMPTY
    assert parse_ratexpr("(fin 1)") == EPSILON


def test_parse_errors():
    for bad in ["(fin x1", "(star)", "(union (fin x1))", "(mystery (fin x1))", "x1"]:
        with pytest.raises(ValueError):
            parse_ratexpr(bad)


def test_format_roundtrip_random():
    for expr in EXPR_SAMPLES:
        assert parse_ratexpr(format_ratexpr(expr)) == expr


# -- hypothesis properties --------------------------------------------------

word_strategy = st.builds(
    Word,
    st.lists(st.sampled_from([1, -1, 2, -2]), max_size=2).map(tuple),
)


@st.composite
def expr_strategy(draw, depth=2):
    if depth == 0:
        words = draw(st.lists(word_strategy, min_size=1, max_size=2))
        return Finite(words)
    kind = draw(st.sampled_from(["fin", "union", "prod", "star"]))
    if kind == "fin":
        words = draw(st.lists(word_strategy, min_size=1, max_size=2))
        return Finite(words)
    if kind == "union":
        return Union(draw(expr_strategy(depth=depth - 1)), draw(expr_strategy(depth=depth - 1)))
    if kind == "prod":
        return Product(draw(expr_strategy(depth=depth - 1)), draw(expr_strategy(depth=depth - 1)))
    return Star(draw(expr_strategy(depth=depth - 1)))


@settings(max_examples=25, deadline=None)
@given(expr_strategy())
def test_enumeration_monotone_in_cap(expr):
    small = enumerate_bounded(expr, 3, slack=4)
    large = enumerate_bounded(expr, 5, slack=4)
    assert small <= large
    assert all(len(w) <= 3 for w in small)


@settings(max_examples=25, deadline=None)
@given(expr_strategy(), word_strategy)
def test_member_agrees_with_oracle_property(expr, w):
    if len(w) <= 3:
        assert reduced_acceptor(expr).accepts_word(w) == (w in enumerate_bounded(expr, 3, slack=8))
