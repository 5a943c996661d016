import random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracle_freeprod import core_decompose, cyclic_form_by_peeling
from oracle_signs import reversal

from freerat.freeprod import (
    FREE_ZZ,
    FPElement,
    FreeProduct,
    cyclic_form,
    format_fp,
    from_f2,
    parse_fp,
    support,
    to_f2,
)
from freerat.words import Word, parse_word


def cyclic_equal(u: FPElement, v: FPElement) -> bool:
    """Equality of cyclic forms as cyclic words (up to rotation)."""
    cu, cv = cyclic_form(u), cyclic_form(v)
    if len(cu) != len(cv):
        return False
    n = len(cu)
    return any(cu.syllables[r:] + cu.syllables[:r] == cv.syllables for r in range(max(n, 1)))


# -- independent oracle ----------------------------------------------------


def naive_normalize(group, syllables):
    """Repeated pairwise merging, independent of the stack implementation."""
    out = list(syllables)
    changed = True
    while changed:
        changed = False
        for i, (f, k) in enumerate(out):
            if group.factors[f].canon(k) == 0:
                del out[i]
                changed = True
                break
            if i + 1 < len(out) and out[i + 1][0] == f:
                merged = group.factors[f].canon(k + out[i + 1][1])
                out[i : i + 2] = [(f, merged)]
                changed = True
                break
    return tuple((f, group.factors[f].canon(k)) for f, k in out)


GROUPS = [FreeProduct(), FreeProduct(a=2), FreeProduct(a=4, b=6)]

syllables_st = st.lists(
    st.tuples(st.sampled_from(["a", "b"]), st.integers(min_value=-4, max_value=4)),
    max_size=10,
)


def elements_st(group):
    return syllables_st.map(lambda s: group.element(s))


# -- frozen examples -------------------------------------------------------


def test_normalize_examples():
    G = FreeProduct()
    assert G.element([("a", 2), ("a", 3)]).syllables == (("a", 5),)
    assert G.element([("a", 1), ("b", 1), ("b", -1), ("a", -1)]) == G.identity
    H = FreeProduct(a=2)
    u = H.element([("a", 1), ("b", 3), ("a", 1)])
    v = H.element([("a", 1), ("b", -3), ("a", 1)])
    assert u * v == H.identity
    assert naive_normalize(H, u.syllables + v.syllables) == ()


def test_product_cascades_across_the_seam():
    H = FreeProduct(a=2)
    u = H.element([("b", 1), ("a", 1), ("b", 2), ("a", 1), ("b", -1)])
    v = H.element([("b", 1), ("a", 1), ("b", -2), ("a", 1), ("b", 3)])
    # b⁻¹·b, a·a (mod 2) and b²·b⁻² cancel, a·a cancels, then b·b³ merges
    assert (u * v).syllables == (("b", 4),)
    assert (u * v).syllables == naive_normalize(H, u.syllables + v.syllables)
    K = FreeProduct(a=4, b=6)
    u = K.element([("a", 1), ("b", 5), ("a", 3)])
    v = K.element([("a", 1), ("b", 1), ("a", 1)])
    # a³·a is the identity mod 4 and b⁵·b mod 6, leaving a·a = a²
    assert (u * v).syllables == (("a", 2),)
    assert u.inv().syllables == (("a", 1), ("b", 1), ("a", 3))


def test_length_support_examples():
    G = FreeProduct()
    u = G.element([("a", 1), ("b", 2), ("a", 1)])
    assert len(u) == 3
    assert support(u) == frozenset({("a", 1), ("b", 2)})
    assert len(G.identity) == 0
    assert support(G.identity) == frozenset()
    v = G.element([("b", 1), ("a", 3), ("b", 1), ("a", 3)])
    assert len(v) == 4
    assert support(v) == frozenset({("b", 1), ("a", 3)})


def test_core_decompose_examples():
    G = FreeProduct()
    d = core_decompose(G.element([("b", -1), ("a", 1), ("b", 1)]))
    assert d.conjugator_syllables == (("b", 1),)
    assert d.core == G.element([("a", 1)])

    d = core_decompose(G.element([("a", 1), ("b", 1)]))
    assert d.conjugator_syllables == ()
    assert d.core == G.element([("a", 1), ("b", 1)])

    u = G.element([("b", -2), ("a", -1), ("b", 1), ("a", 1), ("b", 2)])
    d = core_decompose(u)
    assert d.core == G.element([("b", 1)])
    assert d.conjugator_syllables == (("a", 1), ("b", 2))
    assert d.reassemble() == u

    with pytest.raises(ValueError):
        core_decompose(G.identity)


def test_cyclic_form_examples():
    G = FreeProduct()
    assert cyclic_form(G.element([("a", 1), ("b", 1)])) == G.element([("a", 1), ("b", 1)])
    assert cyclic_form(G.element([("a", 1), ("b", 1), ("a", 2)])) == G.element(
        [("b", 1), ("a", 3)]
    )
    assert cyclic_form(G.element([("a", 5)])) == G.element([("a", 5)])
    with pytest.raises(ValueError):
        cyclic_form(G.identity)


@pytest.mark.parametrize("group", GROUPS)
def test_cyclic_form_matches_the_peeling_oracle(group):
    rng = random.Random(19)

    def rand(n):
        return group.element([(rng.choice("ab"), rng.randint(-4, 4)) for _ in range(rng.randint(0, n))])

    peeled = merged = 0
    for _ in range(1000):
        g = rand(4)
        for u in (rand(8), g.inv() * rand(6) * g):
            if not u:
                continue
            got = cyclic_form(u)
            assert got == cyclic_form_by_peeling(u), u
            assert got.syllables == group.element(got.syllables).syllables  # a normal form
            core = core_decompose(u).core
            peeled += core != u
            merged += len(got) < len(core)
    assert peeled >= 200 and merged >= 200


def test_from_to_f2_examples():
    assert from_f2(parse_word("x1^2 x2^-1")).syllables == (("a", 2), ("b", -1))
    assert from_f2(Word()) == FREE_ZZ.identity
    assert to_f2(FREE_ZZ.identity) == Word()
    with pytest.raises(ValueError):
        from_f2(parse_word("x3"))


def test_parse_format():
    G = FreeProduct()
    u = parse_fp("a^2 b^-1 a", G)
    assert u.syllables == (("a", 2), ("b", -1), ("a", 1))
    assert format_fp(u) == "a^2 b^-1 a"
    assert parse_fp("1", G) == G.identity
    assert format_fp(G.identity) == "1"
    with pytest.raises(ValueError):
        parse_fp("c^2", G)


# -- properties ------------------------------------------------------------


@pytest.mark.parametrize("group", GROUPS)
def test_normalize_matches_naive_oracle(group):
    rng = random.Random(11)
    for _ in range(500):
        raw = [
            (rng.choice("ab"), rng.randint(-4, 4))
            for _ in range(rng.randint(0, 10))
        ]
        assert group.element(raw).syllables == naive_normalize(group, raw)


@pytest.mark.parametrize("group", GROUPS)
def test_group_laws(group):
    rng = random.Random(13)

    def rand():
        return group.element(
            [(rng.choice("ab"), rng.randint(-4, 4)) for _ in range(rng.randint(0, 8))]
        )

    def inverse_syllables(u):
        return tuple((f, -k) for f, k in reversed(u.syllables))

    for _ in range(400):
        u, v, w = rand(), rand(), rand()
        # Seam products and inverses against the naive oracle; u⁻¹·w makes
        # the product u·(u⁻¹·w) cancel all of u, merge after merge.
        for x, y in ((u, v), (v, w), (u, u.inv() * w), (u.inv(), u * v)):
            assert (x * y).syllables == naive_normalize(group, x.syllables + y.syllables)
        assert u.inv().syllables == naive_normalize(group, inverse_syllables(u))
        assert (u * v) * w == u * (v * w)
        assert u * u.inv() == group.identity
        assert u.inv().inv() == u
        assert len(u * v) <= len(u) + len(v)
        assert u**3 == u * u * u
        assert u**-2 == (u * u).inv()


def test_pow_squares_only_while_bits_remain(monkeypatch):
    # one product per set bit of n and one squaring per later bit: u**8
    # takes 4 products, not 5
    u = GROUPS[2].element([("a", 1), ("b", 2)])
    powers = {n: u**n for n in range(1, 17)}
    calls = 0
    mul = FPElement.__mul__

    def counting(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    monkeypatch.setattr(FPElement, "__mul__", counting)
    for n in range(1, 17):
        calls = 0
        assert u**n == powers[n]
        assert calls == bin(n).count("1") + n.bit_length() - 1, n


@given(syllables_st)
def test_normalize_idempotent(raw):
    G = GROUPS[2]
    u = G.element(raw)
    assert G.element(u.syllables) == u


@given(syllables_st)
def test_core_reassembly(raw):
    for group in GROUPS:
        u = group.element(raw)
        if not u:
            continue
        d = core_decompose(u)
        assert d.reassemble() == u
        core = d.core.syllables
        if len(core) >= 2 and core[0][0] == core[-1][0]:
            assert group.factors[core[0][0]].canon(core[0][1] + core[-1][1]) != 0


@given(syllables_st, syllables_st)
def test_cyclic_form_conjugation_invariant(raw, raw_g):
    for group in GROUPS:
        u = group.element(raw)
        g = group.element(raw_g)
        if not u or not g.inv() * u * g:
            continue
        assert cyclic_equal(u, g.inv() * u * g)


@given(st.lists(st.integers(min_value=-2, max_value=2).filter(bool), max_size=10))
def test_f2_roundtrip_and_homomorphism(letters):
    w = Word(letters)
    assert to_f2(from_f2(w)) == w
    v = parse_word("x1 x2^-1")
    assert from_f2(w * v) == from_f2(w) * from_f2(v)


def test_reversal_antihomomorphism():
    G = FreeProduct()
    rng = random.Random(17)
    for _ in range(200):
        u = G.element([(rng.choice("ab"), rng.randint(-3, 3)) for _ in range(6)])
        v = G.element([(rng.choice("ab"), rng.randint(-3, 3)) for _ in range(6)])
        assert reversal(u * v) == reversal(v) * reversal(u)
        assert reversal(reversal(u)) == u
