import math
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_words import bezout_substitution

from freerat.words import (
    IDENTITY,
    _reduce,
    Word,
    WordClass,
    bezout_coefficients,
    classify,
    cyclic_reduce,
    exponent_gcd,
    exponent_profile,
    format_word,
    generator,
    parse_word,
    root_extract,
    substitute,
)

# -- independent oracles ---------------------------------------------------


def scan_reduce(letters):
    """Repeated-scan reduction: independent of the stack implementation."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


def all_reduced_words(rank, max_len):
    """Every freely reduced word of letter length <= max_len."""
    frontier = [()]
    yield Word()
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for a in range(1, rank + 1):
                for lit in (a, -a):
                    if w and w[-1] == -lit:
                        continue
                    nxt.append(w + (lit,))
        for w in nxt:
            yield Word(w)
        frontier = nxt


letters_st = st.integers(min_value=-3, max_value=3).filter(lambda a: a != 0)
words_st = st.lists(letters_st, max_size=12).map(Word)


# -- frozen examples -------------------------------------------------------


def test_reduce_examples():
    assert Word([1, -1, 2]) == Word([2])
    assert Word([]) == IDENTITY
    # hand reduction, matches the repeated-scan oracle
    assert Word([1, 2, -2, 1]) == parse_word("x1^2")
    assert Word([1, 2, -2, 1]).letters == scan_reduce([1, 2, -2, 1])


def test_mul_inv_pow_examples():
    assert parse_word("x1 x2") * parse_word("x2^-1 x1") == parse_word("x1^2")
    assert parse_word("x1 x2").inv() == parse_word("x2^-1 x1^-1")
    assert parse_word("x1 x2") ** 2 == parse_word("x1 x2 x1 x2")


def test_cyclic_reduce_examples():
    assert cyclic_reduce(parse_word("x2^-1 x1 x2")) == (parse_word("x2"), parse_word("x1"))
    assert cyclic_reduce(parse_word("x1 x2")) == (IDENTITY, parse_word("x1 x2"))
    u = parse_word("x1^-1 x2 x1^2 x2 x1")
    conj, core = cyclic_reduce(u)
    assert conj == parse_word("x1")
    assert core == parse_word("x2 x1^2 x2")
    assert conj.inv() * core * conj == u


def test_exponent_profile_examples():
    w = parse_word("x1^2 x2^4 x1^-1 x2^-1 x1 x2")
    assert exponent_profile(w, 2) == (2, 4)
    assert exponent_gcd(w, 2) == 2
    assert bezout_coefficients(w, 2) == (1, 0)

    c = parse_word("x1 x2 x1^-1 x2^-1")
    assert exponent_profile(c, 2) == (0, 0)
    assert exponent_gcd(c, 2) == 0
    with pytest.raises(ValueError):
        bezout_coefficients(c, 2)

    assert exponent_profile(parse_word("x1"), 2) == (1, 0)
    assert exponent_gcd(parse_word("x1"), 2) == 1

    with pytest.raises(ValueError):
        exponent_profile(parse_word("x3"), 2)


def test_classify_examples():
    assert classify(parse_word("x1 x2 x1^-1 x2^-1")) == WordClass.COMMUTATOR
    assert classify(parse_word("x1^2")) == WordClass.PROPER
    assert classify(parse_word("x1 x2")) == WordClass.IMPROPER
    assert classify(IDENTITY) == WordClass.TRIVIAL


def test_bezout_substitution_examples():
    g = parse_word("x1 x2")
    assert bezout_substitution(parse_word("x1^2"), g, rank=1) == g**2
    w = parse_word("x1^2 x2^4 x1^-1 x2^-1 x1 x2")
    assert bezout_substitution(w, parse_word("x2"), rank=2) == parse_word("x2^2")
    # improper words give back g itself
    assert bezout_substitution(parse_word("x1 x2"), g, rank=2) == g
    with pytest.raises(ValueError):
        bezout_substitution(parse_word("x1 x2 x1^-1 x2^-1"), g, rank=2)


def test_root_extract_examples():
    assert root_extract(parse_word("x1 x2 x1 x2"), 2) == parse_word("x1 x2")
    assert root_extract(parse_word("x1 x2"), 2) is None
    u = parse_word("x2^-1") * parse_word("x1 x2") ** 4 * parse_word("x2")
    h = root_extract(u, 2)
    assert h == parse_word("x2^-1") * parse_word("x1 x2") ** 2 * parse_word("x2")
    assert h**2 == u


# -- properties ------------------------------------------------------------


@given(st.lists(letters_st, max_size=30))
def test_reduce_matches_scan_oracle(raw):
    assert Word(raw).letters == scan_reduce(raw)


@given(words_st, words_st, words_st)
def test_group_laws(u, v, w):
    # Seam products and inverses against reduction of the concatenation;
    # u·(u⁻¹·w) cancels all of u across the seam.
    for x, y in ((u, v), (v, w), (u, u.inv() * w), (u.inv(), u * v)):
        assert (x * y).letters == _reduce(x.letters + y.letters)
    assert u.inv().letters == _reduce(tuple(-a for a in reversed(u.letters)))
    assert (u * v) * w == u * (v * w)
    assert u * u.inv() == IDENTITY
    assert u.inv().inv() == u
    assert (u * v).inv() == v.inv() * u.inv()
    assert len(u * v) <= len(u) + len(v)


@given(words_st, st.integers(min_value=-4, max_value=4))
def test_pow_laws(u, k):
    assert u**0 == IDENTITY
    assert u ** (-k) == (u**k).inv()
    direct = IDENTITY
    for _ in range(abs(k)):
        direct = direct * (u if k >= 0 else u.inv())
    assert u**k == direct


def test_pow_squares_only_while_bits_remain(monkeypatch):
    # one product per set bit of n and one squaring per later bit: u**8
    # takes 4 products, not 5
    u = parse_word("x1 x2^-1")
    powers = {n: u**n for n in range(1, 17)}
    calls = 0
    mul = Word.__mul__

    def counting(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    monkeypatch.setattr(Word, "__mul__", counting)
    for n in range(1, 17):
        calls = 0
        assert u**n == powers[n]
        assert calls == bin(n).count("1") + n.bit_length() - 1, n


@given(words_st)
def test_cyclic_reduce_property(u):
    conj, core = cyclic_reduce(u)
    assert conj.inv() * core * conj == u
    if len(core) >= 2:
        assert core.letters[0] != -core.letters[-1]


@given(words_st, words_st)
def test_profile_additive_under_mul(u, v):
    pu = exponent_profile(u, 3)
    pv = exponent_profile(v, 3)
    puv = exponent_profile(u * v, 3)
    assert puv == tuple(a + b for a, b in zip(pu, pv))


def test_bezout_identity_random():
    rng = random.Random(7)
    found = 0
    while found < 300:
        u = Word([rng.choice([a for a in range(-3, 4) if a]) for _ in range(rng.randint(1, 10))])
        if not u or exponent_gcd(u, 3) == 0:
            continue
        found += 1
        g = Word([rng.choice([a for a in range(-3, 4) if a]) for _ in range(rng.randint(0, 6))])
        e = exponent_gcd(u, 3)
        r = bezout_coefficients(u, 3)
        t = exponent_profile(u, 3)
        assert sum(ri * ti for ri, ti in zip(r, t)) == e
        assert bezout_substitution(u, g, rank=3) == g**e


def test_root_extract_against_brute_force():
    # every word of length <= 5 over two generators, degrees 2 and 3
    candidates = list(all_reduced_words(2, 5))
    for e in (2, 3):
        for u in candidates:
            expected = None
            for h in candidates:
                if h**e == u:
                    expected = h
                    break
            got = root_extract(u, e)
            if expected is None:
                # brute force searched |h| <= 5 >= |u|/e, enough for any root
                assert got is None, (u, e, got)
            else:
                assert got is not None and got**e == u


@given(words_st)
def test_classify_partition(w):
    cls = classify(w)
    e = exponent_gcd(w)
    if not w:
        assert cls == WordClass.TRIVIAL
    elif e == 0:
        assert cls == WordClass.COMMUTATOR
    elif e == 1:
        assert cls == WordClass.IMPROPER
    else:
        assert cls == WordClass.PROPER


@given(words_st)
def test_parse_format_roundtrip(w):
    assert parse_word(format_word(w)) == w


def test_parse_examples():
    assert parse_word("1") == IDENTITY
    assert parse_word("x1^3") == Word([1, 1, 1])
    assert parse_word("x2^-2 x1") == Word([-2, -2, 1])
    assert format_word(Word([1, 1, -2])) == "x1^2 x2^-1"
    assert format_word(IDENTITY) == "1"
    with pytest.raises(ValueError):
        parse_word("y3")


def test_substitute_matches_manual():
    w = parse_word("x1 x2^-1 x1")
    a, b = parse_word("x2"), parse_word("x1 x2")
    assert substitute(w, [a, b]) == a * b.inv() * a


def test_generator_helper():
    assert generator(2) == parse_word("x2")
    with pytest.raises(ValueError):
        generator(0)
