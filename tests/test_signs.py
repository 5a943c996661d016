"""Sign models and the product split (the reference in ``oracle_signs``),
and positivization of rational sets."""
import random

import pytest
from hypothesis import given, settings, strategies as st
from oracle_boolean import difference
from oracle_enum import finite
from oracle_signs import (
    STANDARD_F2_SIGN,
    NotPositivePair,
    SignModel,
    deepest_negative_by_enumeration,
    first_negative_index,
    is_positive,
    last_negative_index,
    positive_universe,
    positive_witness_by_difference,
    split_product,
    standard_sign,
)

from freerat import signs
from freerat.automata import equivalent, reduced_acceptor
from freerat.freeprod import FreeProduct, FREE_ZZ, from_f2
from freerat.ratexpr import (
    Finite,
    Product,
    Star,
    Union,
    conjugate_expr,
    leaf_words,
)
from freerat.signs import (
    NotPositiveError,
    deepest_negative,
    positive_witness,
    positivize,
)
from freerat.words import IDENTITY, Word, parse_word


SIG = STANDARD_F2_SIGN
G = FREE_ZZ

# ℤ ∗ ℤ/6 with the even residues positive in the finite factor.
MIXED = FreeProduct(None, 6)
MIXED_SIGN = SignModel(MIXED, (("a", None), ("b", frozenset({0, 2, 4}))))


def el(*syllables):
    return G.element(syllables)


def mel(*syllables):
    return MIXED.element(syllables)


# -- sign models -----------------------------------------------------------


def test_sign_model_validation():
    with pytest.raises(ValueError):
        SignModel(G, (("a", frozenset({0})), ("b", None)))  # ℤ takes no rule
    with pytest.raises(ValueError):
        SignModel(MIXED, (("a", None), ("b", None)))  # finite factor needs one
    with pytest.raises(ValueError):
        SignModel(MIXED, (("a", None), ("b", frozenset({2, 4}))))  # no identity
    with pytest.raises(ValueError):
        SignModel(MIXED, (("a", None), ("b", frozenset({0, 1}))))  # 1+1=2 escapes
    assert MIXED_SIGN.rule("b") == frozenset({0, 2, 4})
    std = standard_sign(MIXED)
    assert std.rule("b") == frozenset(range(6))


def test_is_positive_frozen():
    assert is_positive(G.identity, SIG)
    assert is_positive(el(("a", 2), ("b", 1)), SIG)
    assert not is_positive(el(("a", 2), ("b", -1)), SIG)
    assert is_positive(mel(("a", 1), ("b", 2)), MIXED_SIGN)
    assert not is_positive(mel(("a", 1), ("b", 3)), MIXED_SIGN)


def test_is_positive_wrong_group():
    with pytest.raises(ValueError):
        is_positive(mel(("a", 1)), SIG)


def test_fp_is_positive_is_the_standard_sign():
    assert G.identity.is_positive()
    assert el(("a", 2), ("b", 1)).is_positive()
    assert not el(("a", 2), ("b", -1)).is_positive()
    assert mel(("a", 1), ("b", 3)).is_positive()  # every residue of ℤ/6
    assert not mel(("a", -1), ("b", 3)).is_positive()
    rng = random.Random(20261019)
    for group in (G, MIXED, FreeProduct(4, 6)):
        sign = standard_sign(group)
        for _ in range(2000):
            u = _random_any(rng, group, sign, max_syllables=5)
            assert u.is_positive() == is_positive(u, sign)


def _random_positive(rng, group, sign, max_syllables=4):
    fids = list(group.factors)
    out = group.identity
    start = rng.randrange(2)
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


def test_positive_closed_under_product_bulk():
    rng = random.Random(20240811)
    for group, sign in ((G, SIG), (MIXED, MIXED_SIGN)):
        for _ in range(5000):
            f = _random_positive(rng, group, sign)
            g = _random_positive(rng, group, sign)
            assert is_positive(f * g, sign)


def test_int_rule_strongly_reduced_window():
    # two negative exponents never multiply to a positive factor element
    for a in range(-25, 0):
        for b in range(-25, 0):
            assert not SIG.factor_positive("a", a + b)


def test_negative_index_helpers():
    u = el(("a", -1), ("b", 2), ("a", -3), ("b", 1))
    assert first_negative_index(u, SIG) == 1
    assert last_negative_index(u, SIG) == 3
    assert first_negative_index(G.identity, SIG) == 0
    assert last_negative_index(el(("a", 2)), SIG) == 0


# -- the product split -----------------------------------------------------


def _assert_split_contract(S, T, trace, sign):
    u_inv = trace.u.inv()
    for s in S:
        assert is_positive(s * u_inv, sign)
    for t in T:
        assert is_positive(trace.u * t, sign)


def test_split_both_positive_gives_identity():
    S = [el(("a", 1)), el(("b", 2), ("a", 1))]
    T = [el(("b", 3))]
    trace = split_product(S, T, SIG)
    assert trace.u == G.identity
    assert trace.case == "both-positive"
    assert (trace.i0, trace.j0) == (0, 0)


def test_split_single_pair_contract():
    # S·T = {(A,2)} is positive although neither side is
    S = [el(("a", 1), ("b", -2))]
    T = [el(("b", 2), ("a", 1))]
    trace = split_product(S, T, SIG)
    _assert_split_contract(S, T, trace, SIG)
    assert trace.case in {"case-1", "case-2", "mirrored"}


def test_split_precondition_reports_pair():
    with pytest.raises(NotPositivePair) as exc:
        split_product([el(("a", -1))], [el(("b", 1))], SIG)
    s, t = exc.value.witness
    assert not is_positive(s * t, SIG)
    assert str(exc.value) == "S·T has a non-positive product: (a^-1, b)"


def test_split_rejects_empty_sides():
    with pytest.raises(ValueError):
        split_product([], [el(("a", 1))], SIG)
    with pytest.raises(ValueError):
        split_product([el(("a", 1))], [], SIG)


def test_split_case_two_shape():
    # T's deepest negative sits behind the prefix a, which S cancels:
    # (b² a⁻¹)·(a b⁻¹ a) = b a and (b² a⁻¹)·(a b) = b³
    S = [el(("b", 2), ("a", -1))]
    T = [el(("a", 1), ("b", -1), ("a", 1)), el(("a", 1), ("b", 1))]
    trace = split_product(S, T, SIG)
    _assert_split_contract(S, T, trace, SIG)
    assert trace.case == "case-2"
    assert trace.j0 == 2
    assert trace.c == el(("a", 1))


def test_split_mirrored_shape():
    # negatives only on the S side
    S = [el(("a", 2), ("b", -1), ("a", -1))]
    T = [el(("a", 1), ("b", 1))]
    trace = split_product(S, T, SIG)
    _assert_split_contract(S, T, trace, SIG)
    assert trace.case == "mirrored"
    assert trace.i0 > trace.j0


def test_split_case_one_needs_finite_factor():
    # over ℤ∗ℤ/6, residue 1 is non-positive yet 1+1=2 is positive, so the
    # deepest negatives can sit at the same distance on both sides
    S = [mel(("a", 1), ("b", 1))]
    T = [mel(("b", 1), ("a", 1))]
    trace = split_product(S, T, MIXED_SIGN)
    _assert_split_contract(S, T, trace, MIXED_SIGN)
    assert trace.case == "case-1"
    assert trace.i0 == trace.j0 == 1


def _random_any(rng, group, sign, max_syllables=3):
    fids = list(group.factors)
    out = group.identity
    start = rng.randrange(2)
    for k in range(rng.randrange(max_syllables + 1)):
        fid = fids[(start + k) % 2]
        factor = group.factors[fid]
        if factor.modulus is None:
            exp = rng.choice([-3, -2, -1, 1, 2, 3])
        else:
            exp = rng.randrange(1, factor.modulus)
        out = out * group.syllable(fid, exp)
    return out


def _split_instance(rng, group, sign):
    """S ⊆ P₁·x⁻¹ and T ⊆ x·P₂ guarantee every product is positive."""
    x = _random_any(rng, group, sign)
    S = {_random_positive(rng, group, sign) * x.inv() for _ in range(rng.randrange(1, 4))}
    T = {x * _random_positive(rng, group, sign) for _ in range(rng.randrange(1, 4))}
    return S, T


def test_split_random_contract_free_case():
    rng = random.Random(977)
    for _ in range(1000):
        S, T = _split_instance(rng, G, SIG)
        trace = split_product(S, T, SIG)
        _assert_split_contract(S, T, trace, SIG)


def test_split_random_contract_mixed_case():
    rng = random.Random(978)
    for _ in range(300):
        S, T = _split_instance(rng, MIXED, MIXED_SIGN)
        trace = split_product(S, T, MIXED_SIGN)
        _assert_split_contract(S, T, trace, MIXED_SIGN)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_split_contract_property(seed):
    rng = random.Random(seed)
    S, T = _split_instance(rng, G, SIG)
    trace = split_product(S, T, SIG)
    _assert_split_contract(S, T, trace, SIG)


# -- positivity of rational subsets of F2 ----------------------------------


def test_positive_witness_examples():
    assert positive_witness(finite("x1 x2", "x2^2")) is None
    w = positive_witness(finite("x1 x2^-1"))
    assert w == parse_word("x1 x2^-1")
    w = positive_witness(Star(finite("x2^-1 x1 x2")))
    assert w == parse_word("x2^-1 x1 x2")


def _mixed_sign_tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        words = set()
        for _ in range(rng.randint(1, 3)):
            letters = []
            for _ in range(rng.randint(0, 4)):
                a = rng.choice((1, -1, 2, -2))
                if not letters or a != -letters[-1]:
                    letters.append(a)
            words.add(Word(letters))
        return Finite(words)
    kind = rng.choice(("union", "prod", "prod", "star"))
    if kind == "star":
        return Star(_mixed_sign_tree(rng, depth - 1))
    cls = Union if kind == "union" else Product
    return cls(_mixed_sign_tree(rng, depth - 1), _mixed_sign_tree(rng, depth - 1))


def test_positive_witness_matches_the_difference_search_on_mixed_sign_trees():
    rng = random.Random(1313)
    answers = set()
    for _ in range(320):
        expr = _mixed_sign_tree(rng, rng.randint(1, 4))
        got = positive_witness(expr)
        assert got == positive_witness_by_difference(expr), expr
        answers.add(got is None)
    assert answers == {True, False}


def _benchmark_positivize_shapes():
    """Instances of the five positivize shapes of the benchmark:
    (expression, left, right)."""
    rng = random.Random(1317)
    pool = [parse_word(t) for t in ("x1", "x2", "x1 x2", "x2 x1", "x1^2", "x2^2")]
    conj = pool[:4] + [parse_word(t) for t in ("x1^-1", "x2^-1", "x2^-1 x1")]
    out = []
    for _ in range(6):
        g = rng.choice(conj)
        out.append((conjugate_expr(_random_positive_expr(rng, 2), g), g, g.inv()))
        c = rng.choice(conj)
        core = Finite([c.inv() * rng.choice(pool) * c])
        out.append((Product(Product(Finite([c]), Star(core)), Finite([c.inv()])), IDENTITY, IDENTITY))
        m = rng.choice(pool)
        a = Finite([x * m.inv() for x in rng.sample(pool, 2)])
        b = Finite([m * x for x in rng.sample(pool, 2)])
        out.append((Product(a, b), IDENTITY, IDENTITY))
        a = Product(Star(Finite([rng.choice(pool)])), Finite([rng.choice(pool) * m.inv()]))
        b = Product(Finite([m * rng.choice(pool)]), Star(Finite([rng.choice(pool)])))
        out.append((Product(a, b), IDENTITY, IDENTITY))
    for s, c in (("x2", "x1"), ("x2", "x2 x1"), ("x1", "x2"), ("x1", "x1 x2")):
        s, c = parse_word(s), parse_word(c)
        prefix = Word([rng.choice((1, 2)) for _ in range(rng.randint(0, 3))])
        out.append((Star(Finite([c.inv() * s * c])), prefix * c, IDENTITY))
    return out


def test_positive_witness_matches_the_difference_search_inside_positivize(monkeypatch):
    # every positivity question the benchmark's shapes ask on the way
    asked = []

    def checked(expr):
        got = positive_witness(expr)
        assert got == positive_witness_by_difference(expr), expr
        asked.append(got is None)
        return got

    monkeypatch.setattr(signs, "positive_witness", checked)
    cases = {positivize(*shape).trace["case"] for shape in _benchmark_positivize_shapes()}
    assert {"product", "star-conjugated"} <= cases
    assert set(asked) == {True, False}


def _sandwich_expr(left, expr, right):
    out = expr
    if right != IDENTITY:
        out = Product(out, Finite([right]))
    if left != IDENTITY:
        out = Product(Finite([left]), out)
    return out


def _check_positivized(expr, left=IDENTITY, right=IDENTITY):
    result = positivize(expr, left, right)
    target = _sandwich_expr(left, expr, right)
    assert equivalent(reduced_acceptor(result.expr), reduced_acceptor(target))
    assert all(w.is_positive() for w in leaf_words(result.expr))
    return result


def test_positivize_finite_leaf():
    result = positivize(finite("x1^-1 x2"), parse_word("x1"), IDENTITY)
    assert result.expr == finite("x2")


def test_positivize_star_conjugating_sandwich():
    result = positivize(
        Star(finite("x1^-1 x2 x1")), parse_word("x1"), parse_word("x1^-1")
    )
    assert result.expr == Star(finite("x2"))


def test_positivize_product_through_split():
    expr = Product(finite("x1 x2^-1"), finite("x2 x1"))
    result = _check_positivized(expr)
    assert result.trace["case"] == "product"
    assert "middle" in result.trace


def test_positivize_star_negative_base():
    # the star base keeps a negative member; a conjugator must be factored out
    result = _check_positivized(Star(finite("x1^-1 x2 x1")), parse_word("x1"))
    assert result.expr == Product(Star(finite("x2")), finite("x1"))
    assert result.trace["case"] == "star-conjugated"
    assert result.trace["conjugator"] == "x1"


def test_positivize_star_negative_base_deeper():
    # deepest negative element x2^-1 x1^-1 x2 x1 x2 has its last negative
    # syllable in second position; the conjugator is two syllables long
    result = _check_positivized(
        Star(finite("x2^-1 x1^-1 x2 x1 x2")), parse_word("x1 x2")
    )
    assert result.trace["case"] == "star-conjugated"
    assert result.trace["conjugator"] == "x1 x2"


def _bad(base):
    return difference(reduced_acceptor(base), positive_universe())


def _mixed_sign_word(rng):
    while True:
        w = Word(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(2, 5)))
        if any(a > 0 for a in w.letters) and any(a < 0 for a in w.letters):
            return w


def _star_bases():
    # the benchmark's star-conjugated bases c⁻¹·s·c
    conjugated = [("x2", "x1"), ("x2", "x2 x1"), ("x1", "x2"), ("x1", "x1 x2")]
    bases = [Finite([parse_word(c).inv() * parse_word(s) * parse_word(c)]) for s, c in conjugated]
    bases.append(finite("x2^-1 x1^-1 x2 x1 x2"))
    rng = random.Random(1103)
    for _ in range(4):
        bases.append(Finite({_mixed_sign_word(rng) for _ in range(rng.randint(1, 2))}))
    bases.append(Product(finite("x1^-1"), Star(finite("x2 x1^-1"))))
    # prefixes here share state, last letter and negative index but not
    # their syllable count, so the count must stay in the configuration
    bases.append(Product(Star(finite("x1", "x2 x1")), finite("x2^-1", "x1^2")))
    # a positive member shorter than every negative one: below length 3
    # the answer is None
    bases.append(finite("x1", "x2^2 x1^-1"))
    return bases


@pytest.mark.parametrize("base", _star_bases(), ids=str)
def test_deepest_negative_matches_enumeration(base):
    # the search has no window: enumerating up to any window that holds
    # its answer gives the same answer
    acc, bad = reduced_acceptor(base), _bad(base)
    for bound in range(1, 5):
        got = deepest_negative(acc, bound)
        # an answer past the oracle's window would leave nothing to compare
        assert got is None or len(got[1]) <= 10, (bound, got)
        for window in range(0 if got is None else len(got[1]), 11):
            assert got == deepest_negative_by_enumeration(bad, window, bound), (bound, window)


def test_positivize_star_finds_a_negative_member_past_any_window():
    # the only negative members are powers of x2^-1 x1^25 x2, 27 letters
    # and more; the search is bounded by syllables, not by letters
    result = _check_positivized(Star(finite("x2^-1 x1^25 x2")), parse_word("x2"))
    assert result.trace["case"] == "star-conjugated"
    assert result.trace["conjugator"] == "x2"


def test_positivize_union_inside_star():
    expr = Star(Union(finite("x1^-1 x2 x1"), finite("x1^-1 x2^2 x1")))
    result = _check_positivized(expr, parse_word("x1"))
    assert result.expr.complexity <= expr.complexity + 2


def test_positivize_nested_star_complexity_guard():
    expr = Star(Star(finite("x1^-1 x2 x1")))
    result = _check_positivized(expr, parse_word("x1"))
    assert result.expr.complexity <= expr.complexity + 2


def test_positivize_rejects_negative_sandwich():
    with pytest.raises(NotPositiveError) as exc:
        positivize(finite("x1 x2^-1"))
    assert exc.value.witness == parse_word("x1 x2^-1")


def test_positivize_trace_is_json_ready():
    import json

    result = positivize(Star(finite("x1^-1 x2 x1")), parse_word("x1"))
    blob = json.dumps(result.trace, sort_keys=True)
    assert "star-conjugated" in blob
    assert "acceptor_states" in blob


def test_positivize_total_finite_unchanged():
    result = positivize(finite("x1 x2"))
    assert result.expr == finite("x1 x2")


def test_positivize_total_product():
    expr = Product(finite("x1 x2^-1"), finite("x2"))
    result = positivize(expr)
    assert equivalent(reduced_acceptor(result.expr), reduced_acceptor(finite("x1")))
    assert all(w.is_positive() for w in leaf_words(result.expr))


def test_positivize_total_rejects_negative_set():
    with pytest.raises(NotPositiveError) as exc:
        positivize(Star(finite("x2^-1 x1 x2")))
    assert exc.value.witness == parse_word("x2^-1 x1 x2")


def test_positivize_total_star_of_positive():
    result = positivize(Star(Union(finite("x1"), finite("x2 x1"))))
    assert result.expr == Star(Union(finite("x1"), finite("x2 x1")))


_POS_LEAVES = ["x1", "x2", "x1 x2", "x2 x1", "x2^2"]


def _random_positive_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return finite(*rng.sample(_POS_LEAVES, rng.randrange(1, 3)))
    kind = rng.choice(["union", "product", "star"])
    if kind == "union":
        return Union(
            _random_positive_expr(rng, depth - 1), _random_positive_expr(rng, depth - 1)
        )
    if kind == "product":
        return Product(
            _random_positive_expr(rng, depth - 1), _random_positive_expr(rng, depth - 1)
        )
    return Star(_random_positive_expr(rng, depth - 1))


def test_positivize_on_conjugated_positive_sets():
    # g·(g⁻¹·P·g)·g⁻¹ = P gives an endless supply of valid instances whose
    # inner expression is full of negative leaves
    rng = random.Random(4242)
    conjugators = [parse_word(t) for t in ["x1", "x2", "x1 x2", "x2^-1 x1"]]
    for i in range(12):
        base = _random_positive_expr(rng, 2)
        g = conjugators[i % len(conjugators)]
        expr = conjugate_expr(base, g)
        result = positivize(expr, g, g.inv())
        assert equivalent(reduced_acceptor(result.expr), reduced_acceptor(base))
        assert all(w.is_positive() for w in leaf_words(result.expr))


# -- the middle element on rational sets, ranks 2 and 3 -------------------


def _random_word(rng, rank, lo, hi, positive=False):
    letters = []
    for _ in range(rng.randint(lo, hi)):
        a = rng.randint(1, rank) * (1 if positive else rng.choice((1, -1)))
        if not letters or a != -letters[-1]:
            letters.append(a)
    return Word(letters)


def _random_positive_tree(rng, rank, depth):
    if depth == 0 or rng.random() < 0.4:
        return Finite({_random_word(rng, rank, 1, 3, True) for _ in range(rng.randint(1, 2))})
    kind = rng.choice(("union", "prod", "star"))
    if kind == "star":
        return Star(_random_positive_tree(rng, rank, depth - 1))
    cls = Union if kind == "union" else Product
    return cls(_random_positive_tree(rng, rank, depth - 1), _random_positive_tree(rng, rank, depth - 1))


def _middle_corpus():
    """(kind, expression, left, right, S, T, finite S and T or None): about
    100 products g·x·(x⁻¹·P₁·m⁻¹)·(m·P₂) and 100 stars
    g·r·h·(h⁻¹·r⁻¹·Q·r·h)*·h⁻¹, whose sandwiches are g·P₁·P₂ and g·Q*·r
    with g, r, P₁, P₂ and Q positive.  S and T are the expressions whose
    middle element the product split or the star conjugation asks for."""
    rng = random.Random(1509)
    out = []
    for _ in range(100):
        rank = rng.choice((2, 3))
        g = _random_word(rng, rank, 0, 2, True)
        x, m = _random_word(rng, rank, 0, 3), _random_word(rng, rank, 1, 3)
        p1, p2 = (_random_positive_tree(rng, rank, rng.randint(0, 2)) for _ in range(2))
        l1 = Product(Finite([x.inv()]), Product(p1, Finite([m.inv()])))
        l2 = Product(Finite([m]), p2)
        sets = None
        if isinstance(p1, Finite) and isinstance(p2, Finite):
            sets = ([g * p * m.inv() for p in p1.elements], [m * q for q in p2.elements])
        out.append(("product", Product(l1, l2), g * x, IDENTITY, _sandwich_expr(g * x, l1, IDENTITY), l2, sets))
    while len(out) < 200:
        rank = rng.choice((2, 3))
        g, r = _random_word(rng, rank, 0, 2, True), _random_word(rng, rank, 1, 3, True)
        h = _random_word(rng, rank, 0, 2)
        q = _random_positive_tree(rng, rank, rng.randint(0, 2))
        base = conjugate_expr(q, r)
        if positive_witness(base) is None:
            continue  # a positive base needs no conjugation
        sets = ([g * r], [r.inv() * p * r for p in q.elements]) if isinstance(q, Finite) else None
        out.append(("star", Star(conjugate_expr(q, r * h)), g * r * h, h.inv(), Finite([g * r]), base, sets))
    return out


def test_middle_contract_and_positivize_on_a_seeded_corpus():
    cases = set()
    for kind, expr, left, right, s, t, _ in _middle_corpus():
        u, case = signs._middle(reduced_acceptor(s), reduced_acceptor(t))
        assert positive_witness(Product(s, Finite([u.inv()]))) is None, (expr, u)
        assert positive_witness(Product(Finite([u]), t)) is None, (expr, u)
        result = _check_positivized(expr, left, right)
        assert result.trace["case"] == {"product": "product", "star": "star-conjugated"}[kind]
        cases.add(case)
    # case-1 (i0 = j0 > 0) needs a finite factor; see split_product
    assert cases == {"both-positive", "case-2", "mirrored"}


def test_middle_case_matches_split_product_on_finite_sets():
    # the reference construction on the same finite sets, in ℤ∗ℤ
    checked = 0
    for _, _, _, _, s, t, sets in _middle_corpus():
        if sets is None or max(w.max_generator() for w in sets[0] + sets[1]) > 2:
            continue
        _, case = signs._middle(reduced_acceptor(s), reduced_acceptor(t))
        trace = split_product(*([from_f2(w) for w in side] for side in sets), SIG)
        assert case == trace.case, sets
        checked += 1
    assert checked >= 30
