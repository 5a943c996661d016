"""Verbal subsets: value enumeration, membership, length, abelianization,
and the support dichotomy for positive sub-semigroups."""
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freerat.freeprod import (
    FREE_ZZ,
    FreeProduct,
    cyclic_form,
    format_fp,
    parse_fp,
    support,
    to_f2,
)
from freerat.errors import GaveUp
from freerat.verbal import (
    AbelianizedVerbal,
    CommonSupportCase,
    Membership,
    RefutedCase,
    SingleAxisCase,
    VerbalQuery,
    _ball_size,
    abelianized_verbal,
    certify_nonvalue,
    enumerate_values,
    free_ball,
    is_value,
    support_dichotomy_check,
    w_length,
)
from freerat.words import IDENTITY, Word, exponent_profile, parse_word, root_extract, substitute

from oracle_gaps import family_member
from oracle_verbal import fp_ball, fp_ball_size, fp_values, lattice_index, two_square_decomposition

W = parse_word
SQ = W("x1^2")
COMM = W("x1 x2 x1^-1 x2^-1")


def rand_word(rng, max_len=8):
    letters = []
    for _ in range(rng.randrange(max_len + 1)):
        a = rng.choice([1, -1, 2, -2])
        letters.append(a)
    return Word(letters)


# -- value enumeration ------------------------------------------------------


def test_free_ball_sizes():
    assert [len(free_ball(c)) for c in range(5)] == [1, 5, 17, 53, 161]
    # the budgets count the ball in closed form, without building it; the
    # oracle counts free-product balls the same way
    assert [_ball_size(c) for c in range(5)] == [1, 5, 17, 53, 161]
    for group in (FREE_ZZ, FreeProduct(2, 3), FreeProduct(4, None), FreeProduct(2, 2)):
        assert [fp_ball_size(group, c) for c in range(5)] == [len(fp_ball(group, c)) for c in range(5)]


def test_square_values_frozen():
    vals1 = enumerate_values(VerbalQuery(SQ, 1))
    assert vals1 == frozenset(
        {IDENTITY, W("x1^2"), W("x1^-2"), W("x2^2"), W("x2^-2")}
    )
    vals2 = enumerate_values(VerbalQuery(SQ, 2))
    assert len(vals2) == 17  # distinct square roots give distinct squares
    assert W("x1 x2 x1 x2") in vals2


def test_commutator_values_frozen():
    vals = enumerate_values(VerbalQuery(COMM, 1))
    assert len(vals) == 9
    assert IDENTITY in vals and COMM in vals
    assert all(exponent_profile(g, 2) == (0, 0) for g in vals)


def test_values_monotone_in_cap():
    for w in (SQ, COMM, W("x1^2 x2^2")):
        prev = frozenset()
        for cap in (0, 1, 2):
            cur = enumerate_values(VerbalQuery(w, cap))
            assert prev <= cur
            prev = cur


def test_values_in_free_product_with_torsion():
    group = FreeProduct(None, 2)
    vals = fp_values(SQ, 1, group)
    assert {format_fp(v) for v in vals} == {"1", "a^2", "a^-2"}


def test_enumeration_budget_guard():
    with pytest.raises(GaveUp, match="budget"):
        enumerate_values(VerbalQuery(W("x1 x2 x3 x4 x5"), 4))


# -- membership -------------------------------------------------------------


def test_is_value_power_word_frozen():
    q = VerbalQuery(SQ, 2)
    yes = is_value(q, W("x1^4"))
    assert yes.verdict == "yes" and yes.reason == "power-root"
    assert yes.witness == (W("x1^2"),)
    assert is_value(q, W("x1^3")).verdict == "no"
    assert is_value(q, W("x1 x2")).verdict == "no"
    long_root = is_value(q, W("x1 x2^3 x1 x2^3"))
    assert long_root.verdict == "yes"  # root longer than the cap still found


def test_is_value_negative_power():
    q = VerbalQuery(W("x1^-2"), 2)
    got = is_value(q, W("x1^4"))
    assert got.verdict == "yes"
    assert substitute(q.w, got.witness) == W("x1^4")


def test_is_value_abelianization_no():
    q = VerbalQuery(W("x1^2 x2^2"), 2)
    assert is_value(q, W("x1 x2")).verdict == "no"
    assert is_value(q, W("x1 x2")).reason == "abelianization"
    qc = VerbalQuery(COMM, 1)
    assert is_value(qc, W("x1^2")).verdict == "no"
    assert is_value(qc, COMM).verdict == "yes"


def test_is_value_search_and_unknown():
    w = W("x1^2 x2^2")
    g = W("x1^2 x2^2 x1^2")  # equals (x2^-1)^2 (x2^2 x1^2)^2, roots of length 1 and 4
    assert is_value(VerbalQuery(w, 2), g).verdict == "unknown"
    got = is_value(VerbalQuery(w, 4), g)
    assert got.verdict == "yes"
    assert substitute(w, got.witness) == g


def test_is_value_matches_root_extract_on_random_words():
    rng = random.Random(5)
    q = VerbalQuery(SQ, 1)
    for _ in range(2000):
        g = rand_word(rng)
        got = is_value(q, g)
        assert got.verdict == ("no" if root_extract(g, 2) is None else "yes")


def test_certify_nonvalue_is_sound():
    rng = random.Random(6)
    for _ in range(500):
        g = rand_word(rng)
        cert = certify_nonvalue(SQ, g)
        if cert is not None:
            assert root_extract(g, 2) is None
        cert = certify_nonvalue(W("x1^2 x2^2"), g)
        if cert is not None:
            assert any(c % 2 for c in exponent_profile(g, 2))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([SQ, COMM, W("x1^2 x2^2"), W("x1^3")]), st.integers(0, 1))
def test_enumerated_values_are_members(w, cap):
    q = VerbalQuery(w, cap)
    for g in sorted(enumerate_values(q)):
        got = is_value(VerbalQuery(w, max(cap, 1)), g)
        assert got.verdict == "yes"
        assert substitute(w, got.witness) == g


# -- verbal length ----------------------------------------------------------


def test_w_length_frozen():
    q = VerbalQuery(SQ, 2, product_cap=3)
    assert w_length(q, IDENTITY) == 0
    assert w_length(q, W("x1^6")) == 1
    assert w_length(q, W("x1 x2^3 x1 x2^3")) == 1  # root beyond the cap
    assert w_length(q, W("x1^2 x2^2")) == 2
    assert w_length(q, W("x1")) is None  # odd exponent sum: never a product of squares


def test_w_length_depends_on_cap_as_documented():
    g = W("x1^2 x2^2 x1^2")
    assert two_square_decomposition(g) is not None  # truly a 2-square product
    assert w_length(VerbalQuery(SQ, 4, product_cap=2), g) == 2
    # with radius-2 roots only, three blocks are needed
    assert w_length(VerbalQuery(SQ, 2, product_cap=3), g) == 3


def test_w_length_exactly_two_needs_no_single_square():
    g = W("x1^2 x2^2")
    assert root_extract(g, 2) is None
    assert w_length(VerbalQuery(SQ, 2, product_cap=2), g) == 2


# -- abelianized image ------------------------------------------------------


def test_abelianized_frozen():
    assert abelianized_verbal(SQ, 2) == AbelianizedVerbal(2, 2, 4)
    assert abelianized_verbal(W("x1^3"), 2) == AbelianizedVerbal(3, 2, 9)
    assert abelianized_verbal(COMM, 2) == AbelianizedVerbal(0, 2, None)
    assert abelianized_verbal(W("x1 x2"), 2) == AbelianizedVerbal(1, 2, 1)
    assert abelianized_verbal(SQ, 1) == AbelianizedVerbal(2, 1, 2)
    assert abelianized_verbal(SQ, 3).index == 8
    with pytest.raises(ValueError):
        abelianized_verbal(W("x1 x2"), 1)


def test_abelianized_matches_lattice_of_value_profiles():
    for w in (SQ, W("x1^3"), COMM, W("x1 x2"), W("x1^2 x2^2"), W("x1^2 x2^4")):
        vectors = [exponent_profile(g, 2) for g in enumerate_values(VerbalQuery(w, 2))]
        assert abelianized_verbal(w, 2).index == lattice_index(vectors)


# -- support dichotomy ------------------------------------------------------


def fp(text):
    return parse_fp(text)


ID = FREE_ZZ.identity


def test_dichotomy_single_axis():
    got = support_dichotomy_check([fp("a")], ID, ID, SQ)
    assert got == SingleAxisCase("a")
    got = support_dichotomy_check([fp("b"), fp("b^3")], ID, ID, SQ)
    assert got == SingleAxisCase("b")


def test_dichotomy_common_support_frozen():
    got = support_dichotomy_check([fp("a b")], ID, ID, SQ)
    assert isinstance(got, CommonSupportCase)
    assert got.syllables == frozenset({("a", 1), ("b", 1)})
    got = support_dichotomy_check([fp("a b^2")], ID, ID, SQ)
    assert got.syllables == frozenset({("a", 1), ("b", 2)})


def test_dichotomy_common_support_covers_bounded_products():
    result = support_dichotomy_check([fp("a b^2")], ID, ID, SQ, budget=3)
    elems = [fp("a b^2")]
    layer = [ID]
    for _ in range(3):
        layer = [x * g for x in layer for g in elems]
        for member in layer:
            assert support(cyclic_form(member)) <= result.syllables


def test_dichotomy_refuted_frozen():
    got = support_dichotomy_check([fp("a b"), fp("a b^2")], ID, ID, SQ)
    assert isinstance(got, RefutedCase)
    assert got.exact and got.certificate["method"] == "power-root"
    assert got.witness == family_member(ID, fp("a b^2"), fp("a b"), ID, 1)
    assert root_extract(to_f2(got.witness), 2) is None


def test_dichotomy_catches_escape_at_depth_two():
    # supports of the generators agree, but ab·ba leaves the common support
    got = support_dichotomy_check([fp("a b"), fp("b a")], ID, ID, SQ)
    assert isinstance(got, RefutedCase) and got.exact


def test_dichotomy_mixed_axes_refuted():
    got = support_dichotomy_check([fp("a"), fp("b")], ID, ID, SQ)
    assert isinstance(got, RefutedCase) and got.exact
    assert format_fp(got.witness) == "a^5 b a^4"
    assert root_extract(to_f2(got.witness), 2) is None


def test_dichotomy_sandwich_appears_in_witness():
    p, q = fp("b"), fp("a^3")
    got = support_dichotomy_check([fp("a b"), fp("a b^2")], p, q, SQ)
    assert isinstance(got, RefutedCase)
    syl = got.witness.syllables
    assert syl[0] == ("b", 1)  # p survives in front
    assert syl[-1][0] == "a" and syl[-1][1] >= 3  # q merged at the back


def test_dichotomy_torsion_factor_closure():
    group = FreeProduct(None, 2)
    e = group.element((("a", 1), ("b", 1)))
    got = support_dichotomy_check([e], group.identity, group.identity, SQ)
    assert isinstance(got, CommonSupportCase)
    assert got.syllables == frozenset({("a", 1), ("b", 1)})


def test_dichotomy_probe_stops_when_products_repeat():
    # in ℤ/2 ∗ ℤ the products of a alternate a, 1: the probe ends at once
    group = FreeProduct(2, None)
    a = group.element((("a", 1),))
    start = time.perf_counter()
    got = support_dichotomy_check([a], group.identity, group.identity, SQ, budget=10**7)
    assert got == SingleAxisCase("a")
    assert time.perf_counter() - start < 5.0


def test_dichotomy_validation():
    with pytest.raises(ValueError, match="nonidentity"):
        support_dichotomy_check([], ID, ID, SQ)
    with pytest.raises(ValueError, match="positive"):
        support_dichotomy_check([fp("a^-1 b")], ID, ID, SQ)
    with pytest.raises(ValueError, match="positive"):
        support_dichotomy_check([fp("a b")], fp("a^-1"), ID, SQ)
    with pytest.raises(ValueError, match="gcd"):
        support_dichotomy_check([fp("a b")], ID, ID, W("x1 x2"))
    with pytest.raises(ValueError, match="probe"):
        support_dichotomy_check([fp("a b")], ID, ID, SQ, budget=1)
