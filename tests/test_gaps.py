"""Gap profiles, the boundedness scan, and unbounded families."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracle_gaps import family_member, gap_table, profile_dict, random_element, scan_report
from oracle_squares import exhaustive_square_gamma_max
from freerat.freeprod import FREE_ZZ, FreeProduct, fp_substitute, to_f2
from freerat.gaps import (
    FamilyReport,
    GapProfile,
    ScanConfig,
    _element_sampler,
    criterion_scan,
    gamma,
    gap_profile,
    unbounded_family,
)
from freerat.words import exponent_gcd, parse_word, root_extract


G = FREE_ZZ
B1 = ("b", 1)


def el(*syllables):
    return G.element(syllables)


# -- profiles --------------------------------------------------------------


def test_profile_frozen_three_syllables():
    p = gap_profile(el(("b", 1), ("a", 1), ("b", 1)), B1)
    assert profile_dict(p) == {1: (1, 0)}
    assert p.gamma(2) == 1
    assert p.max_k() == 1


def test_profile_frozen_five_syllables():
    p = gap_profile(el(("b", 1), ("a", 1), ("b", 1), ("a", 1), ("b", 1)), B1)
    assert profile_dict(p) == {1: (2, 0)}
    assert p.gamma(2) == 0


def test_profile_no_repeat_is_empty():
    assert profile_dict(gap_profile(el(("a", 1), ("b", 1)), B1)) == {}
    assert profile_dict(gap_profile(G.identity, B1)) == {}
    assert gamma(G.identity, B1, 2) == 0


def test_profile_counts_inverse_occurrences():
    u = el(("b", -1), ("a", 1), ("b", -1), ("a", 1), ("b", 1))
    p = gap_profile(u, B1)
    assert profile_dict(p) == {1: (0, 1)}
    assert p.gamma(2) == 1


def test_profile_rejects_identity_syllable():
    with pytest.raises(ValueError):
        gap_profile(el(("a", 1)), ("b", 0))
    mod = FreeProduct(None, 4)
    with pytest.raises(ValueError):
        gap_profile(mod.element([("a", 1)]), ("b", 4))  # canon 0


def test_gamma_rejects_bad_modulus_and_self_inverse():
    u = el(("b", 1), ("a", 1), ("b", 1))
    with pytest.raises(ValueError):
        gamma(u, B1, 1)
    mod = FreeProduct(None, 4)
    v = mod.element([("b", 2), ("a", 1), ("b", 2)])
    with pytest.raises(ValueError):
        gamma(v, ("b", 2), 2)  # (b,2) is its own inverse mod 4


def _random_element(rng, max_syll=14):
    start = rng.randrange(2)
    out = []
    for k in range(rng.randrange(max_syll + 1)):
        fid = "ab"[(start + k) % 2]
        out.append((fid, rng.choice([-2, -1, 1, 2])))
    return G.element(out)


def test_gap_count_sum_matches_occurrences():
    rng = random.Random(314)
    for _ in range(400):
        u = _random_element(rng)
        for target in (B1, ("a", -1)):
            p = gap_profile(u, target)
            occurrences = sum(1 for s in u.syllables if s == target)
            total = sum(db for _, (db, _) in p.table)
            assert total == (occurrences - 1 if occurrences else 0)


def test_positive_elements_have_no_inverse_gaps():
    rng = random.Random(315)
    for _ in range(300):
        u = G.element(
            [("ab"[k % 2], rng.randint(1, 3)) for k in range(rng.randrange(12))]
        )
        p = gap_profile(u, B1)
        assert all(dbi == 0 for _, (_, dbi) in p.table)


def test_inverse_mirrors_profile():
    rng = random.Random(316)
    for _ in range(300):
        u = _random_element(rng)
        direct = profile_dict(gap_profile(u, B1))
        mirrored = profile_dict(gap_profile(u.inv(), B1))
        assert mirrored == {k: (dbi, db) for k, (db, dbi) in direct.items()}


@pytest.mark.parametrize(
    "group,targets",
    [
        (G, (B1, ("b", -2), ("a", 1))),
        # b¹ is its own inverse in ℤ/2: each gap counts in both columns
        (FreeProduct(b=2), (("b", 1), ("a", -1))),
        (FreeProduct(a=4, b=6), (("b", 3), ("b", 2), ("a", 1), ("a", 2))),
    ],
)
def test_profile_matches_two_pass_oracle(group, targets):
    rng = random.Random(317)
    sample = _element_sampler(group, ScanConfig(max_syllables=14, max_exponent=3))
    for _ in range(300):
        x, y = sample(rng), sample(rng)
        # the sampler builds its normal forms directly; renormalising keeps them
        assert group.element(x.syllables).syllables == x.syllables
        u = x * y
        for fid, exp in targets:
            b = (fid, group.factors[fid].canon(exp))
            b_inv = (fid, group.factors[fid].canon(-exp))
            assert profile_dict(gap_profile(u, b)) == gap_table(u.syllables, b, b_inv)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_gap_sum_property(seed):
    rng = random.Random(seed)
    u = _random_element(rng, 10)
    p = gap_profile(u, B1)
    occurrences = sum(1 for s in u.syllables if s == B1)
    assert sum(db for _, (db, _) in p.table) == max(occurrences - 1, 0)


# -- criterion scan --------------------------------------------------------


SCAN_GROUPS = [G, FreeProduct(b=6), FreeProduct(a=4, b=6), FreeProduct(a=2, b=3)]


@pytest.mark.parametrize("group", SCAN_GROUPS, ids=repr)
def test_sampler_draws_as_randrange_randint_and_choice(group):
    # the same elements from the same stream, and the stream left in the
    # same state: a seed's draw order is part of the scan's output
    for max_exponent in range(1, 5):
        for max_syllables in range(21):
            config = ScanConfig(max_syllables=max_syllables, max_exponent=max_exponent)
            seed = 1000 * max_exponent + max_syllables
            ours, theirs = random.Random(seed), random.Random(seed)
            sample = _element_sampler(group, config)
            for _ in range(12):
                got = sample(ours)
                assert got.syllables == random_element(theirs, group, config).syllables
                assert len(got) <= max_syllables
            assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("group", SCAN_GROUPS, ids=repr)
@pytest.mark.parametrize("word", ["x1^2", "x1^2 x2^2", "x1^3 x2^3"])
def test_scan_matches_oracle_report(group, word):
    w = parse_word(word)
    e = exponent_gcd(w)
    for seed, b in enumerate((("b", 1), ("b", -1))):
        config = ScanConfig(samples=60, seed=seed, max_syllables=10, max_exponent=3)
        assert criterion_scan(w, b, e, config, group) == scan_report(w, b, e, config, group)


def test_scan_checks_gamma_preconditions_before_sampling():
    z2 = FreeProduct(b=2)
    for samples in (0, 5):
        config = ScanConfig(samples=samples)
        with pytest.raises(ValueError, match="different from its inverse"):
            criterion_scan(parse_word("x1^2"), ("b", 1), 2, config, z2)
        with pytest.raises(ValueError, match="identity"):
            criterion_scan(parse_word("x1^2"), ("b", 2), 2, config, z2)


def test_scan_rejects_non_proper_words():
    with pytest.raises(ValueError):
        criterion_scan(parse_word("x1"), B1, 2)  # exponent gcd 1
    with pytest.raises(ValueError):
        criterion_scan(parse_word("x1 x2 x1^-1 x2^-1"), B1, 2)  # commutator
    with pytest.raises(ValueError):
        criterion_scan(parse_word("x1^2"), B1, 3)  # e mismatch


def test_scan_is_deterministic():
    cfg = ScanConfig(samples=200, seed=99, max_syllables=8)
    a = criterion_scan(parse_word("x1^2"), B1, 2, cfg)
    b = criterion_scan(parse_word("x1^2"), B1, 2, cfg)
    assert a == b
    assert len(a.records) == 200
    assert sum(n for _, n in a.histogram) == 200


def test_scan_records_are_consistent():
    cfg = ScanConfig(samples=150, seed=4, max_syllables=10)
    rep = criterion_scan(parse_word("x1^2"), B1, 2, cfg)
    assert rep.max_gamma == max(r.gamma for r in rep.records)
    for r in rep.records:
        assert r.gamma >= 0 and r.syllable_length >= 0


def test_scan_matches_exhaustive_bound_at_matched_scale():
    # every sampled square has syllable length <= 12, the oracle's scale
    reference = exhaustive_square_gamma_max(12)
    assert reference == 2  # frozen: recomputed exhaustively above
    rep = criterion_scan(
        parse_word("x1^2"), B1, 2, ScanConfig(samples=10000, seed=11, max_syllables=6)
    )
    assert rep.max_gamma == reference


def test_scan_gamma_plateaus_on_large_squares():
    # squares decompose as P⁻¹c²P, where the P and P⁻¹ segments cancel each
    # other's contribution per gap length; only the segment-crossing gaps
    # remain, capping gamma at 6 no matter how long the square is
    big = criterion_scan(
        parse_word("x1^2"), B1, 2, ScanConfig(samples=4000, seed=7, max_syllables=80)
    )
    bigger = criterion_scan(
        parse_word("x1^2"), B1, 2, ScanConfig(samples=4000, seed=7, max_syllables=160)
    )
    assert big.max_gamma <= 6 and bigger.max_gamma <= 6


# -- unbounded families ----------------------------------------------------


CANONICAL = dict(
    p=G.identity,
    u=el(("a", 1), ("b", 1)),
    v=el(("a", 1), ("b", 2)),
    q=G.identity,
)


def test_family_canonical_gammas():
    fam = unbounded_family(n_max=20, **CANONICAL)
    assert fam.b == B1
    assert fam.gammas == (1, 3, 3, 5, 5, 7, 7, 9, 9, 11, 11, 13, 13, 15, 15, 17, 17, 19, 19, 21)
    assert fam.gammas[-1] > fam.gammas[0]
    assert all(x <= y for x, y in zip(fam.gammas, fam.gammas[1:]))
    strict = sum(1 for x, y in zip(fam.gammas, fam.gammas[1:]) if y > x)
    assert strict >= 10


def test_family_members_are_positive_and_incremental():
    fam = unbounded_family(n_max=5, **CANONICAL)
    for n, member in enumerate(fam.members, start=1):
        assert all(exp > 0 for _, exp in member.syllables)
        assert member == family_member(n=n, **CANONICAL)


def test_family_rejects_equal_supports():
    with pytest.raises(ValueError):
        unbounded_family(G.identity, el(("a", 1), ("b", 2)), el(("a", 1), ("b", 2)), G.identity, 5)


def test_family_rejects_short_or_negative_inputs():
    with pytest.raises(ValueError):
        unbounded_family(G.identity, el(("a", 1), ("b", 1)), el(("a", 2)), G.identity, 5)
    with pytest.raises(ValueError):
        unbounded_family(el(("a", -1)), el(("a", 1), ("b", 1)), el(("a", 1), ("b", 2)), G.identity, 5)


def test_family_members_above_bound_are_not_squares():
    fam = unbounded_family(n_max=6, **CANONICAL)
    reference = 2  # exhaustive max over squares of syllable length <= 12
    flagged = [m for m, g in zip(fam.members, fam.gammas) if g > reference]
    assert flagged  # the family escapes the square bound quickly
    for member in flagged:
        assert root_extract(to_f2(member), 2) is None


def test_family_respects_nontrivial_padding():
    fam = unbounded_family(
        el(("a", 2)),
        el(("a", 1), ("b", 1)),
        el(("a", 1), ("b", 2)),
        el(("b", 3)),
        4,
    )
    assert all(x <= y for x, y in zip(fam.gammas, fam.gammas[1:]))
    assert fam.gammas[-1] >= 3
