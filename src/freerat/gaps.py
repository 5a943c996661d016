"""Gap counting in free-product normal forms and the boundedness criterion.

For a fixed syllable b, a b-gap of length 2k−1 is the stretch between two
consecutive occurrences of b in the normal form.  δ_{b,k} counts the gaps
of each length and γ_{b,e} counts the lengths k at which the b-counts and
b⁻¹-counts disagree modulo e.  On any set of w-values with e = e(w) ≥ 2
the function γ_{b,e} stays bounded, which makes it a cheap certificate
that a family of words cannot all be w-values: ``criterion_scan`` samples
w-values to exhibit the empirical bound, and ``unbounded_family`` builds
positive words with γ growing without bound.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from freerat.freeprod import (
    FPElement,
    FreeProduct,
    FREE_ZZ,
    Syllable,
    _normal_element,
    cyclic_form,
    fp_substitute,
    support,
)
from freerat.words import Word, WordClass, classify, exponent_gcd


# -- gap profiles ----------------------------------------------------------


@dataclass(frozen=True)
class GapProfile:
    """δ-tables of one element for a fixed syllable b and its inverse.

    ``table`` maps k to the pair (δ_{b,k}, δ_{b⁻¹,k}); keys are exactly
    the k with a nonzero pair."""

    group: FreeProduct
    b: Syllable
    table: tuple[tuple[int, tuple[int, int]], ...]

    def as_dict(self) -> dict[int, tuple[int, int]]:
        return dict(self.table)

    def max_k(self) -> int:
        return max((k for k, _ in self.table), default=0)

    def gamma(self, e: int) -> int:
        """Number of k at which the two δ-counts differ modulo e."""
        if e < 2:
            raise ValueError("gamma needs a modulus e >= 2")
        fid, exp = self.b
        factor = self.group.factors[fid]
        if factor.canon(2 * exp) == 0:
            raise ValueError("gamma needs b different from its inverse")
        return sum(1 for _, (db, dbi) in self.table if (db - dbi) % e != 0)


def gap_profile(u: FPElement, b: Syllable) -> GapProfile:
    """Scan the normal form of u once, counting the gaps of b and of b⁻¹.

    When b is its own inverse both columns count the same gaps."""
    group = u.group
    fid, exp = b
    factor = group.factors[fid]
    canon = factor.canon(exp)
    if canon == 0:
        raise ValueError("the gap syllable must not be the identity")
    b = (fid, canon)
    b_inv = (fid, factor.canon(-canon))
    counts: dict[int, list[int]] = {}
    prev = [-1, -1]  # index of the last b and of the last b⁻¹
    for idx, s in enumerate(u.syllables):
        if s != b and s != b_inv:
            continue
        col = s != b
        if prev[col] >= 0:
            dist = idx - prev[col]
            assert dist % 2 == 0, "same-factor syllables alternate at even distance"
            counts.setdefault(dist // 2, [0, 0])[col] += 1
        prev[col] = idx
    if b == b_inv:  # every b-gap is also a b⁻¹-gap
        for pair in counts.values():
            pair[1] = pair[0]
    table = tuple((k, tuple(counts[k])) for k in sorted(counts))
    return GapProfile(group, b, table)


def gamma(u: FPElement, b: Syllable, e: int) -> int:
    return gap_profile(u, b).gamma(e)


# -- empirical boundedness on sampled w-values -----------------------------


@dataclass(frozen=True)
class ScanConfig:
    samples: int = 1000
    seed: int = 0
    max_syllables: int = 20
    max_exponent: int = 2


@dataclass(frozen=True)
class ScanRecord:
    sample_id: int
    syllable_length: int
    gamma: int
    max_k: int


@dataclass(frozen=True)
class ScanReport:
    b: Syllable
    e: int
    config: ScanConfig
    max_gamma: int
    histogram: tuple[tuple[int, int], ...]
    records: tuple[ScanRecord, ...]


def _random_element(rng: random.Random, group: FreeProduct, config: ScanConfig) -> FPElement:
    # The syllables alternate between the factors and every exponent is
    # canonical and nonzero, so the list is already a normal form.
    factors = [(fid, factor.modulus) for fid, factor in group.factors.items()]
    start = rng.randrange(2)
    out = []
    for k in range(rng.randrange(config.max_syllables + 1)):
        fid, modulus = factors[(start + k) % 2]
        if modulus is None:
            exp = rng.choice((-1, 1)) * rng.randint(1, config.max_exponent)
        else:
            exp = rng.randint(1, modulus - 1)
        out.append((fid, exp))
    return _normal_element(group, tuple(out))


def criterion_scan(
    w: Word,
    b: Syllable,
    e: int,
    config: ScanConfig = ScanConfig(),
    group: FreeProduct = FREE_ZZ,
) -> ScanReport:
    """γ_{b,e} over seeded random values of w; max and histogram.

    The word must be proper with e equal to its exponent gcd — that is the
    regime in which boundedness is guaranteed."""
    if classify(w) is not WordClass.PROPER:
        raise ValueError("criterion_scan needs a proper word (exponent gcd >= 2)")
    if e != exponent_gcd(w):
        raise ValueError("e must equal the word's exponent gcd")
    rng = random.Random(config.seed)
    n_vars = max((abs(l) for l in w.letters), default=1)
    histogram: dict[int, int] = {}
    records = []
    best = 0
    for sample_id in range(config.samples):
        images = [_random_element(rng, group, config) for _ in range(n_vars)]
        value = fp_substitute(w, images)
        profile = gap_profile(value, b)
        g = profile.gamma(e)
        best = max(best, g)
        histogram[g] = histogram.get(g, 0) + 1
        records.append(ScanRecord(sample_id, len(value), g, profile.max_k()))
    return ScanReport(
        b, e, config, best, tuple(sorted(histogram.items())), tuple(records)
    )


# -- engineered families with unbounded gamma ------------------------------


@dataclass(frozen=True)
class FamilyReport:
    b: Syllable
    e: int
    members: tuple[FPElement, ...]
    gammas: tuple[int, ...]


def family_member(
    p: FPElement, u: FPElement, v: FPElement, q: FPElement, n: int
) -> FPElement:
    """p·uu·v¹·uu·v²·uu ⋯ vⁿ·uu·q — the n-th cumulative member."""
    out = p * u * u
    for k in range(1, n + 1):
        out = out * v**k * u * u
    return out * q


def unbounded_family(
    p: FPElement,
    u: FPElement,
    v: FPElement,
    q: FPElement,
    n_max: int,
    e: int = 2,
) -> FamilyReport:
    """γ_{b,e} along the cumulative family p·uu·v·uu·v²·uu ⋯ vⁿ·uu·q.

    b is the smallest syllable occurring in the cyclic form of u but not
    in that of v; each appended vᵏ block contributes a fresh b-gap length,
    so γ grows without bound while every member stays positive."""
    group = u.group
    sign_ok = all(
        all(_syllable_nonneg(group, s) for s in x.syllables) for x in (p, u, v, q)
    )
    if not sign_ok:
        raise ValueError("family inputs must be positive")
    if len(cyclic_form(v)) < 2:
        raise ValueError("v must have cyclic syllable length at least 2")
    fresh = support(cyclic_form(u)) - support(cyclic_form(v))
    if not fresh:
        raise ValueError("no syllable separates u from v (equal cyclic supports)")
    b = min(sorted(fresh))
    members = []
    gammas = []
    prefix = p * u * u
    for n in range(1, n_max + 1):
        prefix = prefix * v**n * u * u
        member = prefix * q
        members.append(member)
        gammas.append(gamma(member, b, e))
    return FamilyReport(b, e, tuple(members), tuple(gammas))


def _syllable_nonneg(group: FreeProduct, s: Syllable) -> bool:
    fid, exp = s
    factor = group.factors[fid]
    if factor.modulus is None:
        return exp >= 0
    return True
