"""Gap counting in free-product normal forms and the boundedness criterion.

For a fixed syllable b, a b-gap of length 2k−1 is the stretch between two
consecutive occurrences of b in the normal form.  δ_{b,k} counts the gaps
of each length and γ_{b,e} counts the lengths k at which the b-counts and
b⁻¹-counts disagree modulo e.  On any set of w-values with e = e(w) ≥ 2
the function γ_{b,e} stays bounded, which makes it a cheap certificate
that a family of words cannot all be w-values: ``criterion_scan`` samples
w-values to exhibit the empirical bound, and ``unbounded_family`` builds
positive families meant to make γ grow (not guaranteed; see its
docstring).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

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
from freerat.words import MAX_WORD_LETTERS, Word, WordClass, classify, exponent_gcd


# -- gap profiles ----------------------------------------------------------


@dataclass(frozen=True)
class GapProfile:
    """δ-tables of one element for a fixed syllable b and its inverse.

    ``table`` maps k to the pair (δ_{b,k}, δ_{b⁻¹,k}); keys are exactly
    the k with a nonzero pair."""

    group: FreeProduct
    b: Syllable
    table: tuple[tuple[int, tuple[int, int]], ...]

    def max_k(self) -> int:
        return max((k for k, _ in self.table), default=0)

    def gamma(self, e: int) -> int:
        """Number of k at which the two δ-counts differ modulo e."""
        _check_gamma(e, *_gap_pair(self.group, self.b))
        return sum(1 for _, (db, dbi) in self.table if (db - dbi) % e != 0)


def _gap_pair(group: FreeProduct, b: Syllable) -> tuple[Syllable, Syllable]:
    """b with a canonical exponent, and b⁻¹; the identity is refused."""
    fid, exp = b
    factor = group.factors[fid]
    canon = factor.canon(exp)
    if canon == 0:
        raise ValueError("the gap syllable must not be the identity")
    return (fid, canon), (fid, factor.canon(-canon))


def _check_gamma(e: int, b: Syllable, b_inv: Syllable) -> None:
    if e < 2:
        raise ValueError("gamma needs a modulus e >= 2")
    if b == b_inv:
        raise ValueError("gamma needs b different from its inverse")


def _gap_counts(
    syllables: tuple[Syllable, ...], b: Syllable, b_inv: Syllable
) -> dict[int, list[int]]:
    """k -> [δ_{b,k}, δ_{b⁻¹,k}] for the nonzero pairs, from one pass.

    The syllables of b's factor sit at every other index of a normal form,
    so a gap of length 2k−1 is k steps along them.  When b is its own
    inverse both columns count the same gaps."""
    fid = b[0]
    same = syllables[syllables[0][0] != fid :: 2] if syllables else ()
    counts: dict[int, list[int]] = {}
    prev = [-1, -1]  # position of the last b and of the last b⁻¹ in ``same``
    for idx, s in enumerate(same):
        if s == b:
            col = 0
        elif s == b_inv:
            col = 1
        else:
            continue
        if prev[col] >= 0:
            counts.setdefault(idx - prev[col], [0, 0])[col] += 1
        prev[col] = idx
    if b == b_inv:  # every b-gap is also a b⁻¹-gap
        for pair in counts.values():
            pair[1] = pair[0]
    return counts


def gap_profile(u: FPElement, b: Syllable) -> GapProfile:
    """Scan the normal form of u once, counting the gaps of b and of b⁻¹.

    When b is its own inverse both columns count the same gaps."""
    b, b_inv = _gap_pair(u.group, b)
    counts = _gap_counts(u.syllables, b, b_inv)
    table = tuple((k, tuple(counts[k])) for k in sorted(counts))
    return GapProfile(u.group, b, table)


def gamma(u: FPElement, b: Syllable, e: int) -> int:
    return gap_profile(u, b).gamma(e)


# -- empirical boundedness on sampled w-values -----------------------------


@dataclass(frozen=True)
class ScanConfig:
    samples: int = 1000
    seed: int = 0
    max_syllables: int = 20
    max_exponent: int = 2

    def __post_init__(self):
        # each bound is named with its ``gaps scan`` flag
        for name, flag, low in (
            ("samples", "--samples", 0),
            ("max_syllables", "--cap-len", 0),
            ("max_exponent", "--max-exponent", 1),
        ):
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} ({flag}) must be >= {low}, got {value}")
        # a sample may have as many syllables as a parsed word has letters
        if self.max_syllables > MAX_WORD_LETTERS:
            raise ValueError(
                f"max_syllables (--cap-len) must be <= {MAX_WORD_LETTERS}, got {self.max_syllables}"
            )


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


def _below(getrandbits, n: int) -> int:
    """A uniform draw from range(n), n >= 1, by the rejection rule of
    ``Random._randbelow``: the value ``randrange(n)`` would return, one less
    than ``randint(1, n)``, or the index ``choice`` takes among n items, with
    the same bits taken from the stream."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _element_sampler(
    group: FreeProduct, config: ScanConfig
) -> Callable[[random.Random], FPElement]:
    """A function rng -> random normal form of at most
    ``config.max_syllables`` syllables, set up once per scan.

    Per element it draws the starting factor, the length, and per syllable
    a sign and then a magnitude up to ``config.max_exponent`` (infinite
    factor) or an exponent in 1..modulus−1 (finite factor).  A seed's draw
    order is part of the ``gaps scan`` output, so it must not change."""
    lengths = config.max_syllables + 1
    max_exponent = config.max_exponent
    # (factor id, number of exponents to draw from, whether a sign is drawn)
    factors = [
        (fid, max_exponent, True) if factor.modulus is None else (fid, factor.modulus - 1, False)
        for fid, factor in group.factors.items()
    ]

    def sample(rng: random.Random) -> FPElement:
        getrandbits = rng.getrandbits
        start = _below(getrandbits, 2)
        out = []
        for k in range(_below(getrandbits, lengths)):
            fid, n, signed = factors[(start + k) % 2]
            if signed:
                positive = _below(getrandbits, 2)  # choice((-1, 1))
                exp = 1 + _below(getrandbits, n)
                out.append((fid, exp if positive else -exp))
            else:
                out.append((fid, 1 + _below(getrandbits, n)))
        # The syllables alternate between the factors and every exponent
        # is canonical and nonzero, so the tuple is already a normal form.
        return _normal_element(group, tuple(out))

    return sample


def criterion_scan(
    w: Word,
    b: Syllable,
    e: int,
    config: ScanConfig = ScanConfig(),
    group: FreeProduct = FREE_ZZ,
) -> ScanReport:
    """γ_{b,e} over seeded random values of w; max and histogram.

    The word must be proper with e equal to its exponent gcd — that is the
    regime in which boundedness is guaranteed.  γ's conditions on b and e
    are checked before any sampling, so they do not depend on the sample
    count."""
    if classify(w) is not WordClass.PROPER:
        raise ValueError("criterion_scan needs a proper word (exponent gcd >= 2)")
    if e != exponent_gcd(w):
        raise ValueError("e must equal the word's exponent gcd")
    b_canon, b_inv = _gap_pair(group, b)
    _check_gamma(e, b_canon, b_inv)
    sample = _element_sampler(group, config)
    rng = random.Random(config.seed)
    n_vars = max((abs(l) for l in w.letters), default=1)
    histogram: dict[int, int] = {}
    records = []
    for sample_id in range(config.samples):
        images = [sample(rng) for _ in range(n_vars)]
        value = fp_substitute(w, images)
        counts = _gap_counts(value.syllables, b_canon, b_inv)
        g = sum(1 for db, dbi in counts.values() if (db - dbi) % e)
        histogram[g] = histogram.get(g, 0) + 1
        records.append(ScanRecord(sample_id, len(value), g, max(counts, default=0)))
    return ScanReport(
        b, e, config, max(histogram, default=0), tuple(sorted(histogram.items())), tuple(records)
    )


# -- engineered families with unbounded gamma ------------------------------


@dataclass(frozen=True)
class FamilyReport:
    b: Syllable
    e: int
    members: tuple[FPElement, ...]
    gammas: tuple[int, ...]


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
    in that of v, and every member is positive.  Each appended vᵏ block is
    meant to add a fresh b-gap length, but growth is not guaranteed: when
    u·u merges with the end syllables of v, b need not occur in any member
    at all.  ``refute --word "x1^2 x2^-2 x1^2" --expr "(star (fin x1^2
    x2^2))"`` builds such a family, u = x1⁴ and v = x1² x2², whose γ stays
    0.  ROADMAP.md open item 2 (exact gap certificates) plans the fix."""
    if n_max < 1:
        raise ValueError(f"n_max (--n) must be >= 1, got {n_max}")
    if not all(x.is_positive() for x in (p, u, v, q)):
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
