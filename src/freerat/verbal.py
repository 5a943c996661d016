"""Verbal subsets of free groups and free products.

For a word ``w`` in variables ``x_1 … x_n``, the verbal subset of a group
``G`` is the set of values ``w(g_1, …, g_n)`` over all substitutions
``g_i ∈ G``.  This module enumerates values inside bounded balls, decides
membership where an exact criterion exists (single-power words via root
extraction, plus the abelianization obstruction), measures verbal-subgroup
length, computes the abelianized image, and classifies finitely generated
positive sub-semigroups by the shape of their supports.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iter_product
from typing import Iterable, Optional, Sequence

from freerat.freeprod import FPElement, Syllable, cyclic_form, support, to_f2
from freerat.errors import GaveUp
from freerat.gaps import FamilyReport, unbounded_family
from freerat.words import (
    IDENTITY,
    Word,
    exponent_gcd,
    exponent_profile,
    root_extract,
    substitute,
)

_EVAL_BUDGET = 2_000_000
_LENGTH_BUDGET = 500_000
_PROBE_BUDGET = 500_000  # syllables held by the elements of one product probe


@dataclass(frozen=True)
class VerbalQuery:
    """A word with the substitution and product bounds used to explore it.

    ``substitution_cap`` bounds the letter length of each substituted image
    and ``product_cap`` the number of factors in verbal-subgroup products.
    Values live in the free group F₂.
    """

    w: Word
    substitution_cap: int
    product_cap: int = 2

    def __post_init__(self):
        if not self.w.letters:
            raise ValueError("verbal queries need a nonidentity word")
        if self.substitution_cap < 0 or self.product_cap < 0:
            raise ValueError("caps must be nonnegative")

    @property
    def n_vars(self) -> int:
        return self.w.max_generator()


@lru_cache(maxsize=64)
def free_ball(cap: int) -> tuple[Word, ...]:
    """All reduced words of F₂ of letter length <= cap, shortest first."""
    out = [IDENTITY]
    layer = [IDENTITY]
    for _ in range(cap):
        nxt = []
        for u in layer:
            last = u.letters[-1] if u.letters else 0
            for a in (1, 2):
                for s in (a, -a):
                    if s != -last:
                        nxt.append(Word(u.letters + (s,)))
        out.extend(nxt)
        layer = nxt
    return tuple(out)


def _ball_size(cap: int) -> int:
    """The number of elements of ``free_ball(cap)``, 2·3^cap - 1, counted
    without building the ball."""
    return 2 * 3**cap - 1


def enumerate_values(query: VerbalQuery):
    """The set of values w(g₁, …, gₙ) with every image in the capped ball.

    Monotone in ``substitution_cap``.  Raises when the number of
    substitution tuples exceeds the evaluation budget.
    """
    w = query.w
    n = query.n_vars
    size = _ball_size(query.substitution_cap)
    if size**n > _EVAL_BUDGET:
        raise GaveUp(f"{size}^{n} substitution tuples exceed the evaluation budget of {_EVAL_BUDGET}")
    ball = free_ball(query.substitution_cap)
    return frozenset(substitute(w, images) for images in iter_product(ball, repeat=n))


def _single_power(w: Word) -> Optional[tuple[int, int]]:
    """(variable index, signed exponent) when w is x_i^s, else None."""
    letters = set(w.letters)
    if len(letters) != 1:
        return None
    a = w.letters[0]
    return abs(a), len(w.letters) * (1 if a > 0 else -1)


@dataclass(frozen=True)
class Membership:
    """Three-valued membership verdict for g in w[F₂].

    ``verdict`` is "yes", "no" or "unknown"; "no" is only ever produced by
    an exact criterion (root extraction for single-power words, or the
    abelianization obstruction).  For "yes", ``witness`` holds images with
    ``substitute(w, witness) == g``.
    """

    verdict: str
    witness: Optional[tuple[Word, ...]]
    reason: str


def certify_nonvalue(w: Word, g: Word) -> Optional[dict]:
    """An exact proof that g is not a value of w, or None.

    Single-power words are decided completely by root extraction.  For the
    rest, the abelianized value set is e·ℤ² (e = exponent gcd), so an
    exponent profile outside that lattice is a proof; nothing else is.
    """
    sp = _single_power(w)
    if sp is not None:
        _, s = sp
        if root_extract(g, abs(s)) is None:
            return {"method": "power-root", "degree": abs(s)}
        return None
    e = exponent_gcd(w)
    profile = exponent_profile(g, 2)
    if e == 0:
        if any(profile):
            return {"method": "abelianization", "profile": list(profile), "modulus": 0}
        return None
    if any(c % e for c in profile):
        return {"method": "abelianization", "profile": list(profile), "modulus": e}
    return None


def is_value(query: VerbalQuery, g: Word) -> Membership:
    """Decide g ∈ w[F₂] within the query's bounds.

    Exact "yes" for single-power words (root extraction) and for any g
    found by the bounded substitution search; exact "no" only from
    :func:`certify_nonvalue`; otherwise "unknown".
    """
    w = query.w
    n = query.n_vars
    sp = _single_power(w)
    if sp is not None:
        i, s = sp
        root = root_extract(g, abs(s))
        if root is None:
            return Membership("no", None, "power-root")
        image = root if s > 0 else root.inv()
        witness = tuple(image if j == i else IDENTITY for j in range(1, n + 1))
        assert substitute(w, witness) == g
        return Membership("yes", witness, "power-root")
    cert = certify_nonvalue(w, g)
    if cert is not None:
        return Membership("no", None, cert["method"])
    size = _ball_size(query.substitution_cap)
    if size**n > _LENGTH_BUDGET:
        raise GaveUp(f"{size}^{n} substitution tuples exceed the search budget of {_LENGTH_BUDGET}")
    for images in iter_product(free_ball(query.substitution_cap), repeat=n):
        if substitute(w, images) == g:
            return Membership("yes", images, "search")
    return Membership("unknown", None, "search-exhausted")


def w_length(query: VerbalQuery, g: Word) -> Optional[int]:
    """Length of g as a product of values of w and their inverses.

    The identity has length 0.  Generators are the values inside the
    substitution ball, so for other elements the result is the exact length
    relative to that capped generating set (single-power words are special
    cased exactly at length 1 via root extraction).  None means g was not
    reached within ``product_cap`` factors.
    """
    if g == IDENTITY:
        return 0
    sp = _single_power(query.w)
    if sp is not None and root_extract(g, abs(sp[1])) is not None:
        return 1
    values = enumerate_values(query)
    gens = sorted(values | {v.inv() for v in values})
    dist = {IDENTITY: 0}
    frontier = [IDENTITY]
    for d in range(1, query.product_cap + 1):
        nxt = []
        for u in frontier:
            for v in gens:
                h = u * v
                if h not in dist:
                    dist[h] = d
                    nxt.append(h)
        if g in dist:
            return dist[g]
        if len(dist) > _LENGTH_BUDGET:
            raise GaveUp(f"verbal length search exceeded the budget of {_LENGTH_BUDGET} elements")
        frontier = nxt
    return None


@dataclass(frozen=True)
class AbelianizedVerbal:
    """Image of the verbal subgroup in ℤ^rank: the lattice e·ℤ^rank.

    ``index`` is e^rank for e >= 1 and None (infinite) for e = 0.
    """

    exponent: int
    rank: int
    index: Optional[int]


def abelianized_verbal(w: Word, rank: int = 2) -> AbelianizedVerbal:
    if rank < w.max_generator():
        raise ValueError("rank below the number of variables in w")
    e = exponent_gcd(w)
    return AbelianizedVerbal(e, rank, e**rank if e else None)


# -- support dichotomy for positive sub-semigroups --------------------------


@dataclass(frozen=True)
class SingleAxisCase:
    """Every bounded product is a power of one factor generator."""

    axis: str


@dataclass(frozen=True)
class CommonSupportCase:
    """All bounded products share one cyclic support: ``syllables`` is the
    set of syllables of their cyclic forms."""

    syllables: frozenset[Syllable]


@dataclass(frozen=True)
class RefutedCase:
    """An explicit element of p·E*·q that is provably not a value of w.

    ``exact`` is True when the certificate is a root-extraction or
    abelianization proof; otherwise the gap-growth evidence is heuristic.
    """

    witness: FPElement
    family: FamilyReport
    certificate: dict
    exact: bool


def _bounded_products(elements: Sequence[FPElement], depth: int) -> set[FPElement]:
    """The nonidentity products of 1 to ``depth`` factors of ``elements``.

    The budget counts the syllables the products hold, the work that
    builds them: with one generator each layer holds one element, so an
    element count grows with the depth while the syllables grow with its
    square.  A layer with no new product ends the search, since every later
    layer then repeats earlier ones."""
    group = elements[0].group
    out: set[FPElement] = set()
    layer = {group.identity}
    held = 0
    for _ in range(depth):
        layer = {u * g for u in layer for g in elements} - out
        if not layer:
            break
        out |= layer
        held += sum(len(u) for u in layer)
        if held > _PROBE_BUDGET:
            raise GaveUp(f"product probe exceeded the budget of {_PROBE_BUDGET} syllables")
    out.discard(group.identity)
    return out


def support_dichotomy_check(
    E: Iterable[FPElement],
    p: FPElement,
    q: FPElement,
    w: Word,
    budget: int = 3,
):
    """Classify the positive sandwich p·E*·q against the values of w.

    Products of up to ``budget`` factors of E are enumerated and inspected:
    all single syllables on one axis gives :class:`SingleAxisCase`; all
    cyclic cores of length >= 2 with one common support gives
    :class:`CommonSupportCase` (consistency holds up to the probe depth
    only — neither case asserts containment in w[F₂]).  Anything else
    yields a growing-gap family inside p·E*·q and a :class:`RefutedCase`
    carrying a member that is provably not a value when an exact
    certificate exists.
    """
    elements = sorted({g for g in E if g.syllables})
    if not elements:
        raise ValueError("need at least one nonidentity generator")
    for g in (*elements, p, q):
        if not g.is_positive():
            raise ValueError(f"dichotomy needs positive inputs, got {g!r}")
    if exponent_gcd(w) < 2:
        raise ValueError("dichotomy targets words with exponent gcd >= 2")
    if budget < 2:
        raise ValueError("probe depth must be at least 2")

    probe = _bounded_products(elements, budget)
    if all(len(u) == 1 for u in probe):
        axes = {u.syllables[0][0] for u in probe}
        if len(axes) == 1:
            return SingleAxisCase(axes.pop())
    cores = {u: cyclic_form(u) for u in probe}
    supports = {support(core) for core in cores.values()}
    if all(len(core) >= 2 for core in cores.values()) and len(supports) == 1:
        return CommonSupportCase(supports.pop())

    return _refute_dichotomy(cores, p, q, w, budget)


def _refute_dichotomy(
    cores: dict[FPElement, FPElement], p: FPElement, q: FPElement, w: Word, budget: int
) -> RefutedCase:
    """The certified member of a family grown from the first probe pair
    (v, u) in sorted order with v's cyclic core of length >= 2 and supp(u)
    not inside supp(v); ``cores`` maps each probe element to its core."""
    probe = sorted(cores)
    supports = {u: support(core) for u, core in cores.items()}
    for v in [v for v in probe if len(cores[v]) >= 2]:
        for u in probe:
            if supports[u] - supports[v]:
                return refute_pair(p, u, v, q, w, n_max=max(4, budget))
    raise GaveUp(f"no refuting pair found within the probe depth of {budget}")


def refute_pair(
    p: FPElement, u: FPElement, v: FPElement, q: FPElement, w: Word, n_max: int = 4
) -> RefutedCase:
    """The case that refutes p·{u, v}*·q against the values of w, from the
    family ``unbounded_family(p, u, v, q, n_max, e)``, e the exponent gcd
    of w: its first member with an exact non-value certificate when it has
    one, else its member of greatest γ with the gap-growth evidence.  v
    needs two or more cyclic syllables, and u a cyclic syllable v lacks."""
    family = unbounded_family(p, u, v, q, n_max=n_max, e=exponent_gcd(w))
    if family.members[0].group.is_free():
        for member in family.members:
            cert = certify_nonvalue(w, to_f2(member))
            if cert is not None:
                return RefutedCase(member, family, cert, exact=True)
    peak = max(range(len(family.members)), key=lambda i: family.gammas[i])
    cert = {
        "method": "gap-growth",
        "gammas": list(family.gammas),
        "gap_base": list(family.b),
    }
    return RefutedCase(family.members[peak], family, cert, exact=False)
