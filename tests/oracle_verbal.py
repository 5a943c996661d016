"""Independent oracles for the verbal-set tests.

Kept separate from the test module so the frozen expectations in
test_verbal.py are checked against code with no shared logic beyond the
exactly-tested primitives (root_extract, exponent_profile).

``fp_ball`` and ``fp_values`` enumerate values in a free product of two
cyclic groups, which the library's verbal queries do not: they live in
F₂ only.
"""
from __future__ import annotations

import math
from itertools import product
from typing import Iterable, Optional

from freerat.freeprod import FPElement, FreeProduct, fp_substitute
from freerat.verbal import free_ball
from freerat.words import Word, root_extract


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    # (g, s, t) with s*a + t*b == g == gcd(|a|, |b|) >= 0
    old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def lattice_index(vectors: Iterable[tuple[int, int]]) -> Optional[int]:
    """Index in ℤ² of the subgroup generated by the vectors (None: infinite).

    Builds a two-row Hermite basis by folding extended gcds over the first
    coordinates, then gcd-ing the residual second coordinates.
    """
    vs = [tuple(v) for v in vectors if any(v)]
    if not vs:
        return None
    g, gy = 0, 0
    for x, y in vs:
        if x:
            d, s, t = _egcd(g, x)
            g, gy = d, s * gy + t * y
    if g == 0:
        return None
    h = 0
    for x, y in vs:
        h = math.gcd(h, y - (x // g) * gy)
    if h == 0:
        return None
    return abs(g) * h


def two_square_decomposition(t: Word, u_cap: int = 6) -> Optional[tuple[Word, Word]]:
    """A pair (u, v) with u²v² == t, searching u short-first and solving
    for v exactly by root extraction; None when no u up to u_cap works."""
    for u in free_ball(u_cap):
        v = root_extract((u**2).inv() * t, 2)
        if v is not None:
            return u, v
    return None


def fp_ball(group: FreeProduct, cap: int) -> tuple[FPElement, ...]:
    """Normal forms of syllable length <= cap.

    Exponents on infinite-cyclic factors are capped at ``cap`` in magnitude
    (finite factors contribute every nonzero residue), so this is a finite
    slice of the group rather than a metric ball.
    """
    exps = {}
    for fid, factor in group.factors.items():
        if factor.modulus is None:
            exps[fid] = [e for k in range(1, cap + 1) for e in (k, -k)]
        else:
            exps[fid] = list(range(1, factor.modulus))
    out = [group.identity]
    layer = [group.identity]
    for _ in range(cap):
        nxt = []
        for u in layer:
            last = u.syllables[-1][0] if u.syllables else None
            for fid in sorted(group.factors):
                if fid == last:
                    continue
                for e in exps[fid]:
                    nxt.append(u * group.syllable(fid, e))
        out.extend(nxt)
        layer = nxt
    return tuple(out)


def fp_ball_size(group: FreeProduct, cap: int) -> int:
    """The number of elements of ``fp_ball(group, cap)``, counted without
    building the ball.  A normal form alternates the factors, so the forms
    of length k + 1 ending in one factor are those of length k ending in
    the other, times that factor's exponent count."""
    a, b = (2 * cap if m is None else m - 1 for m in group.moduli)
    total = ends_a = ends_b = 1
    for _ in range(cap):
        ends_a, ends_b = a * ends_b, b * ends_a
        total += ends_a + ends_b
    return total


def fp_values(w: Word, cap: int, group: FreeProduct) -> frozenset[FPElement]:
    """The values of w in the group with every image in ``fp_ball(group, cap)``."""
    ball = fp_ball(group, cap)
    return frozenset(fp_substitute(w, images) for images in product(ball, repeat=w.max_generator()))
