"""Independent oracles for the verbal-set tests.

Kept separate from the test module so the frozen expectations in
test_verbal.py are checked against code with no shared logic beyond the
exactly-tested primitives (root_extract, exponent_profile).
"""
from __future__ import annotations

import math
from typing import Iterable, Optional

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
