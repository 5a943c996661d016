"""Brute-force oracle for block decomposability of positive words.

Enumerates every nondecreasing tuple of 2n-1 interior split points and
checks the resulting segments directly against a set of support
syllables, sharing nothing with the production run count.
"""
from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterable

from freerat.words import Word

_AXIS = {1: "a", 2: "b"}


def _segment_syllables(letters: tuple[int, ...]) -> list[tuple[str, int]]:
    out: list[tuple[str, int]] = []
    for a in letters:
        fid = _AXIS[a]
        if out and out[-1][0] == fid:
            out[-1] = (fid, out[-1][1] + 1)
        else:
            out.append((fid, 1))
    return out


def brute_decomposable(u: Word, support: Iterable[tuple[str, int]], n: int) -> bool:
    letters = u.letters
    assert all(a > 0 for a in letters)
    support = set(support)
    N = len(letters)
    for interior in combinations_with_replacement(range(N + 1), 2 * n - 1):
        points = (0,) + interior + (N,)
        for idx in range(2 * n):
            seg = letters[points[idx] : points[idx + 1]]
            if idx % 2 == 0:
                if any(s not in support for s in _segment_syllables(seg)):
                    break
            else:
                if len({a for a in seg}) > 1:
                    break
        else:
            return True
    return False
