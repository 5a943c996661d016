"""Block decomposability of positive words: the run count the refuter's
witness construction rests on, and a brute-force oracle for it.

:func:`decomposable` counts long runs; :func:`brute_decomposable` searches
split points directly against a set of support syllables, sharing nothing
with the count.
"""
from __future__ import annotations

from itertools import groupby
from typing import Iterable

from freerat.refuter import DecompositionScheme
from freerat.words import Word

_AXIS = {1: "a", 2: "b"}


def decomposable(u: Word, scheme: DecompositionScheme) -> tuple[bool, dict]:
    """Whether u splits as s₁t₁…sₙtₙ with each sᵢ a support word (no run
    longer than its letter's bound) and each tᵢ an axis power (either sign
    of block may be empty).  Returns the verdict with a trace.

    Call a run of u long when it is longer than its letter's bound.  A
    long run lies in no support word, so some tᵢ meets it: tᵢ holds some
    of its letters, or tᵢ is empty at a point strictly inside it.  A tᵢ
    meets at most one run, so each long run needs a pair of its own.  The
    last block tₙ ends u, so it meets a long run only when u ends in one;
    a word that does not needs one more pair for its tail.  That count of
    pairs also suffices: the k-th long run is tₖ, sₖ the short runs before
    it, and the short runs after the last long run are the tail's support
    word.  So u splits into n pairs exactly when the count is at most n; a
    word with no long run needs one pair.
    """
    letters = u.letters
    if any(a < 0 for a in letters):
        raise ValueError("block decomposition is defined for positive words")
    bound = {1: scheme.a, 2: scheme.b}
    long = [sum(1 for _ in run) > bound[a] for a, run in groupby(letters)]
    pairs = sum(long) + (not long or not long[-1])
    verdict = pairs <= scheme.n
    trace = {
        "decomposable": verdict,
        "scheme": scheme.as_json(),
        "letters": len(letters),
        "pairs_needed": pairs,
    }
    return verdict, trace


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
    """Whether u splits into 2n segments, alternately a word whose
    syllables all lie in ``support`` and a power of one letter: a
    depth-first search over the end of each segment in turn, which drops a
    split at its first bad segment."""
    letters = u.letters
    assert all(a > 0 for a in letters)
    support = set(support)

    def fits(start: int, end: int, idx: int) -> bool:
        seg = letters[start:end]
        if idx % 2 == 0:
            return all(s in support for s in _segment_syllables(seg))
        return len(set(seg)) <= 1

    def split(start: int, idx: int) -> bool:
        if idx == 2 * n - 1:
            return fits(start, len(letters), idx)
        return any(
            fits(start, end, idx) and split(end, idx + 1) for end in range(start, len(letters) + 1)
        )

    return split(0, 0)
