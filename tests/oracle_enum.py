"""Bounded enumeration of a rational expression, straight from its tree.

The reference the tests compare the saturated acceptor against.  It
shares nothing with ``freerat.automata``: stars are unrolled
breadth-first, keeping partial products up to ``max_len + slack``
letters, so factor pairs that overshoot the cap before cancelling back
under it are still found.  The slack covers an overshoot of one step, so
the result can miss members on other inputs; the corpora the tests use
are ones where it is complete.  ``finite`` builds the leaves of the test
corpora from word text.
"""
from __future__ import annotations

from typing import Optional

from freerat.ratexpr import Finite, Product, RatExpr, Star, Union, leaf_words
from freerat.words import IDENTITY, Word, parse_word


def finite(*words: str | Word) -> Finite:
    """A Finite leaf from words or word-grammar text."""
    return Finite(w if isinstance(w, Word) else parse_word(w) for w in words)


def _product_join(left: set[Word], right: set[Word], cap: int) -> set[Word]:
    """{u·v : |u·v| <= cap}, joined via an index on right prefixes so that
    only pairs capable of cancelling down under the cap are multiplied."""
    by_prefix: dict[tuple[int, tuple[int, ...]], list[Word]] = {}
    for v in right:
        for k in range(len(v) + 1):
            by_prefix.setdefault((k, v.letters[:k]), []).append(v)
    for bucket in by_prefix.values():
        bucket.sort(key=len)
    out: set[Word] = set()
    for u in left:
        n = len(u)
        # v cancels k letters of u exactly when it starts with the first k
        # letters of u⁻¹; no v starting with a longer prefix of u⁻¹ exists
        # once no v starts with this one
        inv = u.inv().letters
        for k in range(n + 1):
            bucket = by_prefix.get((k, inv[:k]))
            if bucket is None:
                break
            for v in bucket:
                if n + len(v) - 2 * k > cap:
                    break  # sorted by length; no later v fits
                prod = u * v
                if len(prod) <= cap:
                    out.add(prod)
    return out


def enumerate_bounded(expr: RatExpr, max_len: int, slack: Optional[int] = None) -> set[Word]:
    """Denoted elements of reduced length <= max_len found by unrolling.

    A product can shrink by at most the shorter factor's length, so for
    leaf words of length L a slack of 2L covers every single-step
    overshoot; the default uses that bound.
    """
    if slack is None:
        max_leaf = max((len(w) for w in leaf_words(expr)), default=0)
        slack = 2 * max_leaf + 2
    result = _enumerate(expr, max_len + slack)
    return {w for w in result if len(w) <= max_len}


def _enumerate(expr: RatExpr, cap: int) -> set[Word]:
    if isinstance(expr, Finite):
        return {w for w in expr.elements if len(w) <= cap}
    if isinstance(expr, Union):
        return _enumerate(expr.left, cap) | _enumerate(expr.right, cap)
    if isinstance(expr, Product):
        return _product_join(_enumerate(expr.left, cap), _enumerate(expr.right, cap), cap)
    if isinstance(expr, Star):
        base = _enumerate(expr.inner, cap)
        base.discard(IDENTITY)
        seen: set[Word] = {IDENTITY}
        frontier: set[Word] = {IDENTITY}
        while frontier:
            grown = _product_join(frontier, base, cap)
            frontier = grown - seen
            seen |= frontier
        return seen
    raise TypeError(f"not a RatExpr: {expr!r}")
