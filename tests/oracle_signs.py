"""Reference searches for the positivity questions of ``signs``.

``positive_witness_by_difference`` finds the shortest non-positive member
of a rational subset of F₂ as a shortest string in the difference of its
acceptor with the one-state acceptor of all positive strings: a product
with a determinized complement, where ``signs.positive_witness`` searches
the acceptor alone.

``deepest_negative_by_enumeration`` lists every accepted string up to the
window and keeps the first one whose last negative syllable comes latest,
skipping those with a negative syllable past the bound — exponential in
the window, but with no logic shared with the configuration search in
``signs.deepest_negative``.
"""
from __future__ import annotations

from typing import Optional

from oracle_boolean import difference

from freerat.automata import Acceptor, enumerate_accepted, reduced_acceptor, shortest_accepted
from freerat.freeprod import from_f2
from freerat.ratexpr import RatExpr
from freerat.signs import STANDARD_F2_SIGN, last_negative_index
from freerat.words import Word


def positive_universe() -> Acceptor:
    """All strings over the positive letters 1 and 2 (no inverses): one
    state, initial and final, with a loop on each letter."""
    return Acceptor(frozenset((1, 2)), [(1, 1)], 1, 1)


def positive_witness_by_difference(expr: RatExpr) -> Optional[Word]:
    bad = difference(reduced_acceptor(expr), positive_universe())
    s = shortest_accepted(bad)
    return None if s is None else Word(s)


def deepest_negative_by_enumeration(
    bad: Acceptor, window: int, bound: int
) -> Optional[tuple[int, tuple[int, ...]]]:
    best = None  # (index, string)
    for s in enumerate_accepted(bad, window):
        idx = last_negative_index(from_f2(Word(s)), STANDARD_F2_SIGN)
        if idx <= bound and (best is None or idx > best[0]):
            best = (idx, s)
    return best
