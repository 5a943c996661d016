"""Enumeration oracle for the deepest negative member of a star base.

Lists every accepted string up to the window and keeps the first one whose
last negative syllable comes latest — exponential in the window, but with
no logic shared with the configuration search in ``signs.deepest_negative``.
"""
from __future__ import annotations

from typing import Optional

from freerat.automata import Acceptor, enumerate_accepted
from freerat.freeprod import from_f2
from freerat.signs import STANDARD_F2_SIGN, last_negative_index
from freerat.words import Word


def deepest_negative_by_enumeration(bad: Acceptor, window: int) -> Optional[tuple[int, ...]]:
    best = None  # (index, string)
    for s in enumerate_accepted(bad, window):
        idx = last_negative_index(from_f2(Word(s)), STANDARD_F2_SIGN)
        if best is None or idx > best[0]:
            best = (idx, s)
    return None if best is None else best[1]
