"""Words in a finitely generated free group.

A letter is a nonzero integer: ``+i`` is the i-th generator, ``-i`` its
inverse.  A :class:`Word` stores a freely reduced tuple of letters, so
equality of Words is equality of group elements.  The module also provides
the exponent-sum toolkit (profiles, gcd, Bezout coefficients) and exact
root extraction.
"""
from __future__ import annotations

import math
import re
from enum import Enum
from typing import Iterable, Iterator, Optional, Sequence


def _reduce(letters: Iterable[int]) -> tuple[int, ...]:
    # Stack-based free reduction; cancels adjacent inverse pairs.
    out: list[int] = []
    for a in letters:
        if a == 0:
            raise ValueError("letters must be nonzero integers")
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def _reduced_word(letters: tuple[int, ...]) -> "Word":
    """A Word over ``letters`` without reducing them again.

    Invariant: ``letters`` is a tuple of nonzero ints that is already
    freely reduced (no letter next to its inverse).  Input from outside
    goes through ``Word(...)``, which reduces it."""
    w = object.__new__(Word)
    object.__setattr__(w, "letters", letters)
    return w


class Word:
    """A freely reduced word.  Immutable and hashable."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = ()):
        object.__setattr__(self, "letters", _reduce(letters))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    # -- group operations -------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        # Both sides are reduced, so letters cancel only across the seam.
        a, b = self.letters, other.letters
        n, m = len(a), min(len(a), len(b))
        i = 0
        while i < m and a[n - 1 - i] == -b[i]:
            i += 1
        return _reduced_word(a[: n - i] + b[i:])

    def inv(self) -> "Word":
        return _reduced_word(tuple(-a for a in reversed(self.letters)))

    __invert__ = inv

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inv() ** (-n)
        result = Word()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- container / comparison protocol ----------------------------------

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(("Word", self.letters))

    def __lt__(self, other: "Word") -> bool:
        # Shortlex; gives a deterministic order for reports and tests.
        return (len(self.letters), self.letters) < (len(other.letters), other.letters)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"

    # -- convenience -------------------------------------------------------

    def max_generator(self) -> int:
        return max((abs(a) for a in self.letters), default=0)

    def is_positive(self) -> bool:
        """True when no inverse letter occurs (the identity counts)."""
        return all(a > 0 for a in self.letters)


IDENTITY = Word()


def generator(i: int) -> Word:
    """The one-letter word for the i-th generator (i >= 1)."""
    if i < 1:
        raise ValueError("generator index must be >= 1")
    return Word((i,))


def cyclic_reduce(u: Word) -> tuple[Word, Word]:
    """Split ``u`` as ``conjugator⁻¹ · core · conjugator`` with cyclically
    reduced core.  Returns ``(conjugator, core)``."""
    letters = u.letters
    i, j = 0, len(letters) - 1
    peeled: list[int] = []
    while i < j and letters[i] == -letters[j]:
        peeled.append(letters[j])
        i += 1
        j -= 1
    conj = Word(tuple(reversed(peeled)))
    core = Word(letters[i : j + 1])
    return conj, core


def exponent_profile(w: Word, rank: Optional[int] = None) -> tuple[int, ...]:
    """Signed count of each generator's occurrences, indices 1..rank."""
    n = w.max_generator() if rank is None else rank
    if rank is not None and w.max_generator() > rank:
        raise ValueError(f"word uses generators above rank {rank}")
    t = [0] * n
    for a in w.letters:
        t[abs(a) - 1] += 1 if a > 0 else -1
    return tuple(t)


def exponent_gcd(w: Word, rank: Optional[int] = None) -> int:
    """gcd of the absolute exponent sums; 0 iff all sums vanish."""
    return math.gcd(*exponent_profile(w, rank)) if w.letters else 0


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    # (g, x, y) with a*x + b*y == g == gcd(|a|, |b|) >= 0.
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def bezout_coefficients(w: Word, rank: Optional[int] = None) -> tuple[int, ...]:
    """Integers r with sum(r[i] * t[i]) == exponent_gcd(w).

    Computed by folding the extended Euclidean algorithm left over the
    exponent profile; at each fold the new coefficient is shifted to the
    representative of smallest absolute value.
    """
    t = exponent_profile(w, rank)
    coeffs: list[int] = []
    g = 0
    for ti in t:
        if ti == 0:
            coeffs.append(0)
            continue
        if g == 0:
            g = abs(ti)
            coeffs = [0] * len(coeffs) + [1 if ti > 0 else -1]
            continue
        new_g, x, y = _egcd(g, ti)
        m = g // new_g
        y0 = y % m
        if abs(y0 - m) < abs(y0):
            y0 -= m
        x0 = (new_g - ti * y0) // g
        coeffs = [c * x0 for c in coeffs] + [y0]
        g = new_g
    if g == 0:
        raise ValueError("all exponent sums vanish; no Bezout expression")
    coeffs += [0] * (len(t) - len(coeffs))
    assert sum(r * ti for r, ti in zip(coeffs, t)) == g
    return tuple(coeffs)


def substitute(w: Word, images: Sequence[Word]) -> Word:
    """Evaluate ``w`` with the i-th generator replaced by ``images[i-1]``."""
    if w.max_generator() > len(images):
        raise ValueError("not enough images for the generators occurring in w")
    out = Word()
    for a in w.letters:
        img = images[abs(a) - 1]
        out = out * (img if a > 0 else img.inv())
    return out


class WordClass(Enum):
    TRIVIAL = "trivial"
    COMMUTATOR = "commutator"
    IMPROPER = "improper"
    PROPER = "proper"


def classify(w: Word) -> WordClass:
    """Partition by exponent gcd: identity, gcd 0, gcd 1, gcd >= 2."""
    if not w.letters:
        return WordClass.TRIVIAL
    e = exponent_gcd(w)
    if e == 0:
        return WordClass.COMMUTATOR
    if e == 1:
        return WordClass.IMPROPER
    return WordClass.PROPER


def root_extract(u: Word, e: int) -> Optional[Word]:
    """The unique h with h**e == u, or None.

    Works on the cyclically reduced core: a cyclically reduced e-th power
    is its length/e prefix repeated e times, letter for letter.
    """
    if e < 1:
        raise ValueError("root degree must be >= 1")
    if e == 1:
        return u
    if not u.letters:
        return IDENTITY
    conj, core = cyclic_reduce(u)
    if len(core) % e:
        return None
    k = len(core) // e
    prefix = core.letters[:k]
    if prefix * e != core.letters:
        return None
    root = conj.inv() * Word(prefix) * conj
    assert root**e == u
    return root


# -- text form ------------------------------------------------------------

_ATOM = re.compile(r"^x(\d+)(?:\^(-?\d+))?$")
MAX_WORD_LETTERS = 100_000  # letters a parsed word may spell out before reduction


def parse_word(text: str) -> Word:
    """Parse the ``x<k>[^<exp>]`` grammar; ``1`` is the identity.  The
    atoms may spell out at most MAX_WORD_LETTERS letters."""
    letters: list[int] = []
    for pos, token in enumerate(text.split(), start=1):
        if token == "1":
            continue
        m = _ATOM.match(token)
        if not m:
            raise ValueError(f"bad word atom at position {pos}: {token!r}")
        i = int(m.group(1))
        if i < 1:
            raise ValueError(
                f"generator index must be >= 1 at position {pos}: {token!r}"
            )
        k = int(m.group(2)) if m.group(2) is not None else 1
        if len(letters) + abs(k) > MAX_WORD_LETTERS:
            raise ValueError(
                f"word longer than {MAX_WORD_LETTERS} letters at position {pos}"
            )
        letters.extend([i if k > 0 else -i] * abs(k))
    return Word(letters)


def format_word(w: Word) -> str:
    """Inverse of :func:`parse_word`, with runs printed as powers."""
    if not w.letters:
        return "1"
    parts: list[str] = []
    run_letter = w.letters[0]
    run_len = 0
    for a in w.letters + (0,):
        if a == run_letter:
            run_len += 1
            continue
        i = abs(run_letter)
        k = run_len if run_letter > 0 else -run_len
        parts.append(f"x{i}" if k == 1 else f"x{i}^{k}")
        run_letter = a
        run_len = 1
    return " ".join(parts)
