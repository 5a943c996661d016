"""Free products G = A ∗ B of two cyclic groups (ℤ or ℤ/m).

Elements are kept in alternating-syllable normal form: a sequence of
(factor_id, exponent) pairs with adjacent pairs from different factors and
no identity exponents.  Equality of normal forms is equality in the group.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from freerat.words import Word

Syllable = tuple[str, int]  # (factor_id, exponent), factor_id in {"a", "b"}


@dataclass(frozen=True)
class FactorModel:
    """One cyclic factor: ℤ when modulus is None, else ℤ/modulus."""

    factor_id: str
    modulus: Optional[int] = None

    def __post_init__(self):
        if self.factor_id not in ("a", "b"):
            raise ValueError("factor_id must be 'a' or 'b'")
        if self.modulus is not None and self.modulus < 2:
            raise ValueError("finite cyclic factor needs modulus >= 2")

    def canon(self, exponent: int) -> int:
        """Canonical exponent: 0 means the factor identity."""
        return exponent if self.modulus is None else exponent % self.modulus


class FreeProduct:
    """The group A ∗ B; acts as the factory for its elements."""

    def __init__(self, a: Optional[int] = None, b: Optional[int] = None):
        self.factors = {"a": FactorModel("a", a), "b": FactorModel("b", b)}

    @property
    def moduli(self) -> tuple[Optional[int], Optional[int]]:
        return (self.factors["a"].modulus, self.factors["b"].modulus)

    def __eq__(self, other) -> bool:
        return isinstance(other, FreeProduct) and self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(("FreeProduct", self.moduli))

    def __repr__(self) -> str:
        def name(m):
            return "Z" if m is None else f"Z/{m}"

        return f"FreeProduct({name(self.moduli[0])} * {name(self.moduli[1])})"

    def element(self, syllables: Iterable[Syllable] = ()) -> "FPElement":
        return FPElement(self, syllables)

    @property
    def identity(self) -> "FPElement":
        return FPElement(self, ())

    def syllable(self, factor_id: str, exponent: int) -> "FPElement":
        return FPElement(self, ((factor_id, exponent),))

    def is_free(self) -> bool:
        return self.moduli == (None, None)


class FPElement:
    """A free-product element in normal form.  Immutable and hashable."""

    __slots__ = ("group", "syllables")

    def __init__(self, group: FreeProduct, syllables: Iterable[Syllable] = ()):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "syllables", _normalize(group, syllables))

    def __setattr__(self, name, value):
        raise AttributeError("FPElement is immutable")

    def __mul__(self, other: "FPElement") -> "FPElement":
        if not isinstance(other, FPElement):
            return NotImplemented
        group = self.group
        if group is not other.group and group != other.group:
            raise ValueError("elements of different free products")
        # Both sides are normal forms, so syllables merge only across the
        # seam: same-factor ends merge, and a merge that gives the identity
        # brings the next two ends (again of one factor) together.
        a, b = self.syllables, other.syllables
        i, j = len(a), 0
        while i and j < len(b) and a[i - 1][0] == b[j][0]:
            f = b[j][0]
            merged = group.factors[f].canon(a[i - 1][1] + b[j][1])
            if merged:
                return _normal_element(group, a[: i - 1] + ((f, merged),) + b[j + 1 :])
            i -= 1
            j += 1
        return _normal_element(group, a[:i] + b[j:])

    def inv(self) -> "FPElement":
        factors = self.group.factors
        return _normal_element(
            self.group,
            tuple((f, factors[f].canon(-k)) for f, k in reversed(self.syllables)),
        )

    __invert__ = inv

    def __pow__(self, n: int) -> "FPElement":
        if n < 0:
            return self.inv() ** (-n)
        result = self.group.identity
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def is_positive(self) -> bool:
        """True when every syllable has a positive exponent.  A finite
        factor's exponents are canonical (0 < k < m), so each of its
        elements counts as positive; so does the identity."""
        return all(k > 0 for _, k in self.syllables)

    def __len__(self) -> int:
        return len(self.syllables)

    def __bool__(self) -> bool:
        return bool(self.syllables)

    def __iter__(self) -> Iterator[Syllable]:
        return iter(self.syllables)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FPElement)
            and self.group == other.group
            and self.syllables == other.syllables
        )

    def __hash__(self) -> int:
        return hash(("FPElement", self.group.moduli, self.syllables))

    def __lt__(self, other: "FPElement") -> bool:
        return (len(self.syllables), self.syllables) < (
            len(other.syllables),
            other.syllables,
        )

    def __repr__(self) -> str:
        return f"FPElement({format_fp(self)!r})"


def _normal_element(group: FreeProduct, syllables: tuple[Syllable, ...]) -> FPElement:
    """An FPElement over ``syllables`` without normalising them again.

    Invariant: ``syllables`` is a tuple in normal form for ``group``:
    adjacent syllables come from different factors and every exponent is
    canonical (``canon(k) == k``) and nonzero.  Input from outside goes
    through ``group.element(...)``, which normalises it."""
    u = object.__new__(FPElement)
    object.__setattr__(u, "group", group)
    object.__setattr__(u, "syllables", syllables)
    return u


def _normalize(group: FreeProduct, syllables: Iterable[Syllable]) -> tuple[Syllable, ...]:
    out: list[Syllable] = []
    for f, k in syllables:
        model = group.factors.get(f)
        if model is None:
            raise ValueError(f"unknown factor id {f!r}")
        k = model.canon(k)
        if k == 0:
            continue
        if out and out[-1][0] == f:
            merged = model.canon(out[-1][1] + k)
            out.pop()
            if merged != 0:
                out.append((f, merged))
        else:
            out.append((f, k))
    return tuple(out)


def support(u: FPElement) -> frozenset[Syllable]:
    """The set of distinct syllables in the normal form."""
    return frozenset(u.syllables)


def cyclic_form(u: FPElement) -> FPElement:
    """The cyclically reduced form of u: the end syllables that cancel in
    pairs are peeled off, and same-factor ends left after that are merged
    into a single closing syllable."""
    if not u:
        raise ValueError("identity has no cyclic form")
    syl = u.syllables
    factors = u.group.factors
    i, j = 0, len(syl) - 1
    while i < j and syl[i][0] == syl[j][0] and factors[syl[i][0]].canon(syl[i][1] + syl[j][1]) == 0:
        i += 1
        j -= 1
    if i < j and syl[i][0] == syl[j][0]:
        # an odd core of three or more syllables whose ends do not cancel
        f = syl[i][0]
        merged = factors[f].canon(syl[i][1] + syl[j][1])
        return _normal_element(u.group, syl[i + 1 : j] + ((f, merged),))
    return _normal_element(u.group, syl[i : j + 1])


# -- the F₂ ≅ ℤ∗ℤ identification ------------------------------------------

FREE_ZZ = FreeProduct()


def from_f2(w: Word) -> FPElement:
    """x₁ᵏ ↦ (a,k), x₂ᵏ ↦ (b,k) in ℤ∗ℤ."""
    syllables = []
    for letter in w.letters:
        i = abs(letter)
        if i > 2:
            raise ValueError("from_f2 is defined on two-generator words")
        syllables.append(("a" if i == 1 else "b", 1 if letter > 0 else -1))
    return FREE_ZZ.element(syllables)


def to_f2(u: FPElement) -> Word:
    if not u.group.is_free():
        raise ValueError("to_f2 needs both factors infinite cyclic")
    letters: list[int] = []
    for f, k in u.syllables:
        i = 1 if f == "a" else 2
        letters.extend([i if k > 0 else -i] * abs(k))
    return Word(letters)


def fp_substitute(w: Word, images: Sequence[FPElement]) -> FPElement:
    """The value w(g₁, …, gₙ): generator i maps to images[i-1]."""
    if not images:
        raise ValueError("fp_substitute needs at least one image")
    group = images[0].group
    out = group.identity
    for letter in w.letters:
        i = abs(letter)
        if i > len(images):
            raise ValueError(f"word uses generator {i} but only {len(images)} images given")
        g = images[i - 1]
        out = out * (g if letter > 0 else g.inv())
    return out


# -- text form ------------------------------------------------------------

_FP_ATOM = re.compile(r"^([ab])(?:\^(-?\d+))?$")


def parse_fp(text: str, group: FreeProduct = FREE_ZZ) -> FPElement:
    """Parse the ``a^<k>`` / ``b^<k>`` grammar; ``1`` is the identity."""
    syllables: list[Syllable] = []
    for pos, token in enumerate(text.split(), start=1):
        if token == "1":
            continue
        m = _FP_ATOM.match(token)
        if not m:
            raise ValueError(f"bad free-product atom at position {pos}: {token!r}")
        k = int(m.group(2)) if m.group(2) is not None else 1
        syllables.append((m.group(1), k))
    return group.element(syllables)


def format_fp(u: FPElement) -> str:
    if not u:
        return "1"
    return " ".join(f if k == 1 else f"{f}^{k}" for f, k in u.syllables)
