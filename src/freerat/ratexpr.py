"""Rational-set expressions over a free group.

A :class:`RatExpr` is a tree of Finite / Union / Product / Star nodes with a
cached structural complexity: 0 for Finite leaves, otherwise one more than
the largest child complexity.  Questions about the denoted set (membership,
enumeration, emptiness, positivity) are answered on its saturated acceptor,
``freerat.automata.reduced_acceptor``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from freerat.words import IDENTITY, Word, format_word, parse_word


class RatExpr:
    """Base class; nodes are immutable and hashable."""

    complexity: int

    def __repr__(self) -> str:
        return f"RatExpr({format_ratexpr(self)!r})"


@dataclass(frozen=True, repr=False)
class Finite(RatExpr):
    elements: frozenset[Word]
    complexity: int = field(init=False, default=0, compare=False)

    def __init__(self, elements: Iterable[Word] = ()):
        object.__setattr__(self, "elements", frozenset(elements))
        object.__setattr__(self, "complexity", 0)

    def sorted_elements(self) -> list[Word]:
        return sorted(self.elements)


@dataclass(frozen=True, repr=False)
class Union(RatExpr):
    left: RatExpr
    right: RatExpr
    complexity: int = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "complexity", 1 + max(self.left.complexity, self.right.complexity)
        )


@dataclass(frozen=True, repr=False)
class Product(RatExpr):
    left: RatExpr
    right: RatExpr
    complexity: int = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "complexity", 1 + max(self.left.complexity, self.right.complexity)
        )


@dataclass(frozen=True, repr=False)
class Star(RatExpr):
    inner: RatExpr
    complexity: int = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "complexity", 1 + self.inner.complexity)


EMPTY = Finite()
EPSILON = Finite([IDENTITY])


def complexity(expr: RatExpr) -> int:
    return expr.complexity


def leaf_words(expr: RatExpr) -> set[Word]:
    """All words appearing in Finite leaves."""
    if isinstance(expr, Finite):
        return set(expr.elements)
    if isinstance(expr, (Union, Product)):
        return leaf_words(expr.left) | leaf_words(expr.right)
    if isinstance(expr, Star):
        return leaf_words(expr.inner)
    raise TypeError(f"not a RatExpr: {expr!r}")


def max_rank(expr: RatExpr) -> int:
    return max((w.max_generator() for w in leaf_words(expr)), default=0)


# -- structure-preserving transforms ---------------------------------------


def conjugate_expr(expr: RatExpr, g: Word) -> RatExpr:
    """An expression for g⁻¹·L·g with the same structural complexity,
    obtained by conjugating every Finite leaf elementwise."""
    out = _map_leaves(expr, lambda w: g.inv() * w * g)
    assert out.complexity == expr.complexity
    return out


def _map_leaves(expr: RatExpr, f: Callable[[Word], Word]) -> RatExpr:
    if isinstance(expr, Finite):
        return Finite(f(w) for w in expr.elements)
    if isinstance(expr, Union):
        return Union(_map_leaves(expr.left, f), _map_leaves(expr.right, f))
    if isinstance(expr, Product):
        return Product(_map_leaves(expr.left, f), _map_leaves(expr.right, f))
    if isinstance(expr, Star):
        return Star(_map_leaves(expr.inner, f))
    raise TypeError(f"not a RatExpr: {expr!r}")


# -- s-expression text form ------------------------------------------------


MAX_DEPTH = 200  # operators an expression may nest; the tree walks recurse


def parse_ratexpr(text: str) -> RatExpr:
    """Parse `(fin ...)`, `(union e1 e2)`, `(prod e1 e2)`, `(star e)`.

    Inside `fin`, an element is a single word atom or a parenthesized atom
    sequence: `(fin x1 (x2 x1^-1))` denotes {x₁, x₂x₁⁻¹}.  Operators may
    nest at most MAX_DEPTH deep.  Errors carry the 1-based token position.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    n = len(tokens)
    i = 0  # index of the next token; its position is i + 1
    open_ops: list[tuple[str, int, list[RatExpr]]] = []  # (operator, position, operands)
    while True:
        # parse a node starting at token i
        if i >= n:
            raise ValueError("unexpected end of expression")
        if tokens[i] != "(":
            raise ValueError(f"expected '(' at position {i + 1}, got {tokens[i]!r}")
        if i + 1 >= n:
            raise ValueError(f"missing operator after '(' at position {i + 1}")
        head, head_pos = tokens[i + 1], i + 2
        i += 2
        if head in ("union", "prod", "star"):
            if len(open_ops) == MAX_DEPTH:
                raise ValueError(
                    f"operators nest deeper than {MAX_DEPTH} levels at position {head_pos}"
                )
            open_ops.append((head, head_pos, []))
            continue
        if head != "fin":
            raise ValueError(f"unknown operator at position {head_pos}: {head!r}")
        words = []
        while i < n and tokens[i] != ")":
            if tokens[i] == "(":
                try:
                    close = tokens.index(")", i)
                except ValueError:
                    raise ValueError(f"missing ')' after position {i + 1}") from None
                words.append(parse_word(" ".join(tokens[i + 1 : close])))
                i = close + 1
            else:
                words.append(parse_word(tokens[i]))
                i += 1
        if i >= n:
            raise ValueError(f"missing ')' for fin at position {head_pos}")
        i += 1
        node: RatExpr = Finite(words)
        # hand the node to the innermost open operator, closing every
        # operator that it completes
        while open_ops:
            head, head_pos, operands = open_ops[-1]
            operands.append(node)
            if head != "star" and len(operands) == 1:
                break
            if i >= n or tokens[i] != ")":
                arity = "exactly one sub-expression" if head == "star" else "exactly two sub-expressions"
                raise ValueError(f"({head} ...) at position {head_pos} takes {arity}")
            i += 1
            open_ops.pop()
            if head == "star":
                node = Star(node)
            else:
                node = (Union if head == "union" else Product)(*operands)
        if not open_ops:
            if i < n:
                raise ValueError(f"trailing tokens at position {i + 1}: {tokens[i]!r}")
            return node


def format_ratexpr(expr: RatExpr) -> str:
    if isinstance(expr, Finite):
        parts = []
        for w in expr.sorted_elements():
            text = format_word(w)
            parts.append(f"({text})" if " " in text else text)
        return f"(fin {' '.join(parts)})" if parts else "(fin)"
    if isinstance(expr, Union):
        return f"(union {format_ratexpr(expr.left)} {format_ratexpr(expr.right)})"
    if isinstance(expr, Product):
        return f"(prod {format_ratexpr(expr.left)} {format_ratexpr(expr.right)})"
    if isinstance(expr, Star):
        return f"(star {format_ratexpr(expr.inner)})"
    raise TypeError(f"not a RatExpr: {expr!r}")
