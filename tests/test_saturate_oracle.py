"""The int-bitmask compile path against the set-based oracle: the same
DFA, state for state and transition for transition."""
import random

import pytest

from freerat.automata import reduced_acceptor
from freerat.ratexpr import Finite, Product, RatExpr, Star, Union, format_ratexpr
from freerat.words import Word

from oracle_saturate import acceptor_to_json, reduced_acceptor_json

LETTERS = (1, -1, 2, -2)


def _leaf_word(rng, length: int, letters=LETTERS) -> Word:
    out: list[int] = []
    while len(out) < length:
        a = rng.choice(letters)
        if not out or a != -out[-1]:
            out.append(a)
    return Word(out)


def _membership_shape(rng, leaves: int, depth: int) -> RatExpr:
    # the benchmark's membership expressions: a fixed leaf count, depth <= 10
    if leaves == 1:
        node = Finite({_leaf_word(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 2))})
    else:
        room = 2 ** (depth - 1)
        k = rng.randint(max(1, leaves - room), min(leaves - 1, room))
        cls = Union if rng.random() < 0.6 else Product
        node = cls(_membership_shape(rng, k, depth - 1), _membership_shape(rng, leaves - k, depth - 1))
    if depth > 0 and rng.random() < 0.25:
        return Star(node)
    return node


def _mixed_tree(rng, depth: int) -> RatExpr:
    if depth == 0 or rng.random() < 0.2:
        return Finite({_leaf_word(rng, rng.randint(0, 4)) for _ in range(rng.randint(1, 3))})
    kind = rng.choice(("union", "prod", "prod", "star"))
    if kind == "star":
        return Star(_mixed_tree(rng, depth - 1))
    cls = Union if kind == "union" else Product
    return cls(_mixed_tree(rng, depth - 1), _mixed_tree(rng, depth - 1))


def _inverse_star(rng) -> RatExpr:
    base = Finite({_leaf_word(rng, rng.randint(1, 4), (-1, -2)) for _ in range(rng.randint(1, 3))})
    expr: RatExpr = Star(base)
    if rng.random() < 0.5:
        expr = Product(Finite([_leaf_word(rng, rng.randint(1, 3))]), expr)
    if rng.random() < 0.5:
        expr = Product(expr, Star(Finite([_leaf_word(rng, rng.randint(1, 3))])))
    return expr


def _corpus() -> list[RatExpr]:
    rng = random.Random(20261018)
    out = [_membership_shape(rng, 45, 10) for _ in range(30)]
    out += [_mixed_tree(rng, rng.randint(2, 5)) for _ in range(60)]
    out += [_inverse_star(rng) for _ in range(30)]
    return out


CORPUS = _corpus()


@pytest.mark.parametrize("start", range(0, len(CORPUS), 10))
def test_reduced_acceptor_matches_set_based_oracle(start):
    for expr in CORPUS[start : start + 10]:
        dfa = reduced_acceptor(expr)
        expected = reduced_acceptor_json(expr)
        assert dfa.n_states == expected["states"], format_ratexpr(expr)
        assert acceptor_to_json(dfa) == expected, format_ratexpr(expr)
