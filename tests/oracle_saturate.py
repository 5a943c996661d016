"""Set-based saturation, restriction and determinization oracle.

The straightforward construction the int-bitmask compile path in
``freerat.automata`` replaces: a Thompson automaton whose edges carry
whole words, split into letters; every round rebuilds each state's silent
closure as a Python set until no letter edge adds a silent edge; and
acceptors are dicts from (state, letter) to frozensets of states.  It
shares no automaton code with the library, so a test can compare the two
compiled DFAs transition by transition (``acceptor_to_json`` writes the
library's DFA in the oracle's form).  ``CORPUS`` is a seeded list of
expressions shared by the tests that compare compiled DFAs.
"""
from __future__ import annotations

import random

from freerat.ratexpr import Finite, Product, RatExpr, Star, Union, max_rank
from freerat.words import IDENTITY, Word


def thompson(expr: RatExpr):
    """(n_states, initial, final, [(p, word, q)]) of a Thompson-style
    automaton with word labels; the identity word labels a silent edge."""
    edges: list = []

    def build(e: RatExpr, base: int) -> tuple[int, int, int]:
        if isinstance(e, Finite):
            edges.extend((base, w, base + 1) for w in sorted(e.elements))
            return base + 2, base, base + 1
        if isinstance(e, Star):
            n, i, f = build(e.inner, base)
            edges.extend([(n, IDENTITY, i), (f, IDENTITY, n)])
            return n + 1, n, n
        n1, i1, f1 = build(e.left, base)
        n2, i2, f2 = build(e.right, n1)
        if isinstance(e, Product):
            edges.append((f1, IDENTITY, i2))
            return n2, i1, f2
        assert isinstance(e, Union)
        i, f = n2, n2 + 1
        edges.extend([(i, IDENTITY, i1), (i, IDENTITY, i2), (f1, IDENTITY, f), (f2, IDENTITY, f)])
        return n2 + 2, i, f

    n, initial, final = build(expr, 0)
    return n, initial, final, edges


def _closure(eps: dict[int, set[int]], n: int) -> list[set[int]]:
    # Reflexive-transitive closure of the silent edges.
    out = []
    for s in range(n):
        seen = {s}
        stack = [s]
        while stack:
            p = stack.pop()
            for q in eps.get(p, ()):
                if q not in seen:
                    seen.add(q)
                    stack.append(q)
        out.append(seen)
    return out


def saturate(expr: RatExpr, alphabet: frozenset[int]):
    """(initial states, finals, delta) of the reduced forms of L(expr)."""
    n, initial, final, transitions = thompson(expr)
    letter_edges: list[tuple[int, int, int]] = []
    eps: dict[int, set[int]] = {}
    for p, w, q in transitions:
        if not w.letters:
            eps.setdefault(p, set()).add(q)
            continue
        prev = p
        for a in w.letters[:-1]:
            letter_edges.append((prev, a, n))
            prev = n
            n += 1
        letter_edges.append((prev, w.letters[-1], q))

    by_source: dict[tuple[int, int], set[int]] = {}
    for p, a, q in letter_edges:
        by_source.setdefault((p, a), set()).add(q)
    changed = True
    while changed:
        changed = False
        closure = _closure(eps, n)
        for p, a, r in letter_edges:
            for s in closure[r]:
                for q in by_source.get((s, -a), ()):
                    if q not in eps.setdefault(p, set()):
                        eps[p].add(q)
                        changed = True

    closure = _closure(eps, n)
    finals = {p for p in range(n) if final in closure[p]}
    delta: dict[tuple[int, int], set[int]] = {}
    for p in range(n):
        for s in closure[p]:
            for a in alphabet:
                targets = by_source.get((s, a))
                if targets:
                    delta.setdefault((p, a), set()).update(targets)
    return _restrict_reduced(alphabet, frozenset([initial]), finals, delta)


def _restrict_reduced(alphabet, initial, finals, nfa_delta):
    pairs: dict[tuple[int, int], int] = {}

    def pid(q: int, last: int) -> int:
        return pairs.setdefault((q, last), len(pairs))

    init = frozenset(pid(q, 0) for q in initial)
    delta: dict[tuple[int, int], set[int]] = {}
    work = list(pairs)
    done = set()
    while work:
        q, last = work.pop()
        if (q, last) in done:
            continue
        done.add((q, last))
        src = pairs[(q, last)]
        for a in alphabet:
            if last != 0 and a == -last:
                continue
            for t in nfa_delta.get((q, a), ()):
                delta.setdefault((src, a), set()).add(pid(t, a))
                if (t, a) not in done:
                    work.append((t, a))
    out_finals = frozenset(i for (q, _), i in pairs.items() if q in finals)
    return init, out_finals, {k: frozenset(v) for k, v in delta.items()}


def determinize(alphabet, initial, finals, delta):
    """(n_states, finals, delta) of the complete subset DFA, numbered in
    the order a last-in first-out worklist over ``alphabet`` finds them."""

    def step(states, a):
        out: set[int] = set()
        for s in states:
            out |= delta.get((s, a), frozenset())
        return frozenset(out)

    ids: dict[frozenset[int], int] = {initial: 0}
    dfa: dict[tuple[int, int], int] = {}
    work = [initial]
    seen = set()
    while work:
        states = work.pop()
        if states in seen:
            continue
        seen.add(states)
        for a in alphabet:
            nxt = step(states, a)
            dfa[(ids[states], a)] = ids.setdefault(nxt, len(ids))
            if nxt not in seen:
                work.append(nxt)
    dfa_finals = frozenset(i for s, i in ids.items() if s & finals)
    return len(ids), dfa_finals, dfa


def reduced_acceptor_json(expr: RatExpr) -> dict:
    """The oracle's DFA for ``expr`` in ``acceptor_to_json`` form."""
    rank = max(2, max_rank(expr))
    alphabet = frozenset(a for i in range(1, rank + 1) for a in (i, -i))
    n, finals, delta = determinize(alphabet, *saturate(expr, alphabet))
    return {
        "alphabet": sorted(alphabet),
        "states": n,
        "initial": [0],
        "terminals": sorted(finals),
        "transitions": sorted([p, a, q] for (p, a), q in delta.items()),
    }


def acceptor_to_json(acc) -> dict:
    """A library ``Acceptor`` in the form :func:`reduced_acceptor_json` returns."""
    return {
        "alphabet": sorted(acc.alphabet),
        "states": acc.n_states,
        "initial": [s for s in range(acc.n_states) if acc.initial >> s & 1],
        "terminals": [s for s in range(acc.n_states) if acc.finals >> s & 1],
        "transitions": sorted([p, a, q] for p, a, q in acc.transitions()),
    }


# -- a seeded corpus of expressions ----------------------------------------
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
