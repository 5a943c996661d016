"""Set-based saturation, restriction and determinization oracle.

The straightforward construction the int-bitmask compile path in
``freerat.automata`` replaces: a Thompson automaton whose edges carry
whole words, split into letters; every round rebuilds each state's silent
closure as a Python set until no letter edge adds a silent edge; and
acceptors are dicts from (state, letter) to frozensets of states.  It
shares no automaton code with the library, so a test can compare the two
compiled DFAs transition by transition (``acceptor_to_json`` writes the
library's DFA in the oracle's form).
"""
from __future__ import annotations

from freerat.ratexpr import Finite, Product, RatExpr, Star, Union, max_rank
from freerat.words import IDENTITY


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
