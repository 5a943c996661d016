"""Group automata over free groups and exact rational-set membership.

A :class:`GAutomaton` carries Word labels.  :func:`saturate` turns it into
a plain string acceptor of exactly the reduced forms of its language: the
labels are split into single letters, silent transitions are added to a
fixpoint for every cancelling pattern  p --ℓ--> r ~~ε~~> s --ℓ⁻¹--> q,
and the result is restricted to freely reduced strings.  Membership,
Boolean operations and emptiness are then ordinary automaton algorithms.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from freerat.ratexpr import Finite, Product, RatExpr, Star, Union, max_rank
from freerat.words import IDENTITY, Word


@dataclass(frozen=True)
class GAutomaton:
    """States 0..n_states-1; transitions carry group elements."""

    n_states: int
    initial: int
    finals: frozenset[int]
    transitions: tuple[tuple[int, Word, int], ...]

    def __post_init__(self):
        assert 0 <= self.initial < self.n_states
        for p, _, q in self.transitions:
            assert 0 <= p < self.n_states and 0 <= q < self.n_states


def expr_to_automaton(expr: RatExpr) -> GAutomaton:
    """Thompson-style composition with one initial and one final state."""
    n, initial, final, trans = _build(expr, 0)
    return GAutomaton(n, initial, frozenset([final]), tuple(trans))


def _build(expr: RatExpr, base: int) -> tuple[int, int, int, list]:
    # Returns (next_free_state, initial, final, transitions); states >= base.
    if isinstance(expr, Finite):
        i, f = base, base + 1
        return base + 2, i, f, [(i, w, f) for w in sorted(expr.elements)]
    if isinstance(expr, Union):
        n1, i1, f1, t1 = _build(expr.left, base)
        n2, i2, f2, t2 = _build(expr.right, n1)
        i, f = n2, n2 + 1
        eps = [(i, IDENTITY, i1), (i, IDENTITY, i2), (f1, IDENTITY, f), (f2, IDENTITY, f)]
        return n2 + 2, i, f, t1 + t2 + eps
    if isinstance(expr, Product):
        n1, i1, f1, t1 = _build(expr.left, base)
        n2, i2, f2, t2 = _build(expr.right, n1)
        return n2, i1, f2, t1 + t2 + [(f1, IDENTITY, i2)]
    if isinstance(expr, Star):
        n1, i1, f1, t1 = _build(expr.inner, base)
        hub = n1
        return n1 + 1, hub, hub, t1 + [(hub, IDENTITY, i1), (f1, IDENTITY, hub)]
    raise TypeError(f"not a RatExpr: {expr!r}")


# -- state elimination -----------------------------------------------------


def _simplify_union(a: Optional[RatExpr], b: RatExpr) -> RatExpr:
    if a is None:
        return b
    if isinstance(a, Finite) and not a.elements:
        return b
    if isinstance(b, Finite) and not b.elements:
        return a
    if isinstance(a, Finite) and isinstance(b, Finite):
        return Finite(a.elements | b.elements)
    return Union(a, b)


def _simplify_product(a: RatExpr, b: RatExpr) -> RatExpr:
    for x, y in ((a, b), (b, a)):
        if isinstance(x, Finite):
            if not x.elements:
                return Finite()
            if x.elements == frozenset([IDENTITY]):
                return y
    if isinstance(a, Finite) and isinstance(b, Finite):
        return Finite(u * v for u in a.elements for v in b.elements)
    return Product(a, b)


def automaton_to_expr(aut: GAutomaton) -> RatExpr:
    """State elimination on a generalized automaton with RatExpr edges."""
    start, end = aut.n_states, aut.n_states + 1
    edges: dict[tuple[int, int], RatExpr] = {}

    def add(p: int, q: int, expr: RatExpr):
        edges[(p, q)] = _simplify_union(edges.get((p, q)), expr)

    for p, w, q in aut.transitions:
        add(p, q, Finite([w]))
    add(start, aut.initial, Finite([IDENTITY]))
    for f in aut.finals:
        add(f, end, Finite([IDENTITY]))

    for r in range(aut.n_states):
        loop = edges.pop((r, r), None)
        into = {p: e for (p, q), e in edges.items() if q == r and p != r}
        outof = {q: e for (p, q), e in edges.items() if p == r and q != r}
        for key in list(edges):
            if r in key:
                del edges[key]
        for p, e_in in into.items():
            for q, e_out in outof.items():
                path = e_in
                if loop is not None:
                    path = _simplify_product(path, Star(loop))
                path = _simplify_product(path, e_out)
                add(p, q, path)
    return edges.get((start, end), Finite())


# -- string acceptors ------------------------------------------------------


class Acceptor:
    """An NFA over signed-letter strings (no silent transitions)."""

    __slots__ = ("alphabet", "initial", "finals", "delta", "n_states")

    def __init__(
        self,
        alphabet: frozenset[int],
        n_states: int,
        initial: frozenset[int],
        finals: frozenset[int],
        delta: dict[tuple[int, int], frozenset[int]],
    ):
        self.alphabet = alphabet
        self.n_states = n_states
        self.initial = initial
        self.finals = finals
        self.delta = delta

    def step(self, states: frozenset[int], letter: int) -> frozenset[int]:
        out: set[int] = set()
        for s in states:
            out |= self.delta.get((s, letter), frozenset())
        return frozenset(out)

    def accepts(self, letters: Sequence[int]) -> bool:
        states = self.initial
        for a in letters:
            states = self.step(states, a)
            if not states:
                return False
        return bool(states & self.finals)

    def accepts_word(self, w: Word) -> bool:
        return self.accepts(w.letters)


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


def saturate(aut: GAutomaton, alphabet: Optional[frozenset[int]] = None) -> Acceptor:
    """String acceptor of exactly the reduced forms of L(aut)."""
    if alphabet is None:
        rank = max(
            (w.max_generator() for _, w, _ in aut.transitions), default=1
        )
        alphabet = frozenset(a for i in range(1, rank + 1) for a in (i, -i))

    # (i) split multi-letter labels
    n = aut.n_states
    letter_edges: list[tuple[int, int, int]] = []
    eps: dict[int, set[int]] = {}
    for p, w, q in aut.transitions:
        if not w.letters:
            eps.setdefault(p, set()).add(q)
            continue
        prev = p
        for a in w.letters[:-1]:
            letter_edges.append((prev, a, n))
            prev = n
            n += 1
        letter_edges.append((prev, w.letters[-1], q))

    # (ii) silent-edge fixpoint: p --ℓ--> r ~~> s --ℓ⁻¹--> q adds p ~~> q
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

    # (iii) silent-edge elimination, then restriction to reduced strings
    closure = _closure(eps, n)
    finals = {p for p in range(n) if closure[p] & aut.finals}
    delta: dict[tuple[int, int], set[int]] = {}
    for p in range(n):
        for s in closure[p]:
            for a in alphabet:
                targets = by_source.get((s, a))
                if targets:
                    delta.setdefault((p, a), set()).update(targets)

    return _restrict_reduced(
        Acceptor(
            alphabet,
            n,
            frozenset([aut.initial]),
            frozenset(finals),
            {k: frozenset(v) for k, v in delta.items()},
        )
    )


def _restrict_reduced(acc: Acceptor) -> Acceptor:
    """Product with the two-letter-window automaton of reduced strings."""
    # Pair states (q, last letter or 0); forbid following ℓ by ℓ⁻¹.
    pairs: dict[tuple[int, int], int] = {}

    def pid(q: int, last: int) -> int:
        return pairs.setdefault((q, last), len(pairs))

    init = frozenset(pid(q, 0) for q in acc.initial)
    delta: dict[tuple[int, int], set[int]] = {}
    work = list(pairs)
    done = set()
    while work:
        q, last = work.pop()
        if (q, last) in done:
            continue
        done.add((q, last))
        src = pairs[(q, last)]
        for a in acc.alphabet:
            if last != 0 and a == -last:
                continue
            targets = acc.delta.get((q, a))
            if not targets:
                continue
            for t in targets:
                delta.setdefault((src, a), set()).add(pid(t, a))
                if (t, a) not in done:
                    work.append((t, a))
    finals = frozenset(
        i for (q, last), i in pairs.items() if q in acc.finals
    )
    return Acceptor(
        acc.alphabet,
        len(pairs),
        init,
        finals,
        {k: frozenset(v) for k, v in delta.items()},
    )


# -- determinization and Boolean operations --------------------------------


def determinize(acc: Acceptor) -> Acceptor:
    """Complete DFA (as a 1-element-per-set Acceptor) over acc.alphabet."""
    ids: dict[frozenset[int], int] = {}

    def sid(states: frozenset[int]) -> int:
        return ids.setdefault(states, len(ids))

    start = sid(acc.initial)
    delta: dict[tuple[int, int], frozenset[int]] = {}
    work = [acc.initial]
    seen = set()
    while work:
        states = work.pop()
        if states in seen:
            continue
        seen.add(states)
        src = ids[states]
        for a in acc.alphabet:
            nxt = acc.step(states, a)
            delta[(src, a)] = frozenset([sid(nxt)])
            if nxt not in seen:
                work.append(nxt)
    finals = frozenset(i for s, i in ids.items() if s & acc.finals)
    return Acceptor(acc.alphabet, len(ids), frozenset([start]), finals, delta)


def intersect(a: Acceptor, b: Acceptor) -> Acceptor:
    alphabet = a.alphabet | b.alphabet
    ids: dict[tuple[frozenset[int], frozenset[int]], int] = {}

    def sid(pair) -> int:
        return ids.setdefault(pair, len(ids))

    start = (a.initial, b.initial)
    sid(start)
    delta: dict[tuple[int, int], frozenset[int]] = {}
    work = [start]
    seen = set()
    while work:
        pa, pb = work.pop()
        if (pa, pb) in seen:
            continue
        seen.add((pa, pb))
        src = ids[(pa, pb)]
        for letter in alphabet:
            na, nb = a.step(pa, letter), b.step(pb, letter)
            if not na or not nb:
                continue
            delta[(src, letter)] = frozenset([sid((na, nb))])
            if (na, nb) not in seen:
                work.append((na, nb))
    finals = frozenset(
        i for (pa, pb), i in ids.items() if (pa & a.finals) and (pb & b.finals)
    )
    return Acceptor(alphabet, len(ids), frozenset([ids[start]]), finals, delta)


def reduced_universe(alphabet: frozenset[int]) -> Acceptor:
    """Acceptor of all freely reduced strings over the alphabet."""
    # state 0 = start; state of letter ℓ = its index in the sorted alphabet + 1
    letters = sorted(alphabet)
    index = {a: i + 1 for i, a in enumerate(letters)}
    delta: dict[tuple[int, int], frozenset[int]] = {}
    for a in letters:
        delta[(0, a)] = frozenset([index[a]])
    for last in letters:
        for a in letters:
            if a != -last:
                delta[(index[last], a)] = frozenset([index[a]])
    n = len(letters) + 1
    return Acceptor(alphabet, n, frozenset([0]), frozenset(range(n)), delta)


def complement_reduced(acc: Acceptor) -> Acceptor:
    """Reduced strings not accepted by acc."""
    dfa = determinize(acc)
    flipped = Acceptor(
        dfa.alphabet,
        dfa.n_states,
        dfa.initial,
        frozenset(range(dfa.n_states)) - dfa.finals,
        dfa.delta,
    )
    return intersect(flipped, reduced_universe(acc.alphabet))


def difference(a: Acceptor, b: Acceptor) -> Acceptor:
    if a.alphabet - b.alphabet:
        b = Acceptor(a.alphabet | b.alphabet, b.n_states, b.initial, b.finals, b.delta)
    return intersect(a, complement_reduced(b))


def shortest_accepted(acc: Acceptor) -> Optional[tuple[int, ...]]:
    """BFS witness string, or None when the language is empty."""
    seen = {acc.initial}
    queue = deque([(acc.initial, ())])
    while queue:
        states, string = queue.popleft()
        if states & acc.finals:
            return string
        for a in sorted(acc.alphabet):
            nxt = acc.step(states, a)
            if nxt and nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, string + (a,)))
    return None


def is_empty(acc: Acceptor) -> bool:
    return shortest_accepted(acc) is None


def equivalent(a: Acceptor, b: Acceptor) -> bool:
    return is_empty(difference(a, b)) and is_empty(difference(b, a))


def enumerate_accepted(acc: Acceptor, max_len: int) -> Iterator[tuple[int, ...]]:
    """All accepted strings of length <= max_len (lexicographic by length)."""
    layer: list[tuple[frozenset[int], tuple[int, ...]]] = [(acc.initial, ())]
    for _ in range(max_len + 1):
        nxt = []
        for states, string in layer:
            if states & acc.finals:
                yield string
            for a in sorted(acc.alphabet):
                stepped = acc.step(states, a)
                if stepped:
                    nxt.append((stepped, string + (a,)))
        layer = nxt


def acceptor_to_json(acc: Acceptor) -> dict:
    return {
        "alphabet": sorted(acc.alphabet),
        "states": acc.n_states,
        "initial": sorted(acc.initial),
        "terminals": sorted(acc.finals),
        "transitions": sorted(
            [p, a, q] for (p, a), targets in acc.delta.items() for q in targets
        ),
    }


# -- expression-level membership -------------------------------------------


@lru_cache(maxsize=512)
def reduced_acceptor(expr: RatExpr) -> Acceptor:
    """Deterministic acceptor of the reduced forms of the denoted set."""
    rank = max(2, max_rank(expr))
    alphabet = frozenset(a for i in range(1, rank + 1) for a in (i, -i))
    return determinize(saturate(expr_to_automaton(expr), alphabet))


def member(expr: RatExpr, g: Word) -> bool:
    """Exact membership of g in the denoted subset of the free group."""
    return reduced_acceptor(expr).accepts_word(g)


def positive_universe(rank: int = 2) -> Acceptor:
    """All strings over the positive letters 1..rank (no inverses)."""
    alphabet = frozenset(range(1, rank + 1))
    delta = {(0, a): frozenset([0]) for a in alphabet}
    return Acceptor(alphabet, 1, frozenset([0]), frozenset([0]), delta)


def intersect_positive(expr: RatExpr) -> Acceptor:
    """Acceptor of the positive members of a rational subset of F₂,
    as strings over {x₁, x₂}."""
    if max_rank(expr) > 2:
        raise ValueError("positive intersection is defined over F2")
    return intersect(reduced_acceptor(expr), positive_universe(2))
