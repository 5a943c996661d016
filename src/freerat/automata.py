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


def _bits(mask: int) -> Iterator[int]:
    """The states of a state-set mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Acceptor:
    """An automaton over signed-letter strings, NFA and DFA alike.

    States are 0..n_states-1 and a set of states is an int mask, bit s for
    state s: ``initial``, ``finals`` and the argument and result of
    :meth:`step`.  ``table[p][i]`` is the mask of the states p reaches by
    the letter ``letters[i]``; ``letters`` is the alphabet in the iteration
    order of the ``alphabet`` frozenset, the order in which the worklist
    constructions below visit letters.  A DFA's rows hold single bits.
    """

    __slots__ = ("alphabet", "letters", "position", "table", "n_states", "initial", "finals")

    def __init__(
        self,
        alphabet: frozenset[int],
        table: Sequence[tuple[int, ...]],
        initial: int,
        finals: int,
    ):
        self.alphabet = alphabet
        self.letters = tuple(alphabet)
        self.position = {a: i for i, a in enumerate(self.letters)}
        self.table = tuple(table)
        self.n_states = len(self.table)
        self.initial = initial
        self.finals = finals

    @classmethod
    def from_transitions(
        cls,
        alphabet: frozenset[int],
        n_states: int,
        transitions: Iterable[tuple[int, int, int]],
        initial: int,
        finals: int,
    ) -> "Acceptor":
        """The acceptor with exactly these (p, letter, q) transitions."""
        position = {a: i for i, a in enumerate(alphabet)}
        rows = [[0] * len(position) for _ in range(n_states)]
        for p, a, q in transitions:
            rows[p][position[a]] |= 1 << q
        return cls(alphabet, [tuple(row) for row in rows], initial, finals)

    def step(self, states: int, letter: int) -> int:
        i = self.position.get(letter)
        out = 0
        if i is not None:
            for s in _bits(states):
                out |= self.table[s][i]
        return out

    def successors(self, states: int) -> list[int]:
        """``step(states, letter)`` for every letter, by position."""
        out = [0] * len(self.letters)
        for s in _bits(states):
            out = [x | y for x, y in zip(out, self.table[s])]
        return out

    def accepts(self, letters: Sequence[int]) -> bool:
        states = self.initial
        for a in letters:
            states = self.step(states, a)
            if not states:
                return False
        return bool(states & self.finals)

    def accepts_word(self, w: Word) -> bool:
        return self.accepts(w.letters)

    def transitions(self) -> Iterator[tuple[int, int, int]]:
        """Every transition (p, letter, q), by p, then letter position, then q."""
        for p, row in enumerate(self.table):
            for a, targets in zip(self.letters, row):
                for q in _bits(targets):
                    yield p, a, q


def _closures(eps: list[int], lanes: list[int]) -> list[int]:
    """Per state s, ``lanes[s]`` ORed over the reflexive-transitive silent
    closure of s (``eps[s]`` is the mask of silent successors of s).

    One pass of Tarjan's algorithm: a strongly connected component is
    finished only after every component it reaches, and all its states
    share one closure, so each component costs one OR per member and one
    per silent edge leaving it."""
    n = len(eps)
    order = [0] * n  # discovery number, 1-based; 0 = not yet visited
    low = [0] * n
    out = [0] * n  # nonzero once the state's component is finished
    stack: list[int] = []
    counter = 0
    for root in range(n):
        if order[root]:
            continue
        counter += 1
        order[root] = low[root] = counter
        stack.append(root)
        frames = [[root, eps[root]]]  # state, silent successors not yet tried
        while frames:
            frame = frames[-1]
            v, rest = frame
            if rest:
                bit = rest & -rest
                frame[1] = rest ^ bit
                t = bit.bit_length() - 1
                if not order[t]:
                    counter += 1
                    order[t] = low[t] = counter
                    stack.append(t)
                    frames.append([t, eps[t]])
                elif not out[t] and order[t] < low[v]:
                    low[v] = order[t]  # t is still on the stack
                continue
            frames.pop()
            if frames and low[v] < low[frames[-1][0]]:
                low[frames[-1][0]] = low[v]
            if low[v] != order[v]:
                continue
            members = []
            while True:
                t = stack.pop()
                members.append(t)
                if t == v:
                    break
            inside = 0
            leaving = 0
            lane = 0
            for m in members:
                inside |= 1 << m
                leaving |= eps[m]
                lane |= lanes[m]
            for t in _bits(leaving & ~inside):
                lane |= out[t]
            for m in members:
                out[m] = lane
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
    silent: list[tuple[int, int]] = []
    for p, w, q in aut.transitions:
        if not w.letters:
            silent.append((p, q))
            continue
        prev = p
        for a in w.letters[:-1]:
            letter_edges.append((prev, a, n))
            prev = n
            n += 1
        letter_edges.append((prev, w.letters[-1], q))

    # A state's lane packs its own bit (bits 0..n-1) and, for the letter at
    # position i, the mask of its one-letter successors (bits (i+1)n..).
    # Positions: the alphabet first, then any other letter on an edge.
    letters = tuple(alphabet)
    letters += tuple(sorted({a for _, a, _ in letter_edges} - alphabet))
    position = {a: i for i, a in enumerate(letters)}
    full = (1 << n) - 1
    eps = [0] * n
    for p, q in silent:
        eps[p] |= 1 << q
    lanes = [1 << s for s in range(n)]
    for p, a, q in letter_edges:
        lanes[p] |= 1 << ((position[a] + 1) * n + q)

    # (ii) silent-edge fixpoint: p --ℓ--> r ~~> s --ℓ⁻¹--> q adds p ~~> q
    cancelling = [
        (p, (position[-a] + 1) * n, r) for p, a, r in letter_edges if -a in position
    ]
    while True:
        closed = _closures(eps, lanes)
        grew = False
        for p, shift, r in cancelling:
            new = closed[r] >> shift & full & ~closed[p]
            if new:
                eps[p] |= new
                grew = True
        if not grew:
            break

    # (iii) silent-edge elimination, then restriction to reduced strings
    finals = sum(1 << f for f in aut.finals)
    table = [
        tuple(lane >> ((i + 1) * n) & full for i in range(len(alphabet)))
        for lane in closed
    ]
    closes_final = sum(1 << p for p in range(n) if closed[p] & finals)
    return _restrict_reduced(alphabet, table, aut.initial, closes_final)


def _restrict_reduced(
    alphabet: frozenset[int], table: list[tuple[int, ...]], initial: int, finals: int
) -> Acceptor:
    """Product with the two-letter-window automaton of reduced strings."""
    # Pair states (q, position of the last letter or -1); forbid following
    # ℓ by ℓ⁻¹.  The pairs that q reaches by the letter at position i do
    # not depend on the last letter, so each (q, i) is expanded once.
    letters = tuple(alphabet)
    inverse = [letters.index(-a) if -a in alphabet else -1 for a in letters]
    pairs: dict[tuple[int, int], int] = {(initial, -1): 0}
    images: dict[tuple[int, int], int] = {}
    rows: dict[int, tuple[int, ...]] = {}
    work = [(initial, -1)]
    while work:
        q, last = work.pop()
        skip = inverse[last] if last >= 0 else -1
        row = [0] * len(letters)
        for i, targets in enumerate(table[q]):
            if i == skip:
                continue
            image = images.get((q, i))
            if image is None:
                image = 0
                for t in _bits(targets):
                    j = pairs.get((t, i))
                    if j is None:
                        j = pairs[(t, i)] = len(pairs)
                        work.append((t, i))
                    image |= 1 << j
                images[(q, i)] = image
            row[i] = image
        rows[pairs[(q, last)]] = tuple(row)
    out_finals = sum(1 << j for (q, _), j in pairs.items() if finals >> q & 1)
    return Acceptor(alphabet, [rows[j] for j in range(len(pairs))], 1, out_finals)


# -- determinization and Boolean operations --------------------------------


def determinize(acc: Acceptor) -> Acceptor:
    """Complete DFA over acc.alphabet; the empty set, once reached, is its
    dead state.  States are numbered in the order a last-in first-out
    worklist finds them, visiting letters in ``acc.letters`` order."""
    ids: dict[int, int] = {acc.initial: 0}
    rows: dict[int, list[int]] = {}
    work = [acc.initial]
    seen = set()
    while work:
        states = work.pop()
        if states in seen:
            continue
        seen.add(states)
        row = rows[ids[states]] = []
        for nxt in acc.successors(states):
            row.append(ids.setdefault(nxt, len(ids)))
            if nxt not in seen:
                work.append(nxt)
    finals = sum(1 << i for states, i in ids.items() if states & acc.finals)
    unit = [1 << i for i in range(len(ids))]  # one int per state, shared by all rows
    return Acceptor(
        acc.alphabet, [tuple(unit[j] for j in rows[i]) for i in range(len(ids))], 1, finals
    )


def intersect(a: Acceptor, b: Acceptor) -> Acceptor:
    alphabet = a.alphabet | b.alphabet
    letters = tuple(alphabet)
    in_a = [a.position.get(x) for x in letters]
    in_b = [b.position.get(x) for x in letters]
    start = (a.initial, b.initial)
    ids: dict[tuple[int, int], int] = {start: 0}
    rows: dict[int, list[int]] = {}
    work = [start]
    seen = set()
    while work:
        pair = work.pop()
        if pair in seen:
            continue
        seen.add(pair)
        next_a, next_b = a.successors(pair[0]), b.successors(pair[1])
        row = rows[ids[pair]] = []
        for i, j in zip(in_a, in_b):
            na = 0 if i is None else next_a[i]
            nb = 0 if j is None else next_b[j]
            if not na or not nb:
                row.append(-1)
                continue
            row.append(ids.setdefault((na, nb), len(ids)))
            if (na, nb) not in seen:
                work.append((na, nb))
    finals = sum(1 << i for (pa, pb), i in ids.items() if pa & a.finals and pb & b.finals)
    unit = [1 << i for i in range(len(ids))]
    table = [tuple(0 if j < 0 else unit[j] for j in rows[i]) for i in range(len(ids))]
    return Acceptor(alphabet, table, 1, finals)


def reduced_universe(alphabet: frozenset[int]) -> Acceptor:
    """Acceptor of all freely reduced strings over the alphabet."""
    # state 0 = start; state of letter ℓ = its index in the sorted alphabet + 1
    letters = sorted(alphabet)
    index = {a: i + 1 for i, a in enumerate(letters)}
    transitions = [(0, a, index[a]) for a in letters]
    transitions += [(index[last], a, index[a]) for last in letters for a in letters if a != -last]
    n = len(letters) + 1
    return Acceptor.from_transitions(alphabet, n, transitions, 1, (1 << n) - 1)


def complement_reduced(acc: Acceptor) -> Acceptor:
    """Reduced strings not accepted by acc."""
    dfa = determinize(acc)
    every = (1 << dfa.n_states) - 1
    flipped = Acceptor(dfa.alphabet, dfa.table, dfa.initial, every & ~dfa.finals)
    return intersect(flipped, reduced_universe(acc.alphabet))


def difference(a: Acceptor, b: Acceptor) -> Acceptor:
    if a.alphabet - b.alphabet:
        alphabet = a.alphabet | b.alphabet
        where = [b.position.get(x) for x in alphabet]
        table = [tuple(0 if i is None else row[i] for i in where) for row in b.table]
        b = Acceptor(alphabet, table, b.initial, b.finals)
    return intersect(a, complement_reduced(b))


def shortest_accepted(acc: Acceptor) -> Optional[tuple[int, ...]]:
    """BFS witness string, or None when the language is empty."""
    by_letter = sorted(zip(acc.letters, range(len(acc.letters))))
    seen = {acc.initial}
    queue = deque([(acc.initial, ())])
    while queue:
        states, string = queue.popleft()
        if states & acc.finals:
            return string
        stepped = acc.successors(states)
        for a, i in by_letter:
            nxt = stepped[i]
            if nxt and nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, string + (a,)))
    return None


def is_empty(acc: Acceptor) -> bool:
    return shortest_accepted(acc) is None


def equivalent(a: Acceptor, b: Acceptor) -> bool:
    return is_empty(difference(a, b)) and is_empty(difference(b, a))


def live_states(acc: Acceptor) -> int:
    """Mask of the live states: those from which some final state is
    reachable.  One backward search over a reverse-edge index, linear in
    the number of transitions."""
    preds: list[list[int]] = [[] for _ in range(acc.n_states)]
    for p, row in enumerate(acc.table):
        targets = 0
        for mask in row:
            targets |= mask
        for q in _bits(targets):
            preds[q].append(p)
    live = acc.finals
    work = list(_bits(live))
    while work:
        for p in preds[work.pop()]:
            if not live >> p & 1:
                live |= 1 << p
                work.append(p)
    return live


def enumerate_accepted(acc: Acceptor, max_len: int) -> Iterator[tuple[int, ...]]:
    """All accepted strings of length <= max_len (lexicographic by length).

    Only prefixes that keep a live state are expanded, so a complete DFA's
    dead state costs nothing."""
    live = live_states(acc)
    by_letter = sorted(zip(acc.letters, range(len(acc.letters))))
    start = acc.initial & live
    layer: list[tuple[int, tuple[int, ...]]] = [(start, ())] if start else []
    for length in range(max_len + 1):
        nxt = []
        for states, string in layer:
            if states & acc.finals:
                yield string
            if length == max_len:
                continue
            stepped = acc.successors(states)
            for a, i in by_letter:
                kept = stepped[i] & live
                if kept:
                    nxt.append((kept, string + (a,)))
        layer = nxt


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
    return Acceptor.from_transitions(alphabet, 1, [(0, a, 0) for a in alphabet], 1, 1)


def intersect_positive(expr: RatExpr) -> Acceptor:
    """Acceptor of the positive members of a rational subset of F₂,
    as strings over {x₁, x₂}."""
    if max_rank(expr) > 2:
        raise ValueError("positive intersection is defined over F2")
    return intersect(reduced_acceptor(expr), positive_universe(2))
