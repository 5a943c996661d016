"""Exact rational-set questions over free groups, on string acceptors.

:class:`Acceptor` is the one automaton type, NFA and DFA alike.
:func:`saturate` compiles an expression into an NFA for its set: a
Thompson construction with one-letter edges, silent edges added to a
fixpoint for every cancelling pattern p --ℓ--> r ~~ε~~> s --ℓ⁻¹--> q
(Benois), then silent-edge elimination.  Its DFA (:func:`determinize`)
accepts exactly the reduced forms of the set, and membership, emptiness
and enumeration are ordinary automaton algorithms on it; :func:`minimize`
gives the minimal DFA of a language, on which :func:`equivalent` compares two.
The positive part of the set (:func:`positive_acceptor`) is the same subset
construction on the NFA's positive letters alone, minimized.
"""
from __future__ import annotations

from collections import deque, namedtuple
from typing import Iterator, Optional, Sequence

from freerat.errors import GaveUp
from freerat.ratexpr import Finite, Product, RatExpr, Star, Union, format_ratexpr, max_rank
from freerat.words import Word


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


def strong_components(succ: Sequence[int]) -> list[list[int]]:
    """The strongly connected components of the graph on states
    0..len(succ)-1 whose state s has the successor mask ``succ[s]``, each
    listed after every component it reaches.

    Tarjan's algorithm with an explicit stack of frames, so a long chain
    of states does not recurse once per state."""
    n = len(succ)
    order = [0] * n  # discovery number, 1-based; 0 = not yet visited
    low = [0] * n
    done = [False] * n  # True once the state's component is listed
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        if order[root]:
            continue
        counter += 1
        order[root] = low[root] = counter
        stack.append(root)
        frames = [[root, succ[root]]]  # state, successors not yet tried
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
                    frames.append([t, succ[t]])
                elif not done[t] and order[t] < low[v]:
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
                done[t] = True
                members.append(t)
                if t == v:
                    break
            components.append(members)
    return components


def _closures(eps: list[int], lanes: list[int]) -> list[int]:
    """Per state s, ``lanes[s]`` ORed over the reflexive-transitive silent
    closure of s (``eps[s]`` is the mask of silent successors of s).

    All states of a strongly connected component share one closure, and a
    component comes after every component it reaches, so each component
    costs one OR per member and one per silent edge leaving it."""
    out = [0] * len(eps)
    for members in strong_components(eps):
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


def _build(
    expr: RatExpr, base: int, edges: list[tuple[int, int, int]], silent: list[tuple[int, int]]
) -> tuple[int, int, int]:
    """Thompson construction on the states from ``base`` on, one initial
    and one final state: appends the one-letter edges (p, letter, q) to
    ``edges`` and the silent edges (p, q) to ``silent``, and returns
    (next free state, initial, final).  A leaf word of k letters is a chain
    of k letter edges through k-1 fresh states; the identity is silent."""
    if isinstance(expr, Finite):
        n = base + 2
        for w in expr.elements:
            if not w.letters:
                silent.append((base, base + 1))
                continue
            chain = [base, *range(n, n + len(w.letters) - 1), base + 1]
            edges += zip(chain, w.letters, chain[1:])
            n += len(w.letters) - 1
        return n, base, base + 1
    if isinstance(expr, (Union, Product)):
        n1, i1, f1 = _build(expr.left, base, edges, silent)
        n2, i2, f2 = _build(expr.right, n1, edges, silent)
        if isinstance(expr, Product):
            silent.append((f1, i2))
            return n2, i1, f2
        i, f = n2, n2 + 1
        silent += [(i, i1), (i, i2), (f1, f), (f2, f)]
        return n2 + 2, i, f
    if isinstance(expr, Star):
        hub, i1, f1 = _build(expr.inner, base, edges, silent)
        silent += [(hub, i1), (f1, hub)]
        return hub + 1, hub, hub
    raise TypeError(f"not a RatExpr: {expr!r}")


def saturate(expr: RatExpr) -> Acceptor:
    """The Benois NFA over the letters ±1..±max(2, rank): it accepts only
    strings whose value in F₂ lies in the denoted set, and among them the
    reduced form of every element."""
    # (i) Thompson construction with one-letter edges
    letter_edges: list[tuple[int, int, int]] = []
    silent: list[tuple[int, int]] = []
    n, initial, final = _build(expr, 0, letter_edges, silent)
    rank = max(2, max((abs(a) for _, a, _ in letter_edges), default=0))
    alphabet = frozenset(a for i in range(1, rank + 1) for a in (i, -i))

    # A state's lane packs its own bit (bits 0..n-1) and, for the letter at
    # position i, the mask of its one-letter successors (bits (i+1)n..).
    position = {a: i for i, a in enumerate(alphabet)}
    full = (1 << n) - 1
    eps = [0] * n
    for p, q in silent:
        eps[p] |= 1 << q
    lanes = [1 << s for s in range(n)]
    for p, a, q in letter_edges:
        lanes[p] |= 1 << ((position[a] + 1) * n + q)

    # (ii) silent-edge fixpoint: p --ℓ--> r ~~> s --ℓ⁻¹--> q adds p ~~> q
    cancelling = [(p, (position[-a] + 1) * n, r) for p, a, r in letter_edges]
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

    # (iii) silent-edge elimination
    table = [
        tuple(lane >> ((i + 1) * n) & full for i in range(len(alphabet)))
        for lane in closed
    ]
    closes_final = sum(1 << p for p in range(n) if closed[p] >> final & 1)
    return Acceptor(alphabet, table, 1 << initial, closes_final)


# -- determinization and search --------------------------------------------


def determinize(acc: Acceptor) -> Acceptor:
    """Complete DFA of the freely reduced strings that acc accepts.  A state
    is a set of acc's states with the position of the last letter read (-1
    before the first); the empty set, and any letter after its inverse,
    lead to the dead state.  States are numbered in the order a last-in
    first-out worklist finds them, visiting letters in ``acc.letters``
    order.  Every state is reachable, so the language is empty exactly when
    ``finals`` is 0."""
    inverse = [acc.position.get(-a, -1) for a in acc.letters]
    dead = (0, -1)
    start = (acc.initial, -1)
    ids: dict[tuple[int, int], int] = {start: 0}
    rows: dict[int, list[int]] = {}
    work = [start]
    seen = set()
    while work:
        key = work.pop()
        if key in seen:
            continue
        seen.add(key)
        states, last = key
        barred = inverse[last] if last >= 0 else -1
        row = rows[ids[key]] = []
        for i, nxt in enumerate(acc.successors(states)):
            nxt_key = (nxt, i) if nxt and i != barred else dead
            row.append(ids.setdefault(nxt_key, len(ids)))
            if nxt_key not in seen:
                work.append(nxt_key)
    finals = sum(1 << i for (states, _), i in ids.items() if states & acc.finals)
    unit = [1 << i for i in range(len(ids))]  # one int per state, shared by all rows
    return Acceptor(
        acc.alphabet, [tuple(unit[j] for j in rows[i]) for i in range(len(ids))], 1, finals
    )


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


def shortest_with_inverse(acc: Acceptor) -> Optional[tuple[int, ...]]:
    """The first accepted string (by length, then lexicographically over the
    sorted alphabet) that has an inverse letter, or None when there is none.

    A breadth-first search over (states, whether an inverse letter was
    read): the pair fixes which continuations are accepted, so the first
    prefix to reach it is the only one kept."""
    by_letter = sorted(zip(acc.letters, range(len(acc.letters))))
    seen = {(acc.initial, False)}
    queue = deque([(acc.initial, False, ())])
    while queue:
        states, inverse, string = queue.popleft()
        if inverse and states & acc.finals:
            return string
        stepped = acc.successors(states)
        for a, i in by_letter:
            key = (stepped[i], inverse or a < 0)
            if key[0] and key not in seen:
                seen.add(key)
                queue.append((*key, string + (a,)))
    return None


def live_states(acc: Acceptor) -> int:
    """Mask of the live states: those from which some final state is
    reachable."""
    return reaching(acc, acc.finals)


def reaching(acc: Acceptor, targets: int) -> int:
    """Mask of the states from which some state of the mask ``targets`` is
    reachable.  One backward search over a reverse-edge index, linear in
    the number of transitions."""
    preds: list[list[int]] = [[] for _ in range(acc.n_states)]
    for p, row in enumerate(acc.table):
        successors = 0
        for mask in row:
            successors |= mask
        for q in _bits(successors):
            preds[q].append(p)
    found = targets
    work = list(_bits(found))
    while work:
        for p in preds[work.pop()]:
            if not found >> p & 1:
                found |= 1 << p
                work.append(p)
    return found


def reverse(acc: Acceptor) -> Acceptor:
    """An acceptor of the reversed strings: every edge turned round, the
    final states initial and the initial ones final (an NFA in general)."""
    rows = [[0] * len(acc.letters) for _ in range(acc.n_states)]
    for p, a, q in acc.transitions():
        rows[q][acc.position[a]] |= 1 << p
    return Acceptor(acc.alphabet, [tuple(row) for row in rows], acc.finals, acc.initial)


def longest_run(acc: Acceptor, states: int, letter: int) -> Optional[int]:
    """The largest k such that reading ``letter`` k times from ``states``
    keeps a live state, or None when the run loops through live states
    (a path of more than n_states steps has a loop)."""
    live = live_states(acc)
    for k in range(acc.n_states + 1):
        states = acc.step(states, letter) & live
        if not states:
            return k
    return None


_ENUMERATION_BUDGET = 500_000  # prefixes one enumerate_accepted call may expand


def enumerate_accepted(acc: Acceptor, max_len: int) -> Iterator[tuple[int, ...]]:
    """All accepted strings of length <= max_len (lexicographic by length).

    Only prefixes that keep a live state are expanded, so a complete DFA's
    dead state costs nothing.  Gives up, after yielding the strings of the
    lengths reached, before the prefixes expanded would pass the budget."""
    live = live_states(acc)
    by_letter = sorted(zip(acc.letters, range(len(acc.letters))))
    start = acc.initial & live
    layer: list[tuple[int, tuple[int, ...]]] = [(start, ())] if start else []
    expanded = 0
    for length in range(max_len + 1):
        for states, string in layer:
            if states & acc.finals:
                yield string
        if length == max_len or not layer:
            break
        expanded += len(layer)
        if expanded > _ENUMERATION_BUDGET:
            raise GaveUp(f"enumeration exceeded the budget of {_ENUMERATION_BUDGET} expanded prefixes")
        nxt = []
        for states, string in layer:
            stepped = acc.successors(states)
            for a, i in by_letter:
                kept = stepped[i] & live
                if kept:
                    nxt.append((kept, string + (a,)))
        layer = nxt


# -- minimization ----------------------------------------------------------


def minimize(acc: Acceptor) -> Acceptor:
    """The minimal trim DFA of the language of a DFA: Hopcroft's partition
    refinement, with a sink n standing in for missing transitions.  Dead
    and unreachable states go; the rest are numbered in breadth-first order
    from the initial state, visiting letters in increasing order, so the
    result depends on the language alone."""
    n = acc.n_states
    # per letter that labels some edge, each state's target; a letter that
    # leads every state to the sink splits nothing
    letters = sorted((a, i) for i, a in enumerate(acc.letters) if any(row[i] for row in acc.table))
    targets = [[row[i].bit_length() - 1 if row[i] else n for row in acc.table] + [n] for _, i in letters]
    preds = [[[] for _ in range(n + 1)] for _ in letters]
    for target, inverse in zip(targets, preds):
        for p, q in enumerate(target):
            inverse[q].append(p)
    finals = set(_bits(acc.finals))
    blocks = [finals, set(range(n + 1)) - finals]
    block_of = [0 if s in finals else 1 for s in range(n + 1)]
    # every state has one successor per letter, so splitting by one of the
    # two first blocks also splits by the other
    work = [(0, j) for j in range(len(letters))] if finals else []
    while work:
        b, j = work.pop()
        hits: dict[int, list[int]] = {}
        inverse = preds[j]
        for t in blocks[b]:
            for p in inverse[t]:
                hits.setdefault(block_of[p], []).append(p)
        for y, hit in hits.items():
            if len(hit) == len(blocks[y]):
                continue
            rest = blocks[y].difference(hit)
            small, large = (set(hit), rest) if len(hit) <= len(rest) else (rest, set(hit))
            blocks[y] = large
            new = len(blocks)
            blocks.append(small)
            for s in small:
                block_of[s] = new
            # the larger half keeps the old block's pending splits
            work += [(new, j) for j in range(len(letters))]

    dead = block_of[n]
    start = block_of[acc.initial.bit_length() - 1] if acc.initial else dead
    ids = {start: 0} if start != dead else {}
    rows: list[tuple[int, ...]] = []
    queue = deque(ids)
    while queue:
        s = next(iter(blocks[queue.popleft()]))
        row = [0] * len(acc.letters)
        for (_, i), target in zip(letters, targets):
            b = block_of[target[s]]
            if b != dead:
                if b not in ids:
                    ids[b] = len(ids)
                    queue.append(b)
                row[i] = 1 << ids[b]
        rows.append(tuple(row))
    out_finals = sum(1 << j for b, j in ids.items() if blocks[b] & finals)
    return Acceptor(acc.alphabet, rows, 1 if ids else 0, out_finals)


def equivalent(a: Acceptor, b: Acceptor) -> bool:
    """Whether two DFAs accept the same strings, whatever their alphabets:
    their minimal DFAs, numbered by the language alone, coincide."""
    x, y = minimize(a), minimize(b)
    return x.finals == y.finals and set(x.transitions()) == set(y.transitions())


# -- expression-level membership -------------------------------------------


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")
_ACCEPTORS_MAX = 512
_acceptors: dict[str, Acceptor] = {}  # least recently used first
_hits = _misses = 0


def _cached(key: str, build) -> Acceptor:
    """The DFA cached under ``key``, built by ``build()`` on a miss; the
    least recently used entry goes when the cache is full."""
    global _hits, _misses
    dfa = _acceptors.pop(key, None)
    if dfa is None:
        _misses += 1
        dfa = build()
        if len(_acceptors) >= _ACCEPTORS_MAX:
            del _acceptors[next(iter(_acceptors))]
    else:
        _hits += 1
    _acceptors[key] = dfa
    return dfa


def reduced_acceptor(expr: RatExpr) -> Acceptor:
    """Deterministic acceptor of the reduced forms of the denoted set.

    The last 512 acceptors are cached under ``format_ratexpr(expr)``, so
    the cache holds text and DFAs but no expression tree.  The text is a
    sound key: it is injective on trees (``Finite`` elements sorted, words
    reduced, every operator written out with its parentheses), so equal
    text means an equal tree and the same acceptor.  A miss builds the DFA
    from the tree in hand.  :func:`positive_acceptor` shares the cache, so
    ``reduced_acceptor.cache_info()`` counts both, as ``functools.lru_cache``
    counts.  The cache takes no lock: nothing in the package runs threads."""
    return _cached(format_ratexpr(expr), lambda: determinize(saturate(expr)))


reduced_acceptor.cache_info = lambda: _CacheInfo(_hits, _misses, _ACCEPTORS_MAX, len(_acceptors))


def member(expr: RatExpr, g: Word) -> bool:
    """Exact membership of g in the denoted subset of the free group."""
    return reduced_acceptor(expr).accepts_word(g)


def positive_acceptor(expr: RatExpr) -> Acceptor:
    """The minimal DFA of the positive members of a rational subset of F₂,
    with no edge on an inverse letter.

    One subset construction over the positive letters of the Benois NFA:
    a positive string is reduced, and a path of the NFA that reads it
    reads positive letters only, so zeroing the inverse-letter columns
    loses no member.  Cached with :func:`reduced_acceptor`'s DFAs, under
    the expression text prefixed by ``positive``: every expression text
    starts with a parenthesis, so the two keys of one text never meet."""
    if max_rank(expr) > 2:
        raise ValueError("positive intersection is defined over F2")

    def build() -> Acceptor:
        nfa = saturate(expr)
        table = [tuple(m if a > 0 else 0 for a, m in zip(nfa.letters, row)) for row in nfa.table]
        return minimize(determinize(Acceptor(nfa.alphabet, table, nfa.initial, nfa.finals)))

    return _cached("positive " + format_ratexpr(expr), build)
