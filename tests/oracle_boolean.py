"""Boolean operations on acceptors: the reference for ``automata.equivalent``.

``equivalent_by_difference`` decides equality of two languages as the
emptiness of both differences, each a product of one acceptor with the
complement of the other.  ``automata.equivalent`` compares minimal DFAs
instead, so the two share no logic beyond ``determinize``.  The other
oracles build their own product automata from ``intersect`` and
``difference``.

``positive_walk`` is the reference for ``automata.positive_acceptor``: it
restricts the full reduced DFA to positive letters, where the library runs
its subset construction on the positive letters alone.
"""
from __future__ import annotations

from freerat.automata import Acceptor, determinize, reduced_acceptor, shortest_accepted
from freerat.ratexpr import RatExpr, max_rank


def intersect(a: Acceptor, b: Acceptor) -> Acceptor:
    """Product DFA of two DFAs over the union of their alphabets; a letter
    outside one alphabet has no edge."""
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


def reduced_strings(alphabet: frozenset[int]) -> Acceptor:
    """DFA of every freely reduced string over the alphabet: state 0
    before the first letter, state 1 + i after the letter at position i."""
    letters = tuple(alphabet)
    table = [
        tuple(0 if a == -last else 1 << (1 + i) for i, a in enumerate(letters))
        for last in (0, *letters)
    ]
    return Acceptor(alphabet, table, 1, (1 << len(table)) - 1)


def complement_reduced(acc: Acceptor) -> Acceptor:
    """Reduced strings over acc's alphabet that acc does not accept."""
    dfa = determinize(acc)
    flipped = Acceptor(dfa.alphabet, dfa.table, dfa.initial, (1 << dfa.n_states) - 1 & ~dfa.finals)
    return intersect(flipped, reduced_strings(dfa.alphabet))


def difference(a: Acceptor, b: Acceptor) -> Acceptor:
    """Strings that a accepts and b does not; b's complement is taken over
    the union of both alphabets."""
    if a.alphabet - b.alphabet:
        alphabet = a.alphabet | b.alphabet
        where = [b.position.get(x) for x in alphabet]
        table = [tuple(0 if i is None else row[i] for i in where) for row in b.table]
        b = Acceptor(alphabet, table, b.initial, b.finals)
    return intersect(a, complement_reduced(b))


def is_empty(acc: Acceptor) -> bool:
    return shortest_accepted(acc) is None


def equivalent_by_difference(a: Acceptor, b: Acceptor) -> bool:
    return is_empty(difference(a, b)) and is_empty(difference(b, a))


def positive_walk(expr: RatExpr) -> Acceptor:
    """DFA of the positive members of a rational subset of F₂, as strings
    over {x₁, x₂}: the states of ``reduced_acceptor(expr)`` that positive
    letters reach from its initial state, numbered breadth-first, with no
    edges on inverse letters."""
    if max_rank(expr) > 2:
        raise ValueError("positive intersection is defined over F2")
    dfa = reduced_acceptor(expr)
    positive = [i for i, a in enumerate(dfa.letters) if a > 0]
    order = [dfa.initial]
    ids = {dfa.initial: 0}
    rows = []
    for state in order:  # grows while it is read
        successors = dfa.table[state.bit_length() - 1]
        row = [0] * len(dfa.letters)
        for i in positive:
            nxt = successors[i]
            if nxt not in ids:
                ids[nxt] = len(order)
                order.append(nxt)
            row[i] = 1 << ids[nxt]
        rows.append(tuple(row))
    finals = sum(1 << i for i, state in enumerate(order) if state & dfa.finals)
    return Acceptor(dfa.alphabet, rows, 1, finals)
