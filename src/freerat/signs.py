"""Positivity of rational subsets of F₂, and rewriting rational expressions
so that every leaf is positive.

A word is positive when it has no inverse letter (``Word.is_positive``).
``positive_witness`` decides positivity of a rational set on its saturated
acceptor.  ``positivize`` rewrites a rational expression over a free group
into one denoting the same set whose Finite leaves contain only positive
words, recursing on structural complexity.  At a product S·T, and at a
star whose base is not positive, it needs a middle element u with S·u⁻¹
and u·T positive: ``_middle`` reads u off the acceptors of S and T, and
every claimed inclusion is verified exactly on them.  The construction it
follows on finite sets, the product split, is kept in
``tests/oracle_signs.py`` as the reference ``_middle`` is checked against.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NoReturn, Optional

from freerat.automata import (
    Acceptor,
    live_states,
    longest_run,
    reaching,
    reduced_acceptor,
    reverse,
    shortest_accepted,
    shortest_with_inverse,
)
from freerat.errors import GaveUp
from freerat.ratexpr import (
    EMPTY,
    Finite,
    Product,
    RatExpr,
    Star,
    Union,
    conjugate_expr,
)
from freerat.words import IDENTITY, Word, format_word


class NotPositiveError(ValueError):
    """A set required to be positive has a negative member, the witness."""

    def __init__(self, message: str, witness: Word):
        super().__init__(f"{message}: {format_word(witness)}")
        self.witness = witness


# -- exact positivity of rational subsets of F2 ----------------------------


def positive_witness(expr: RatExpr) -> Optional[Word]:
    """The shortest member of the denoted set with an inverse letter, first
    in shortlex order over the sorted alphabet, or None."""
    s = shortest_with_inverse(reduced_acceptor(expr))
    return None if s is None else Word(s)


def _sandwich(left: Word, expr: RatExpr, right: Word) -> RatExpr:
    out: RatExpr = expr
    if right != IDENTITY:
        out = Product(out, Finite([right]))
    if left != IDENTITY:
        out = Product(Finite([left]), out)
    return out


# -- positivization --------------------------------------------------------


@dataclass
class Positivized:
    expr: RatExpr
    trace: dict


_RECURSION_CAP = 48  # levels of positivization recursion


def positivize(
    expr: RatExpr,
    left: Word = IDENTITY,
    right: Word = IDENTITY,
) -> Positivized:
    """An expression with positive leaves denoting left·L·right.

    Requires left·L·right to be a positive subset; checked exactly and a
    shortest negative member reported otherwise."""
    witness = positive_witness(_sandwich(left, expr, right))
    if witness is not None:
        raise NotPositiveError("the sandwiched set is not positive", witness)
    out, trace = _positivize(expr, left, right, _RECURSION_CAP)
    return Positivized(out, trace)


def _positivize(expr: RatExpr, left: Word, right: Word, depth: int):
    if depth <= 0:
        raise GaveUp(f"positivization recursion exceeded the depth cap of {_RECURSION_CAP}")

    if isinstance(expr, Finite):
        elements = sorted(left * g * right for g in expr.elements)
        for g in elements:
            if not g.is_positive():
                raise NotPositiveError("finite leaf is not positive", g)
        return Finite(elements), {
            "case": "finite",
            "elements": [format_word(g) for g in elements],
        }

    if isinstance(expr, Union):
        e1, t1 = _positivize(expr.left, left, right, depth - 1)
        e2, t2 = _positivize(expr.right, left, right, depth - 1)
        return Union(e1, e2), {"case": "union", "children": [t1, t2]}

    if isinstance(expr, Product):
        return _positivize_product(expr.left, expr.right, left, right, depth)

    if isinstance(expr, Star):
        return _positivize_star(expr.inner, left, right, depth)

    raise TypeError(f"not a RatExpr: {expr!r}")


def _positivize_product(l1: RatExpr, l2: RatExpr, left: Word, right: Word, depth: int):
    # left·L₁ is empty exactly when L₁ is, and L₂·right when L₂ is
    s_acc = reduced_acceptor(_sandwich(left, l1, IDENTITY))
    t_acc = reduced_acceptor(_sandwich(IDENTITY, l2, right))
    if not s_acc.finals or not t_acc.finals:
        return EMPTY, {"case": "empty-product"}
    mid, split_case = _middle(s_acc, t_acc)
    if positive_witness(_sandwich(left, l1, mid.inv())) is not None:
        _no_middle("the product split", "left·L₁·u⁻¹")
    if positive_witness(_sandwich(mid, l2, right)) is not None:
        _no_middle("the product split", "u·L₂·right")
    e1, t1 = _positivize(l1, left, mid.inv(), depth - 1)
    e2, t2 = _positivize(l2, mid, right, depth - 1)
    return Product(e1, e2), {
        "case": "product",
        "middle": format_word(mid),
        "split_case": split_case,
        "children": [t1, t2],
    }


def _positivize_star(l1: RatExpr, left: Word, right: Word, depth: int):
    w = left * right
    l2 = conjugate_expr(l1, right)
    witness = positive_witness(l2)

    if witness is None:
        inner, t_in = _positivize(l2, IDENTITY, IDENTITY, depth - 1)
        starred = Star(inner)
        if w == IDENTITY:
            return starred, {"case": "star-positive", "child": t_in}
        return Product(Finite([w]), starred), {
            "case": "star-positive",
            "front": format_word(w),
            "child": t_in,
        }

    return _star_conjugate(l2, w, depth)


def deepest_negative(acc: Acceptor, bound: int) -> Optional[tuple[int, tuple[int, ...]]]:
    """Among the accepted strings that have a negative syllable but none
    past syllable ``bound``, the first (by length, then lexicographically
    over the sorted alphabet) whose last negative syllable has the largest
    index, with that index; None when there is none.

    ``acc`` accepts only reduced strings.  A breadth-first search over
    (states, last letter, syllables so far, index of the last negative
    syllable) keeps only the first prefix to reach each configuration: two
    prefixes with one configuration have the same accepted continuations at
    the same index, and the earlier prefix's extensions come first.  A step
    that would start a negative syllable past ``bound`` is dropped, so the
    count is kept only up to bound + 1; the configurations are then
    finite, and the search runs until no new one turns up.  Steps to
    states from which no final state is reachable are pruned, so the dead
    configurations do not multiply with the count and the index.  Once no
    inverse letter can follow on the way to a final state, no negative
    syllable can start, so the count is set to bound + 1 at once: a
    positive loop then costs a number of configurations fixed by the DFA,
    not by the bound."""
    live = live_states(acc)
    inverse_edge = 0
    for p, row in enumerate(acc.table):
        if any(a < 0 and mask & live for a, mask in zip(acc.letters, row)):
            inverse_edge |= 1 << p
    inverse_ahead = reaching(acc, inverse_edge)
    letters = sorted(acc.alphabet)
    best: Optional[tuple[int, tuple[int, ...]]] = None
    seen = set()
    layer = [(acc.initial, 0, 0, 0, ())] if acc.initial & live else []
    while layer:
        nxt = []
        for states, last, syllables, negative, string in layer:
            if negative and states & acc.finals and (best is None or negative > best[0]):
                best = (negative, string)
            for a in letters:
                stepped = acc.step(states, a) & live
                if not stepped:
                    continue
                count, index = syllables, negative
                if abs(a) != abs(last):
                    if a < 0:
                        if count >= bound:
                            continue
                        index = count + 1
                    count = min(count + 1, bound + 1)
                if not stepped & inverse_ahead:
                    count = bound + 1
                config = (stepped, a, count, index)
                if config not in seen:
                    seen.add(config)
                    nxt.append((stepped, a, count, index, string + (a,)))
        layer = nxt
    return best


def _syllable_starts(s: tuple[int, ...]) -> list[int]:
    """Where the syllables of a reduced string start (runs of one letter)."""
    return [i for i, a in enumerate(s) if not i or a != s[i - 1]]


def _middle(s_acc: Acceptor, t_acc: Acceptor) -> tuple[Word, str]:
    """The product split of ``tests/oracle_signs.py``, carried from finite
    sets to the languages S and T of two DFAs, nonempty with S·T positive:
    u with S·u⁻¹ and u·T positive, and the split's case.

    j0 and i0 are the deepest last negative syllables over T and over the
    reversed members of S.  A member of k syllables cancels at most k
    syllables of a product, so the shortest member of the other side bounds
    each search.  When j0 >= i0, every member of S ends in x^f·c⁻¹, f > 0,
    with c and x read off the deepest member of T (see ``_lift``); when
    i0 > j0 the construction runs on the reversed sets."""
    s_len, t_len = (len(_syllable_starts(shortest_accepted(a))) for a in (s_acc, t_acc))
    s_rev = reverse(s_acc)
    i0, s_pivot = deepest_negative(s_rev, t_len) or (0, ())
    j0, t_pivot = deepest_negative(t_acc, s_len) or (0, ())
    if not i0 and not j0:
        return IDENTITY, "both-positive"
    if i0 > j0:
        return Word(reversed(_lift(s_rev, s_pivot).letters)).inv(), "mirrored"
    return _lift(t_acc, t_pivot), "case-1" if i0 == j0 else "case-2"


def _lift(acc: Acceptor, pivot: tuple[int, ...]) -> Word:
    """x^β·c⁻¹, where c is the prefix of ``pivot`` before its last negative
    syllable, x that syllable's generator, and β the longest run of x⁻¹
    after c in acc's language: the lower end of the interval of valid β,
    whose upper end the split of ``tests/oracle_signs.py`` takes."""
    offset = max(i for i in _syllable_starts(pivot) if pivot[i] < 0)
    states = acc.initial
    for a in pivot[:offset]:
        states = acc.step(states, a)
    beta = longest_run(acc, states, pivot[offset])
    assert beta is not None  # the members of S end in x^f·c⁻¹, f >= β
    return Word([-pivot[offset]] * beta) * Word(pivot[:offset]).inv()


def _no_middle(step: str, check: str) -> NoReturn:
    raise GaveUp(f"no middle element for {step}: {check} is not positive")


def _star_conjugate(l2, w: Word, depth: int):
    """Positivize w·L₂* when L₂ has a negative member: conjugate the star
    base by the middle element r of {w}·L₂, which is positive since w·L₂
    lies in w·L₂*."""
    acc = reduced_acceptor(l2)
    r, _ = _middle(reduced_acceptor(Finite([w])), acc)
    w_front = w * r.inv()
    if not w_front.is_positive():
        _no_middle("the star conjugation", "the front coefficient w·r⁻¹")
    l3 = conjugate_expr(l2, r.inv())  # denotes r·L₂·r⁻¹
    if positive_witness(l3) is not None:
        _no_middle("the star conjugation", "the conjugated star base r·L₂·r⁻¹")
    inner, t_in = _positivize(l3, IDENTITY, IDENTITY, depth - 1)
    out = Product(Star(inner), Finite([r]))
    if w_front != IDENTITY:
        out = Product(Finite([w_front]), out)
    return out, {
        "case": "star-conjugated",
        "acceptor_states": acc.n_states,
        "conjugator": format_word(r),
        "front": format_word(w_front),
        "child": t_in,
    }
