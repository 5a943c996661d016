"""Reference refuters, for differential tests.

:func:`refute_sampled` classifies each looping component of the minimal
positive DFA on samples: its first-return loops of up to ``enum_cap``
letters at an entry state, and their products of up to ``probe_depth``
factors, by ``support_dichotomy_check``.  Its answer moves with the caps,
and a misclassified component can leave a block scheme whose witness the
set accepts: the ``inconsistent-branch`` report, which
:func:`replay_sampled` checks.

An expression whose leaves are all positive words denotes positive words
only, and distributing its unions out of its products gives a union of
sandwiches a₁E₁*a₂…a_tE_t*a_{t+1}.  :func:`refute_by_standard_form` reads
the block scheme off those summands: n = 2·(most starred factors in one
summand) + 1, the coefficients' longest syllables bound the runs of
support words, and each starred factor is classified by
``support_dichotomy_check`` on the members of its base up to ``enum_cap``
letters.  The witness, the finite case and the
foreign-element search are the refuter's.
The expansion is exponential in the nesting of unions under products, so
keep the expressions small.
"""
from dataclasses import dataclass

from freerat.automata import (
    Acceptor,
    enumerate_accepted,
    positive_acceptor,
    reduced_acceptor,
    shortest_accepted,
)
from freerat.freeprod import FREE_ZZ, from_f2
from freerat.ratexpr import EMPTY, Finite, Product, RatExpr, Star, Union, leaf_words, parse_ratexpr
from freerat.refuter import (
    _AXIS,
    DecompositionScheme,
    RefutationReport,
    _foreign_report,
    _transcript_report,
    loop_components,
    refute,
    replay_report,
    witness_word,
)
from freerat.verbal import CommonSupportCase, RefutedCase, SingleAxisCase, support_dichotomy_check
from freerat.words import IDENTITY, Word, parse_word, substitute

from oracle_decomp import decomposable


# -- the sampled component classifier ---------------------------------------


def _first_returns(acc: Acceptor, r: int, inside: int, cap: int) -> list[tuple[int, ...]]:
    """The strings of length <= cap that lead from state r back to r,
    through the states of ``inside`` and meeting r only at their end."""
    by_letter = sorted(zip(acc.letters, range(len(acc.letters))))
    loops = []
    layer = [(r, ())]
    for _ in range(cap):
        nxt = []
        for s, string in layer:
            row = acc.table[s]
            for a, i in by_letter:
                t = row[i] & inside
                if t >> r & 1:
                    loops.append(string + (a,))
                elif t:
                    nxt.append((t.bit_length() - 1, string + (a,)))
        layer = nxt
    return loops


def _entry_loops(acc: Acceptor, component: list[int], cap: int) -> tuple[int, list[tuple[int, ...]]]:
    """The state r at which a nontrivial component is read as a star, and
    its first-return loops: of the states with two or more in-edges inside
    the component, the one with the fewest loops, the first in state order
    on ties.  With no such state the component is one cycle, every state
    has the same loops, and r is its first state."""
    inside = sum(1 << s for s in component)
    entries = 0
    seen = 0
    for p in component:
        for mask in acc.table[p]:
            entries |= mask & inside & seen
            seen |= mask & inside
    states = [s for s in sorted(component) if entries >> s & 1] or sorted(component)
    return min(((s, _first_returns(acc, s, inside, cap)) for s in states), key=lambda e: len(e[1]))


def analyze_sampled(
    acc: Acceptor, w: Word, enum_cap: int, probe_depth: int
) -> tuple[DecompositionScheme, list[dict]] | tuple[int, RefutedCase]:
    """The refuter's ``_analyze`` with each component classified on its
    first-return loops of length <= enum_cap at its entry state, between
    the shortest string to that state and the shortest from there to a
    final state.  A component with no such loop is skipped."""
    components, looping = loop_components(acc)
    comp_of = [0] * acc.n_states
    for c, members in enumerate(components):
        for s in members:
            comp_of[s] = c
    between = [(p, a, q) for p, a, q in acc.transitions() if comp_of[p] != comp_of[q]]
    between.sort(key=lambda edge: comp_of[edge[0]])
    after = [0] * len(components)
    for p, _, q in between:
        c, d = comp_of[p], comp_of[q]
        after[c] = max(after[c], looping[d] + after[d])
    n = 1
    if acc.n_states:
        start = comp_of[acc.initial.bit_length() - 1]
        n += 2 * (looping[start] + after[start])
    run: dict[tuple[int, int], int] = {}
    for p, a, q in reversed(between):
        run[a, q] = max(run.get((a, q), 0), run.get((a, p), 0) + 1)
    bound = {"a": 0, "b": 0}
    for (a, _), top in run.items():
        bound[_AXIS[a]] = max(bound[_AXIS[a]], top)

    branches: list[dict] = []
    nontrivial = sorted((min(m), m) for m, loops in zip(components, looping) if loops)
    for i, (_, members) in enumerate(nontrivial):
        r, loops = _entry_loops(acc, members, enum_cap)
        if not loops:
            continue
        p = shortest_accepted(Acceptor(acc.alphabet, acc.table, acc.initial, 1 << r))
        q = shortest_accepted(Acceptor(acc.alphabet, acc.table, 1 << r, acc.finals))
        case = support_dichotomy_check(
            [from_f2(Word(u)) for u in loops], from_f2(Word(p)), from_f2(Word(q)), w,
            budget=probe_depth,
        )
        if isinstance(case, SingleAxisCase):
            branches.append({"component": i, "kind": "single-axis", "axis": case.axis})
        elif isinstance(case, CommonSupportCase):
            top = {x: max(k for f, k in case.syllables if f == x) for x in bound}
            branches.append({"component": i, "kind": "common-support", **top})
            bound = {x: max(bound[x], top[x]) for x in bound}
        else:
            return i, case
    return DecompositionScheme(bound["a"], bound["b"], n), branches


def _sampled_report(
    w: Word, expr: RatExpr, acc: Acceptor, analysis, foreign_cap: int
) -> RefutationReport:
    """The refuter's report for an analysis: the foreign-element search at
    a refuted component, else the witness of the block scheme, reported
    missing when acc rejects it and as an inconsistent branch when acc
    accepts it.  The finite case is left to the refuter."""
    if isinstance(analysis[1], RefutedCase):
        return _foreign_report(w, expr, acc, *analysis, foreign_cap)
    scheme, branches = analysis
    wc = witness_word(w, scheme)
    if not acc.accepts_word(wc.u):
        return _transcript_report(
            w, expr, wc, {"accepted": False, "scheme": scheme.as_json(), "branches": branches}
        )
    verdict, trace = decomposable(wc.u, scheme)
    assert not verdict, "witness decomposed despite its construction"
    certificate = {
        "kind": "inconsistent-branch",
        "transcript": wc.as_json(),
        "accepted": True,
        "decomposition": trace,
        "branches": branches,
        "heuristic_note": "branch classification is budget-limited",
    }
    return RefutationReport(w, expr, "inconsistent-branch", wc.u, False, certificate)


def refute_sampled(
    expr: RatExpr, w: Word, *, enum_cap: int = 6, probe_depth: int = 3, foreign_cap: int = 10
) -> RefutationReport:
    """The refutation report with each looping component classified on
    samples; a finite positive part takes the refuter's own path."""
    acc = positive_acceptor(expr)
    if not any(loop_components(acc)[1]):
        return refute(expr, w, foreign_cap=foreign_cap)
    return _sampled_report(w, expr, acc, analyze_sampled(acc, w, enum_cap, probe_depth), foreign_cap)


def scheme_from_json(data: dict) -> DecompositionScheme:
    """The inverse of ``DecompositionScheme.as_json``."""
    return DecompositionScheme(data["a"], data["b"], data["n"])


def replay_sampled(report: dict) -> bool:
    """:func:`freerat.refuter.replay_report`, which also replays an
    inconsistent-branch report: its transcript re-reduces, the set accepts
    its witness, and the witness does not split under its scheme."""
    if report.get("outcome") != "inconsistent-branch":
        return replay_report(report)
    try:
        return _replay_inconsistent(report)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return False


def _replay_inconsistent(report: dict) -> bool:
    w = parse_word(report["word"])
    witness = parse_word(report["witness"])
    tr = report["certificate"]["transcript"]
    base = parse_word(tr["base"])
    images = [parse_word(g) for g in tr["images"]]
    scheme = scheme_from_json(report["certificate"]["decomposition"]["scheme"])
    return (
        parse_word(tr["value"]) == witness == base ** tr["degree"] == substitute(w, images)
        and all(g == base**r for g, r in zip(images, tr["exponents"]))
        and positive_acceptor(parse_ratexpr(report["expression"])).accepts_word(witness)
        and not decomposable(witness, scheme)[0]
    )


# -- the standard-form reference --------------------------------------------


@dataclass(frozen=True)
class Summand:
    """One alternating product a₁E₁*a₂…a_tE_t*a_{t+1}."""

    coefficients: tuple[Word, ...]  # length = len(stars) + 1
    stars: tuple[RatExpr, ...]

    def __post_init__(self):
        if len(self.coefficients) != len(self.stars) + 1:
            raise ValueError("need one more coefficient than starred factors")

    def as_expr(self) -> RatExpr:
        expr: RatExpr = Finite([self.coefficients[0]])
        for star_base, coeff in zip(self.stars, self.coefficients[1:]):
            expr = Product(expr, Product(Star(star_base), Finite([coeff])))
        return expr


@dataclass(frozen=True)
class StandardForm:
    summands: tuple[Summand, ...]

    def as_expr(self) -> RatExpr:
        if not self.summands:
            return EMPTY
        expr = self.summands[0].as_expr()
        for s in self.summands[1:]:
            expr = Union(expr, s.as_expr())
        return expr


def standard_form(expr: RatExpr) -> StandardForm:
    """Distribute unions out of products and split Finite leaves, leaving
    star bases untouched."""
    return StandardForm(tuple(_summands(expr)))


def _summands(expr: RatExpr) -> list[Summand]:
    if isinstance(expr, Finite):
        return [Summand((g,), ()) for g in sorted(expr.elements)]
    if isinstance(expr, Union):
        return _summands(expr.left) + _summands(expr.right)
    if isinstance(expr, Product):
        out = []
        for a in _summands(expr.left):
            for b in _summands(expr.right):
                glued = a.coefficients[:-1] + (a.coefficients[-1] * b.coefficients[0],)
                out.append(Summand(glued + b.coefficients[1:], a.stars + b.stars))
        return out
    if isinstance(expr, Star):
        return [Summand((IDENTITY, IDENTITY), (expr.inner,))]
    raise TypeError(f"not a RatExpr: {expr!r}")


def analyze_standard_form(
    sf: StandardForm, w: Word, enum_cap: int, probe_depth: int
) -> tuple[DecompositionScheme, list[dict]] | tuple[int, RefutedCase]:
    """Block constraints of a positive standard form, with one record per
    classified starred factor; or, at a refuted factor, its running index
    among the starred factors and its case."""
    bound = {"a": 0, "b": 0}
    branches = []
    n = 1
    index = 0
    for si, summand in enumerate(sf.summands):
        n = max(n, 2 * len(summand.stars) + 1)
        for coeff in summand.coefficients:
            for f, k in from_f2(coeff).syllables:
                bound[f] = max(bound[f], k)
        for bi, base in enumerate(summand.stars):
            index += 1
            strings = enumerate_accepted(reduced_acceptor(base), enum_cap)
            words = sorted(Word(s) for s in strings if s)
            if not words:
                continue
            p = FREE_ZZ.identity
            for c in summand.coefficients[: bi + 1]:
                p = p * from_f2(c)
            q = FREE_ZZ.identity
            for c in summand.coefficients[bi + 1 :]:
                q = q * from_f2(c)
            case = support_dichotomy_check(
                [from_f2(u) for u in words], p, q, w, budget=probe_depth
            )
            record = {"summand": si, "star": bi}
            if isinstance(case, SingleAxisCase):
                record.update(kind="single-axis", axis=case.axis)
            elif isinstance(case, CommonSupportCase):
                top = {x: max(k for f, k in case.syllables if f == x) for x in bound}
                record.update(kind="common-support", **top)
                bound = {x: max(bound[x], top[x]) for x in bound}
            else:
                return index - 1, case
            branches.append(record)
    return DecompositionScheme(bound["a"], bound["b"], n), branches


def refute_by_standard_form(
    expr: RatExpr, w: Word, *, enum_cap: int = 6, probe_depth: int = 3, foreign_cap: int = 10
) -> RefutationReport:
    """The refutation report with the block scheme of the standard form of
    a positive-leaf expression; a finite positive part takes the refuter's
    own path."""
    if not all(g.is_positive() for g in leaf_words(expr)):
        raise ValueError("the standard-form scheme needs positive leaves")
    acc = positive_acceptor(expr)
    if not any(loop_components(acc)[1]):
        return refute(expr, w, foreign_cap=foreign_cap)
    analysis = analyze_standard_form(standard_form(expr), w, enum_cap, probe_depth)
    return _sampled_report(w, expr, acc, analysis, foreign_cap)
