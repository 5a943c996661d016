"""Reference refuter over standard forms, for differential tests.

An expression whose leaves are all positive words denotes positive words
only, and distributing its unions out of its products gives a union of
sandwiches a₁E₁*a₂…a_tE_t*a_{t+1}.  :func:`refute_by_standard_form` reads
the block scheme off those summands: n = 2·(most starred factors in one
summand) + 1, the coefficients' longest syllables bound the runs of
support words, and each starred factor is classified by
``support_dichotomy_check`` on the members of its base up to ``enum_cap``
letters.  Everything after the scheme (the
witness, the finite case, the foreign-element search) is the refuter's.
The expansion is exponential in the nesting of unions under products, so
keep the expressions small.
"""
from dataclasses import dataclass

from freerat.automata import enumerate_accepted, reduced_acceptor
from freerat.freeprod import FREE_ZZ, from_f2
from freerat.ratexpr import EMPTY, Finite, Product, RatExpr, Star, Union, leaf_words
from freerat.refuter import (
    DecompositionScheme,
    RefutationReport,
    _foreign_report,
    _scheme_report,
    loop_components,
    positive_dfa,
    refute,
)
from freerat.verbal import CommonSupportCase, RefutedCase, SingleAxisCase, support_dichotomy_check
from freerat.words import IDENTITY, Word


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
    acc = positive_dfa(expr)
    if not any(loop_components(acc)[1]):
        return refute(expr, w, enum_cap=enum_cap, probe_depth=probe_depth, foreign_cap=foreign_cap)
    analysis = analyze_standard_form(standard_form(expr), w, enum_cap, probe_depth)
    if isinstance(analysis[1], RefutedCase):
        return _foreign_report(w, expr, acc, *analysis, foreign_cap)
    return _scheme_report(w, expr, acc, *analysis)
