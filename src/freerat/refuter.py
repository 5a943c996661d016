"""Automated refutation of rational descriptions of positive verbal sets.

Given a word w with exponent gcd e >= 2 and a candidate rational expression
L over F₂, the refuter compares L with the positive values of w and emits a
machine-checkable discrepancy certificate:

* ``missing-value`` — an explicit value of w (with its substitution
  transcript) that L rejects;
* ``foreign-element`` — an element L accepts together with an exact proof
  (root extraction or the abelianization obstruction) that it is no value;
* ``inconsistent-branch`` — an accepted value that cannot be split into the
  block shapes every member of L must admit; this outcome depends on
  budgeted branch classification and is flagged as heuristic.

The block analysis reads the minimal DFA of the positive part of L.  Each
nontrivial strongly connected component (more than one state, or a
self-loop) is a starred factor, classified by
:func:`freerat.verbal.support_dichotomy_check` on its first-return loops:
single-axis factors contribute power blocks, common-support factors
bound the x₁-runs and x₂-runs of support words by the longest syllables
of their support, and the letter runs on edges between components are
the coefficients, bounded the same way.  A path through m such components
factors into at most n = 2m+1 alternating (support-word, axis-power)
pairs.  The witness word (x₁ᵗx₂)^{l·e} with t one above the x₁-run bound
and l = n+1 has too many long x₁-runs to factor that way, yet is always a
value of w.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from freerat.automata import (
    Acceptor,
    enumerate_accepted,
    intersect_positive,
    minimize,
    shortest_accepted,
    strong_components,
)
from freerat.freeprod import from_f2, to_f2
from freerat.ratexpr import RatExpr, format_ratexpr, parse_ratexpr
from freerat.verbal import (
    CommonSupportCase,
    RefutedCase,
    SingleAxisCase,
    certify_nonvalue,
    support_dichotomy_check,
)
from freerat.words import (
    Word,
    WordClass,
    bezout_coefficients,
    classify,
    exponent_gcd,
    exponent_profile,
    format_word,
    parse_word,
    root_extract,
    substitute,
)

_AXIS = {1: "a", 2: "b"}


@dataclass(frozen=True)
class DecompositionScheme:
    """Constraints every member of the candidate language must satisfy:
    a factorization into at most n (support-word, axis-power) block pairs,
    where a support word has no x₁-run longer than a and no x₂-run longer
    than b.

    Two bounds carry the whole support set, because every set the refuter
    builds is closed downward in each letter: a run of k letters along
    edges between components gives (letter, 1..k), and a common support's
    closure in ℤ∗ℤ gives (f, 1..s) for its longest syllable (f, s)."""

    a: int
    b: int
    n: int

    def __post_init__(self):
        for name, value, low in (("a", self.a, 0), ("b", self.b, 0), ("n", self.n, 1)):
            if type(value) is not int or value < low:
                raise ValueError(f"scheme {name} must be an integer >= {low}, got {value!r}")

    def as_json(self) -> dict:
        return {"a": self.a, "b": self.b, "n": self.n}

    @staticmethod
    def from_json(data: dict) -> "DecompositionScheme":
        return DecompositionScheme(data["a"], data["b"], data["n"])


def positive_dfa(expr: RatExpr) -> Acceptor:
    """The minimal DFA of the positive members of L(expr)."""
    return minimize(intersect_positive(expr))


def loop_components(acc: Acceptor) -> tuple[list[list[int]], list[bool]]:
    """The strongly connected components of acc, each after every component
    it reaches, and whether each reads a loop: has more than one state, or
    a self-loop.  The nontrivial ones are the starred factors."""
    succ = [0] * acc.n_states
    for p, row in enumerate(acc.table):
        for mask in row:
            succ[p] |= mask
    components = strong_components(succ)
    return components, [len(m) > 1 or bool(succ[m[0]] >> m[0] & 1) for m in components]


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


def _analyze(
    acc: Acceptor, w: Word, enum_cap: int, probe_depth: int
) -> tuple[DecompositionScheme, list[dict]] | tuple[int, RefutedCase]:
    """Block constraints of the language of a minimal positive DFA, with
    one record per classified nontrivial component; or, at the first
    component that contains a certified non-value, its number and case.

    Components are numbered by their first state.  Each is classified
    through its first-return loops of length <= enum_cap, between the
    shortest string to its entry state and the shortest from there to a
    final state.  A common support raises the run bounds to its longest
    syllables; a single-axis power set leaves them.  Letter runs along
    edges between components raise them too.
    """
    components, looping = loop_components(acc)
    comp_of = [0] * acc.n_states
    for c, members in enumerate(components):
        for s in members:
            comp_of[s] = c
    between = [(p, a, q) for p, a, q in acc.transitions() if comp_of[p] != comp_of[q]]
    between.sort(key=lambda edge: comp_of[edge[0]])

    # looping components on the longest path onward from each component:
    # edges lead to earlier components, so a target is complete when met
    after = [0] * len(components)
    for p, _, q in between:
        c, d = comp_of[p], comp_of[q]
        after[c] = max(after[c], looping[d] + after[d])
    n = 1
    if acc.n_states:
        start = comp_of[acc.initial.bit_length() - 1]
        n += 2 * (looping[start] + after[start])

    # the longest run of each letter along edges between components
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


@dataclass(frozen=True)
class WitnessCertificate:
    """A value of w, u = base^e = (x₁ᵗx₂)^{l·e}, with its substitution
    transcript: substitute(w, images) == u and images[i] == base^exponents[i]."""

    t: int
    l: int
    e: int
    base: Word
    exponents: tuple[int, ...]
    images: tuple[Word, ...]
    u: Word

    def as_json(self) -> dict:
        return {
            "t": self.t,
            "l": self.l,
            "degree": self.e,
            "base": format_word(self.base),
            "exponents": list(self.exponents),
            "images": [format_word(g) for g in self.images],
            "value": format_word(self.u),
        }


def witness_word(w: Word, scheme: DecompositionScheme) -> WitnessCertificate:
    """The canonical value no scheme-shaped language member can equal.

    t = a + 1 exceeds the x₁-run bound, so every run x₁ᵗ is long and fits
    in no support word; l = n+1 gives the witness l·e >= 2n+2 long runs,
    more than n pairs can hold (see :func:`decomposable`).
    """
    if exponent_gcd(w) < 2:
        raise ValueError("witness construction needs exponent gcd >= 2")
    t = scheme.a + 1
    l = scheme.n + 1
    return _power_certificate(w, (Word([1] * t) * Word([2])) ** l, t, l)


def decomposable(u: Word, scheme: DecompositionScheme) -> tuple[bool, dict]:
    """Whether u splits as s₁t₁…sₙtₙ with each sᵢ a support word (no run
    longer than its letter's bound) and each tᵢ an axis power (either sign
    of block may be empty).  Returns the verdict with a replay trace.

    Call a run of u long when it is longer than its letter's bound.  A
    long run lies in no support word, so some tᵢ meets it: tᵢ holds some
    of its letters, or tᵢ is empty at a point strictly inside it.  A tᵢ
    meets at most one run, so each long run needs a pair of its own.  The
    last block tₙ ends u, so it meets a long run only when u ends in one;
    a word that does not needs one more pair for its tail.  That count of
    pairs also suffices: the k-th long run is tₖ, sₖ the short runs before
    it, and the short runs after the last long run are the tail's support
    word.  So u splits into n pairs exactly when the count is at most n; a
    word with no long run needs one pair.
    """
    letters = u.letters
    if any(a < 0 for a in letters):
        raise ValueError("block decomposition is defined for positive words")
    bound = {1: scheme.a, 2: scheme.b}
    long = [sum(1 for _ in run) > bound[a] for a, run in groupby(letters)]
    pairs = sum(long) + (not long or not long[-1])
    verdict = pairs <= scheme.n
    trace = {
        "decomposable": verdict,
        "scheme": scheme.as_json(),
        "letters": len(letters),
        "pairs_needed": pairs,
    }
    return verdict, trace


# -- refutation pipeline ----------------------------------------------------


@dataclass(frozen=True)
class RefutationReport:
    word: Word
    expr: RatExpr
    outcome: str  # "missing-value" | "foreign-element" | "inconsistent-branch"
    witness: Word
    exact: bool
    certificate: dict

    def as_json(self) -> dict:
        return {
            "word": format_word(self.word),
            "expression": format_ratexpr(self.expr),
            "outcome": self.outcome,
            "witness": format_word(self.witness),
            "exact": self.exact,
            "certificate": self.certificate,
        }


def _transcript_report(
    w: Word, expr: RatExpr, wc: WitnessCertificate, extra: dict
) -> RefutationReport:
    certificate = {"kind": "missing-value", "transcript": wc.as_json(), **extra}
    return RefutationReport(w, expr, "missing-value", wc.u, True, certificate)


def _power_certificate(w: Word, base: Word, t: int = 0, l: int = 0) -> WitnessCertificate:
    """The value base^e of w, e its exponent gcd, with its Bézout transcript."""
    e = exponent_gcd(w)
    exponents = bezout_coefficients(w)
    images = tuple(base**r for r in exponents)
    u = substitute(w, images)
    assert u == base**e
    return WitnessCertificate(t, l, e, base, exponents, images, u)


def refute(
    expr: RatExpr,
    w: Word,
    *,
    enum_cap: int = 6,
    probe_depth: int = 3,
    foreign_cap: int = 10,
) -> RefutationReport:
    """Produce a certified discrepancy between L(expr) and the positive
    values of w.  Requires exponent gcd >= 2 (proper words): gcd 0 needs
    commutator-width methods and gcd 1 words take every element as a value.
    """
    # each limit is named with its ``refute`` flag
    for name, flag, value, low in (
        ("enum_cap", "--enum-cap", enum_cap, 0),
        ("probe_depth", "--probe-depth", probe_depth, 2),
        ("foreign_cap", "--foreign-cap", foreign_cap, 0),
    ):
        if value < low:
            raise ValueError(f"{name} ({flag}) must be >= {low}, got {value}")
    cls = classify(w)
    if cls in (WordClass.TRIVIAL, WordClass.COMMUTATOR):
        raise ValueError(
            "exponent gcd 0: values fill the derived subgroup; "
            "commutator-width analysis is out of scope"
        )
    if cls is WordClass.IMPROPER:
        raise ValueError("exponent gcd 1: every element is a value, nothing to refute")

    acc = positive_dfa(expr)
    analysis = _analyze(acc, w, enum_cap, probe_depth)
    if isinstance(analysis[1], RefutedCase):
        return _foreign_report(w, expr, acc, *analysis, foreign_cap)
    scheme, branches = analysis

    if scheme.n == 1:
        # No looping component, so a finite positive part: powers of x₁
        # are values and almost all of them are missing; report the first,
        # noting the next as well.
        e = exponent_gcd(w)
        k = 1
        while acc.accepts(tuple([1] * (e * k))):
            k += 1
        wc = _power_certificate(w, Word([1] * k))
        nxt = _power_certificate(w, Word([1] * (k + 1)))
        return _transcript_report(
            w,
            expr,
            wc,
            {
                "finite_positive_part": True,
                "also_missing": format_word(nxt.u),
                "accepted": False,
            },
        )

    return _scheme_report(w, expr, acc, scheme, branches)


def _scheme_report(
    w: Word, expr: RatExpr, acc: Acceptor, scheme: DecompositionScheme, branches: list[dict]
) -> RefutationReport:
    """The witness of a block scheme, reported missing when acc rejects it
    and as an inconsistent branch when acc accepts it."""
    wc = witness_word(w, scheme)
    if not acc.accepts_word(wc.u):
        return _transcript_report(
            w,
            expr,
            wc,
            {"accepted": False, "scheme": scheme.as_json(), "branches": branches},
        )

    verdict, trace = decomposable(wc.u, scheme)
    if verdict:
        raise RuntimeError(
            "witness decomposed despite its construction; scheme extraction bug"
        )
    certificate = {
        "kind": "inconsistent-branch",
        "transcript": wc.as_json(),
        "accepted": True,
        "decomposition": trace,
        "branches": branches,
        "heuristic_note": "branch classification is budget-limited",
    }
    return RefutationReport(w, expr, "inconsistent-branch", wc.u, False, certificate)


def _foreign_report(
    w: Word, expr: RatExpr, acc: Acceptor, component: int, case: RefutedCase, foreign_cap: int
) -> RefutationReport:
    # Prefer the shortest accepted string with an exact non-value proof.
    for string in enumerate_accepted(acc, foreign_cap):
        g = Word(string)
        cert = certify_nonvalue(w, g)
        if cert is not None:
            certificate = {
                "kind": "foreign-element",
                "nonvalue": cert,
                "accepted": True,
                "source": "shortest-search",
            }
            return RefutationReport(w, expr, "foreign-element", g, True, certificate)

    # Fall back to the refuted component's member, the first with an exact
    # certificate when one has: the string to the component's entry state,
    # loops there, then the string to a final state, hence accepted.
    g = to_f2(case.witness)
    if not acc.accepts_word(g):
        raise RuntimeError("refuted-branch witness not accepted; embedding bug")
    certificate = {
        "kind": "foreign-element",
        "nonvalue": case.certificate,
        "accepted": True,
        "source": {"component": component},
    }
    if not case.exact:
        certificate["heuristic_note"] = "gap-growth evidence without an exact non-value proof"
    return RefutationReport(w, expr, "foreign-element", g, case.exact, certificate)


# -- certificate replay -----------------------------------------------------


def replay_report(report: dict) -> bool:
    """Re-verify a serialized report from scratch: transcripts re-reduce,
    acceptor verdicts recompute, and non-value proofs re-fail.  Heuristic
    certificates replay their exact parts only.  A report of the wrong
    shape (a field missing or of the wrong type) does not replay."""
    try:
        return _replay(report)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return False


def _replay(report: dict) -> bool:
    w = parse_word(report["word"])
    expr = parse_ratexpr(report["expression"])
    witness = parse_word(report["witness"])
    certificate = report["certificate"]
    outcome = report["outcome"]
    acc = intersect_positive(expr)

    def transcript_ok(tr: dict) -> bool:
        base = parse_word(tr["base"])
        images = [parse_word(s) for s in tr["images"]]
        value = parse_word(tr["value"])
        return (
            value == witness
            and all(g == base**r for g, r in zip(images, tr["exponents"]))
            and substitute(w, images) == value
            and value == base ** tr["degree"]
        )

    if outcome == "missing-value":
        return transcript_ok(certificate["transcript"]) and not acc.accepts_word(
            witness
        )
    if outcome == "foreign-element":
        if not acc.accepts_word(witness):
            return False
        nonvalue = certificate["nonvalue"]
        if nonvalue["method"] == "power-root":
            return root_extract(witness, nonvalue["degree"]) is None
        if nonvalue["method"] == "abelianization":
            m = nonvalue["modulus"]
            profile = exponent_profile(witness, 2)
            return any(profile) if m == 0 else any(c % m for c in profile)
        return nonvalue["method"] == "gap-growth"
    if outcome == "inconsistent-branch":
        if not transcript_ok(certificate["transcript"]):
            return False
        if not acc.accepts_word(witness):
            return False
        scheme = DecompositionScheme.from_json(certificate["decomposition"]["scheme"])
        verdict, _ = decomposable(witness, scheme)
        return not verdict
    return False
