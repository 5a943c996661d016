"""Automated refutation of rational descriptions of positive verbal sets.

Given a word w with exponent gcd e >= 2 and a candidate rational expression
L over F₂, the refuter compares L with the positive values of w and emits a
machine-checkable discrepancy certificate:

* ``missing-value`` — an explicit value of w (with its substitution
  transcript) that L rejects;
* ``foreign-element`` — an element L accepts together with a proof that it
  is no value: root extraction or the abelianization obstruction, or, when
  neither applies, gap-growth evidence flagged as heuristic.

The block analysis reads the minimal DFA of the positive part of L
(``automata.positive_acceptor``), which refute and replay share.  Each
nontrivial strongly connected component (more than one state, or a
self-loop) is a starred factor, classified exactly on its own states and
edges (see :func:`_classify`): single-axis factors contribute power blocks,
common-support factors bound the x₁-runs and x₂-runs of support words by
the longest syllables of their support, and the letter runs on edges
between components are the coefficients, bounded the same way.  Any other
factor holds two loops that refute it.  A path through m looping
components factors into at most n = 2m+1 alternating (support-word,
axis-power) pairs, since every path inside a component extends to a loop
at its first state.  The witness word (x₁ᵗx₂)^{l·e} with t one above the
x₁-run bound and l = n+1 has too many long x₁-runs to factor that way, so
L rejects it, yet it is always a value of w.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from freerat.automata import (
    Acceptor,
    enumerate_accepted,
    positive_acceptor,
    shortest_accepted,
    strong_components,
)
from freerat.freeprod import cyclic_form, from_f2, to_f2
from freerat.ratexpr import RatExpr, format_ratexpr, parse_ratexpr
from freerat.verbal import RefutedCase, certify_nonvalue, refute_pair
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


def _classify(acc: Acceptor, members: list[int], w: Word) -> dict | RefutedCase:
    """The dichotomy case of one looping component, decided on its own
    states and edges and read at r, its first state: a single-axis or
    common-support record for the report, or the refuted case of two loops
    at r.

    * Every edge inside reads one letter: single-axis.
    * Some letter has a cycle of its own edges inside, and the component
      reads the other letter too: runs are unbounded (see :func:`_run_pair`).
    * Otherwise every run inside is shorter than the component, and the
      cyclic supports of the loops at r come from one finite search (see
      :func:`_loop_supports`): one support is a common support, and two
      give the refuting pair.
    """
    r = min(members)
    inside = sum(1 << s for s in members)
    table = [tuple(m & inside for m in row) if inside >> p & 1 else (0,) * len(row) for p, row in enumerate(acc.table)]
    read = [a for a, i in sorted(acc.position.items()) if any(row[i] for row in table)]
    if len(read) == 1:
        return {"kind": "single-axis", "axis": _AXIS[read[0]]}
    for x in read:
        succ = [row[acc.position[x]] for row in table]
        cycles = [c for c in strong_components(succ) if len(c) > 1 or succ[c[0]] >> c[0] & 1]
        if cycles:
            return _refuted(acc, r, *_run_pair(acc, table, r, x, min(cycles, key=min)), w)
    supports = _loop_supports(acc, inside, r)
    if len(supports) == 2:
        (s1, first), (s2, second) = supports
        u, v = (second, first) if s2 - s1 else (first, second)
        return _refuted(acc, r, Word(u), Word(v), w)
    ((support, _),) = supports
    top = {x: max(e for a, e in support if _AXIS[a] == x) for x in ("a", "b")}
    return {"kind": "common-support", **top}


def _run_pair(
    acc: Acceptor, table: list[tuple[int, ...]], r: int, x: int, cycle: list[int]
) -> tuple[Word, Word]:
    """Loops u, v at r, u with a cyclic syllable v lacks and v with two or
    more cyclic syllables, in a component (the edges of ``table``) that
    reads both letters and whose x-edges close ``cycle``.

    From s, the first state of the cycle, of length k, take α (r to s), β
    (s to r) and c, a loop at s through an edge on the other letter, all
    shortest.  Then v = α·xᵏ·c·β, and u = α·x^{kN}·β with kN above the
    longest cyclic x-syllable of v."""
    s, k = min(cycle), len(cycle)
    # a second copy of the component, entered by the other letter's edges:
    # a path from s to the copy of s is a loop at s through such an edge
    n, other = acc.n_states, acc.position[3 - x]
    twice = [tuple(m << n if i == other else m for i, m in enumerate(row)) for row in table]
    twice += [tuple(m << n for m in row) for row in table]
    c = shortest_accepted(Acceptor(acc.alphabet, twice, 1 << s, 1 << (n + s)))
    alpha = shortest_accepted(Acceptor(acc.alphabet, table, 1 << r, 1 << s))
    beta = shortest_accepted(Acceptor(acc.alphabet, table, 1 << s, 1 << r))
    v = Word(alpha + (x,) * k + c + beta)
    top = max(e for f, e in cyclic_form(from_f2(v)).syllables if f == _AXIS[x])
    return Word(alpha + (x,) * (k * (top // k + 1)) + beta), v


def _loop_supports(acc: Acceptor, inside: int, r: int) -> list[tuple[frozenset, tuple[int, ...]]]:
    """The first loop at r through the states of ``inside`` (shortest, then
    lexicographically first) with its cyclic support, a set of (letter, run
    length); and the first loop with another support, when there is one.
    ``inside`` is a component with no one-letter cycle, so every loop reads
    both letters and every run is shorter than the component.

    A breadth-first search over configurations (state, first run, current
    run, completed runs) of the strings from r, keeping the first string to
    reach each.  A return to r closes a loop whose cyclic support is the
    completed runs plus the first and last run, merged when they read one
    letter.  Strings with one configuration close to the same supports, so
    dropping the later ones loses none; the configurations are finite, so
    the search ends."""
    by_letter = sorted((a, i) for i, a in enumerate(acc.letters) if a > 0)
    start = (r, None, None, frozenset())
    seen = {start}
    queue = deque([(start, ())])
    found: list[tuple[frozenset, tuple[int, ...]]] = []
    while queue:
        (s, first, run, done), string = queue.popleft()
        for a, i in by_letter:
            t = (acc.table[s][i] & inside).bit_length() - 1
            if t < 0:
                continue
            if run is None or run[0] == a:
                key = (t, first, (a, run[1] + 1 if run else 1), done)
            elif first is None:
                key = (t, run, (a, 1), done)
            else:
                key = (t, first, (a, 1), done | {run})
            if key in seen:
                continue
            seen.add(key)
            loop = string + (a,)
            if t == r:
                _, head, tail, runs = key
                if head[0] == tail[0]:
                    support = runs | {(a, head[1] + tail[1])}
                else:
                    support = runs | {head, tail}
                if not found or support != found[0][0]:
                    found.append((support, loop))
                    if len(found) == 2:
                        return found
            queue.append((key, loop))
    return found


def _refuted(acc: Acceptor, r: int, u: Word, v: Word, w: Word) -> RefutedCase:
    """The refuted case of two loops u, v at r, between the shortest string
    to r and the shortest from r to a final state."""
    p = shortest_accepted(Acceptor(acc.alphabet, acc.table, acc.initial, 1 << r))
    q = shortest_accepted(Acceptor(acc.alphabet, acc.table, 1 << r, acc.finals))
    return refute_pair(from_f2(Word(p)), from_f2(u), from_f2(v), from_f2(Word(q)), w)


def _analyze(acc: Acceptor, w: Word) -> tuple[DecompositionScheme, list[dict]] | tuple[int, RefutedCase]:
    """Block constraints of the language of a minimal positive DFA, with
    one record per nontrivial component; or, at the first component that
    contains a certified non-value, its number and case.

    Components are numbered by their first state and classified by
    :func:`_classify`.  A common support raises the run bounds to its
    longest syllables; a single-axis component leaves them.  Letter runs
    along edges between components raise them too.
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
        case = _classify(acc, members, w)
        if isinstance(case, RefutedCase):
            return i, case
        branches.append({"component": i, **case})
        if case["kind"] == "common-support":
            bound = {x: max(bound[x], case[x]) for x in bound}
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

    A scheme-shaped word splits as s₁t₁…sₙtₙ, each sᵢ a support word (no
    run longer than its letter's bound) and each tᵢ an axis power, either
    block possibly empty.  Call a run long when it is longer than its
    letter's bound.  A long run lies in no support word, so some tᵢ meets
    it: tᵢ holds some of its letters, or tᵢ is empty at a point strictly
    inside it.  A tᵢ meets at most one run, so each long run needs a pair
    of its own.  t = a + 1 exceeds the x₁-run bound, so every run x₁ᵗ is
    long, and l = n+1 gives the witness l·e >= 2n+2 long runs, more than n
    pairs can hold.
    """
    if exponent_gcd(w) < 2:
        raise ValueError("witness construction needs exponent gcd >= 2")
    t = scheme.a + 1
    l = scheme.n + 1
    return _power_certificate(w, (Word([1] * t) * Word([2])) ** l, t, l)


# -- refutation pipeline ----------------------------------------------------


@dataclass(frozen=True)
class RefutationReport:
    word: Word
    expr: RatExpr
    outcome: str  # "missing-value" | "foreign-element"
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


def refute(expr: RatExpr, w: Word, *, foreign_cap: int = 10) -> RefutationReport:
    """Produce a certified discrepancy between L(expr) and the positive
    values of w.  Requires exponent gcd >= 2 (proper words): gcd 0 needs
    commutator-width methods and gcd 1 words take every element as a value.
    """
    if foreign_cap < 0:
        raise ValueError(f"foreign_cap (--foreign-cap) must be >= 0, got {foreign_cap}")
    cls = classify(w)
    if cls in (WordClass.TRIVIAL, WordClass.COMMUTATOR):
        raise ValueError(
            "exponent gcd 0: values fill the derived subgroup; "
            "commutator-width analysis is out of scope"
        )
    if cls is WordClass.IMPROPER:
        raise ValueError("exponent gcd 1: every element is a value, nothing to refute")

    acc = positive_acceptor(expr)
    analysis = _analyze(acc, w)
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

    # every accepted positive string splits into at most n block pairs,
    # and the witness does not
    wc = witness_word(w, scheme)
    if acc.accepts_word(wc.u):
        raise RuntimeError("witness accepted despite its construction; scheme extraction bug")
    return _transcript_report(
        w, expr, wc, {"accepted": False, "scheme": scheme.as_json(), "branches": branches}
    )


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
    # certificate when one has: the string to the component's first state,
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
    shape (a field missing or of the wrong type) or of another outcome
    does not replay."""
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
    acc = positive_acceptor(expr)

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
    return False
