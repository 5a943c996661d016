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
contribute their closed support K, and the letter runs on edges between
components are the coefficients, also in K.  A path through m such
components factors into at most n = 2m+1 alternating (support-word,
axis-power) pairs.  The witness word (x₁ᵗx₂)^{l·e} with t above every
a-exponent of K and l = n+1 has too many axis runs to factor that way, yet
is always a value of w.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from freerat.automata import (
    Acceptor,
    enumerate_accepted,
    intersect_positive,
    minimize,
    shortest_accepted,
    strong_components,
)
from freerat.freeprod import Syllable, from_f2, to_f2
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
    where support words use only the syllables in ``support``."""

    support: frozenset[Syllable]
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("block count must be at least 1")
        for fid, k in self.support:
            if fid not in ("a", "b") or k < 1:
                raise ValueError(f"support syllables must be positive, got {(fid, k)}")

    def as_json(self) -> dict:
        return {"support": sorted([f, k] for f, k in self.support), "n": self.n}

    @staticmethod
    def from_json(data: dict) -> "DecompositionScheme":
        return DecompositionScheme(
            frozenset((f, k) for f, k in data["support"]), data["n"]
        )


class BranchRefuted(Exception):
    """A starred factor admits a certified non-value inside the candidate."""

    def __init__(self, case: RefutedCase, component: int):
        self.case = case
        self.component = component
        super().__init__(f"starred factor of component {component} refuted")


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
) -> tuple[DecompositionScheme, list[dict]]:
    """Block constraints of the language of a minimal positive DFA, with
    one record per classified nontrivial component.

    Components are numbered by their first state.  Each is classified
    through its first-return loops of length <= enum_cap, between the
    shortest string to its entry state and the shortest from there to a
    final state, and contributes its closed common support, or nothing when
    it is a single-axis power set.  Letter runs along edges between
    components enter the support set.  Raises :class:`BranchRefuted` when a
    component contains a certified non-value.
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
    support = {(_AXIS[a], k) for (a, _), top in run.items() for k in range(1, top + 1)}

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
        record = {"component": i, "probe_depth": probe_depth}
        if isinstance(case, SingleAxisCase):
            record["kind"] = "single-axis"
            record["axis"] = case.axis
        elif isinstance(case, CommonSupportCase):
            record["kind"] = "common-support"
            record["syllables"] = sorted([f, k] for f, k in case.syllables)
            support.update(case.syllables)
        else:
            assert isinstance(case, RefutedCase)
            raise BranchRefuted(case, i)
        branches.append(record)
    return DecompositionScheme(frozenset(support), n), branches


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

    t exceeds every a-axis exponent in the support set, so x₁ᵗ fits in no
    support word; l = n+1 makes the witness contain more x₂ letters than
    2n block segments can cover.
    """
    if exponent_gcd(w) < 2:
        raise ValueError("witness construction needs exponent gcd >= 2")
    t = 1 + max((k for f, k in scheme.support if f == "a"), default=0)
    l = scheme.n + 1
    return _power_certificate(w, (Word([1] * t) * Word([2])) ** l, t, l)


def decomposable(u: Word, scheme: DecompositionScheme) -> tuple[bool, dict]:
    """Whether u splits as s₁t₁…sₙtₙ with supp(sᵢ) ⊆ support and tᵢ an
    axis power (either sign of block may be empty).

    Positive words concatenate without cancellation, so searching letter
    split points is exact.  Returns the verdict with a replay trace.
    """
    letters = u.letters
    if any(a < 0 for a in letters):
        raise ValueError("block decomposition is defined for positive words")
    N = len(letters)
    K = scheme.support

    def s_targets(i: int) -> list[int]:
        # splits j: every complete syllable of letters[i:j] lies in K
        out = [i]
        run_letter, run_len = 0, 0
        for j in range(i, N):
            a = letters[j]
            if a == run_letter:
                run_len += 1
            else:
                if run_letter and (_AXIS[run_letter], run_len) not in K:
                    break
                run_letter, run_len = a, 1
            if (_AXIS[a], run_len) in K:
                out.append(j + 1)
        return out

    def t_targets(j: int) -> list[int]:
        out = [j]
        if j < N:
            a = letters[j]
            k = j
            while k < N and letters[k] == a:
                k += 1
                out.append(k)
        return out

    s_table = [s_targets(i) for i in range(N + 1)]

    @lru_cache(maxsize=None)
    def ok(i: int, remaining: int) -> bool:
        if i == N:
            return True
        if remaining == 0:
            return False
        for j in s_table[i]:
            for k in t_targets(j):
                if ok(k, remaining - 1):
                    return True
        return False

    verdict = ok(0, scheme.n)
    trace = {
        "decomposable": verdict,
        "scheme": scheme.as_json(),
        "letters": len(letters),
        "states_explored": ok.cache_info().currsize,
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
    try:
        scheme, branches = _analyze(acc, w, enum_cap, probe_depth)
    except BranchRefuted as br:
        return _foreign_report(w, expr, acc, br, foreign_cap)

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
    w: Word, expr: RatExpr, acc: Acceptor, br: BranchRefuted, foreign_cap: int
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

    # Fall back to the refuted component's family members (embedded
    # between the strings to and from its entry state, hence accepted).
    case = br.case
    candidates = [to_f2(m) for m in case.family.members]
    for g in candidates:
        cert = certify_nonvalue(w, g)
        if cert is not None and acc.accepts_word(g):
            certificate = {
                "kind": "foreign-element",
                "nonvalue": cert,
                "accepted": True,
                "source": {"component": br.component},
            }
            return RefutationReport(w, expr, "foreign-element", g, True, certificate)
    g = to_f2(case.witness)
    if not acc.accepts_word(g):
        raise RuntimeError("refuted-branch witness not accepted; embedding bug")
    certificate = {
        "kind": "foreign-element",
        "nonvalue": case.certificate,
        "accepted": True,
        "source": {"component": br.component},
        "heuristic_note": "gap-growth evidence without an exact non-value proof",
    }
    return RefutationReport(w, expr, "foreign-element", g, False, certificate)


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
