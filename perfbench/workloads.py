"""Seeded request streams for the four benchmark workloads, and their checks.

Every workload is a list of *strata*: generator families whose per-request
cost stays within a narrow band.  Requests are drawn stratum by stratum in
a fixed cycle, so two seeds give the same mix of work and differ only in
the concrete inputs.  Without that, a run of a few seconds over a heavy
tailed mix (most requests take milliseconds, a few take seconds) would
measure which seed it got rather than the program.

A generator gets a ``random.Random`` and returns a :class:`Request`.  The
program sees only the CLI arguments and the expression files written for
them; the benchmark keeps the objects it needs to check the answer.
"""
from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from freerat.automata import equivalent, reduced_acceptor
from freerat.ratexpr import (
    Finite,
    Product,
    RatExpr,
    Star,
    Union,
    conjugate_expr,
    format_ratexpr,
    leaf_words,
    parse_ratexpr,
)
from freerat.refuter import replay_report
from freerat.words import IDENTITY, Word, format_word, parse_word


@dataclass
class Request:
    """One CLI invocation.  ``files`` maps a placeholder in ``argv`` to the
    expression text written to disk before the timed loop."""

    stratum: str
    argv: list[str]
    key: str
    files: dict[str, str]
    check: Callable[[str], bool]


def _words(*texts: str) -> list[Word]:
    return [parse_word(t) for t in texts]


# -- refute -----------------------------------------------------------------

REFUTE_WORDS = _words("x1^2", "x1^3", "x1^2 x2^2", "x1^2 x2^-2 x1^2", "x1^4 x2^2")
_SF_POOL = _words("x1", "x2", "x1 x2", "x2 x1", "x1^2", "x2^2")
_POS_POOL = _SF_POOL + _words("x1 x2 x1", "x2 x1^2")
_MIXED_POOL = _POS_POOL + _words("x1^-1", "x2^-1", "x2 x1^-1", "x1 x2^-1 x1", "x1^-1 x2 x1")


def _standard_form_candidate(rng) -> RatExpr:
    # the acceptance-suite refuter corpus shape: blocks a or a*, multiplied
    # and sometimes unioned
    def block():
        base = Finite(rng.sample(_SF_POOL, rng.randint(1, 2)))
        return Star(base) if rng.random() < 0.5 else base

    expr = block()
    for _ in range(rng.randint(0, 2)):
        expr = Product(expr, block())
    if rng.random() < 0.3:
        expr = Union(expr, block())
    return expr


def _tree(rng, depth: int, pool: list[Word], star_ok: bool = True) -> RatExpr:
    # Stars only near the leaves, and only over positive leaves: a star
    # over a deep base makes the base rich enough that one refutation probe
    # multiplies ~10^6 free-product elements, and a star over mixed signs
    # can make the rebuilt positive part need gigabytes.  Either costs
    # seconds to minutes for a single request.
    if depth == 0 or rng.random() < 0.25:
        return Finite(rng.sample(pool, rng.randint(1, 2)))
    star_ok = star_ok and depth <= 2
    kind = rng.choice(("union", "prod", "prod", "star") if star_ok else ("union", "prod", "prod"))
    if kind == "star":
        return Star(_tree(rng, depth - 1, _POS_POOL, False))
    cls = Union if kind == "union" else Product
    return cls(_tree(rng, depth - 1, pool, star_ok), _tree(rng, depth - 1, pool, star_ok))


def _refute_request(stratum: str, expr: RatExpr, w: Word) -> Request:
    text = format_ratexpr(expr)
    word = format_word(w)
    return Request(
        stratum,
        ["refute", "--word", word, "--expr", "@expr"],
        f"refute {word} {text}",
        {"@expr": text},
        lambda out: _check_refute(out, word),
    )


def _check_refute(out: str, word: str) -> bool:
    result = json.loads(out)["result"]
    payload = {k: v for k, v in result.items() if k != "replayed"}
    return (
        result["replayed"] is True
        and result["word"] == word
        and replay_report(json.loads(json.dumps(payload)))
    )


def refute_standard_form(rng) -> Request:
    return _refute_request("standard-form", _standard_form_candidate(rng), rng.choice(REFUTE_WORDS))


def refute_deep(rng) -> Request:
    return _refute_request("deep", _tree(rng, rng.randint(3, 5), _POS_POOL), rng.choice(REFUTE_WORDS))


def refute_mixed(rng) -> Request:
    return _refute_request("mixed-sign", _tree(rng, rng.randint(2, 3), _MIXED_POOL), rng.choice(REFUTE_WORDS))


# -- positivize -------------------------------------------------------------

_CONJ_POOL = _words("x1", "x2", "x1 x2", "x2 x1", "x1^-1", "x2^-1", "x2^-1 x1")
# Star(c⁻¹·s·c) with left c: deepest negative member found by enumerating
# the negative part up to a window of 2·(DFA states) letters.  These four
# have 5-state acceptors (window 10, about a second each); every other
# short (s, c) either is already positive or has 6+ states, hitting the
# 12-letter window cap at 10-14 s per request.
_STAR_CONJ = [(parse_word(s), parse_word(c)) for s, c in (("x2", "x1"), ("x2", "x2 x1"), ("x1", "x2"), ("x1", "x1 x2"))]


def _positivize_request(stratum: str, expr: RatExpr, left: Word, right: Word) -> Request:
    text = format_ratexpr(expr)
    lt, rt = format_word(left), format_word(right)
    sandwich = expr
    if right != IDENTITY:
        sandwich = Product(sandwich, Finite([right]))
    if left != IDENTITY:
        sandwich = Product(Finite([left]), sandwich)
    return Request(
        stratum,
        ["sign", "positivize", "--expr", "@expr", "--left", lt, "--right", rt],
        f"positivize {lt} {rt} {text}",
        {"@expr": text},
        lambda out: _check_positivize(out, sandwich),
    )


def _check_positivize(out: str, sandwich: RatExpr) -> bool:
    got = parse_ratexpr(json.loads(out)["result"]["expression"])
    return all(w.is_positive() for w in leaf_words(got)) and equivalent(
        reduced_acceptor(sandwich), reduced_acceptor(got)
    )


def _pos_tree(rng, depth: int, star_ok: bool = True) -> RatExpr:
    # No star under a product: conjugated, such a product needs a split
    # whose bounded enumeration of the star side takes 1-10+ s.
    if depth == 0 or rng.random() < 0.3:
        return Finite(rng.sample(_SF_POOL, rng.randint(1, 2)))
    kind = rng.choice(("union", "prod", "star") if star_ok else ("union", "prod"))
    if kind == "star":
        return Star(_pos_tree(rng, depth - 1, False))
    if kind == "prod":
        return Product(_pos_tree(rng, depth - 1, False), _pos_tree(rng, depth - 1, False))
    return Union(_pos_tree(rng, depth - 1, star_ok), _pos_tree(rng, depth - 1, star_ok))


def _conjugated_star(rng) -> RatExpr:
    c = rng.choice(_CONJ_POOL)
    inner = Finite([c.inv() * rng.choice(_SF_POOL) * c])
    return Product(Product(Finite([c]), Star(inner)), Finite([c.inv()]))


def positivize_sandwich(rng) -> Request:
    # g·(g⁻¹·P·g)·g⁻¹ = P: the expression is full of negative leaves
    g = rng.choice(_CONJ_POOL)
    return _positivize_request("sandwich", conjugate_expr(_pos_tree(rng, rng.randint(1, 2)), g), g, g.inv())


def positivize_conjugated_star(rng) -> Request:
    # the acceptance-suite c06 shape, one core word per star
    expr = _conjugated_star(rng)
    if rng.random() < 0.5:
        expr = Union(expr, _conjugated_star(rng))
    return _positivize_request("conjugated-star", expr, IDENTITY, IDENTITY)


def positivize_product_finite(rng) -> Request:
    m = rng.choice(_SF_POOL)
    a = Finite([x * m.inv() for x in rng.sample(_SF_POOL, rng.randint(1, 2))])
    b = Finite([m * x for x in rng.sample(_SF_POOL, rng.randint(1, 2))])
    return _positivize_request("product-finite", Product(a, b), IDENTITY, IDENTITY)


def positivize_product_star(rng) -> Request:
    m = rng.choice(_SF_POOL)
    a = Product(Star(Finite([rng.choice(_SF_POOL)])), Finite([rng.choice(_SF_POOL) * m.inv()]))
    b = Product(Finite([m * rng.choice(_SF_POOL)]), Star(Finite([rng.choice(_SF_POOL)])))
    return _positivize_request("product-star", Product(a, b), IDENTITY, IDENTITY)


class StarConjugated:
    """Cycles through the window-10 star cases in a seeded order; a random
    positive prefix on the left keeps every request distinct."""

    def __init__(self, rng):
        self.order = list(range(len(_STAR_CONJ)))
        rng.shuffle(self.order)
        self.i = 0

    def __call__(self, rng) -> Request:
        s, c = _STAR_CONJ[self.order[self.i % len(self.order)]]
        self.i += 1
        prefix = Word([rng.choice((1, 2)) for _ in range(rng.randint(0, 3))])
        return _positivize_request("star-conjugated", Star(Finite([c.inv() * s * c])), prefix * c, IDENTITY)


# -- membership -------------------------------------------------------------

_LETTERS = (1, -1, 2, -2)


def _leaf_word(rng) -> Word:
    letters: list[int] = []
    while len(letters) < rng.randint(1, 3):
        a = rng.choice(_LETTERS)
        if letters and a == -letters[-1]:
            continue
        letters.append(a)
    return Word(letters)


def _big_expr(rng, leaves: int, depth: int) -> RatExpr:
    """A random tree with exactly `leaves` leaves and depth at most `depth`;
    a fixed leaf count keeps the compile cost of one group in a narrow band."""
    if leaves == 1:
        node = Finite({_leaf_word(rng) for _ in range(rng.randint(1, 2))})
    else:
        room = 2 ** (depth - 1)  # leaves a subtree of depth-1 can hold
        k = rng.randint(max(1, leaves - room), min(leaves - 1, room))
        cls = Union if rng.random() < 0.6 else Product
        node = cls(_big_expr(rng, k, depth - 1), _big_expr(rng, leaves - k, depth - 1))
    if depth > 0 and rng.random() < STAR_PROB:
        return Star(node)
    return node


def _walk(rng, expr: RatExpr) -> Word:
    """A member of the denoted set, by a random walk through the syntax."""
    if isinstance(expr, Finite):
        return rng.choice(expr.sorted_elements())
    if isinstance(expr, Union):
        return _walk(rng, rng.choice((expr.left, expr.right)))
    if isinstance(expr, Product):
        return _walk(rng, expr.left) * _walk(rng, expr.right)
    out = IDENTITY
    for _ in range(rng.randint(0, 2)):
        out = out * _walk(rng, expr.inner)
    return out


MEMBER_QUERIES = 15  # rat member calls after each compiling rat positive
EXPR_LEAVES = 45
STAR_PROB = 0.25


class MembershipGroups:
    """One ``rat positive`` that compiles a fresh expression, then
    MEMBER_QUERIES ``rat member`` calls that reuse the compiled acceptor."""

    def __init__(self, rng):
        self.queue: list[Request] = []

    def __call__(self, rng) -> Request:
        if not self.queue:
            self.queue = _membership_group(rng)
        return self.queue.pop(0)


def _membership_group(rng) -> list[Request]:
    expr = _big_expr(rng, EXPR_LEAVES, 10)
    text = format_ratexpr(expr)
    walked = [_walk(rng, expr) for _ in range(MEMBER_QUERIES)]
    group = [
        Request(
            "compile",
            ["rat", "positive", "--expr", "@expr"],
            f"positive {text}",
            {"@expr": text},
            lambda out: _check_positive(out, walked),
        )
    ]
    for i, w in enumerate(walked):
        word = format_word(w)
        group.append(
            Request(
                "query",
                ["rat", "member", "--expr", "@expr", "--word", word],
                f"member {i} {word} {text}",
                {"@expr": text},
                lambda out: json.loads(out)["result"]["member"] is True,
            )
        )
    return group


def _check_positive(out: str, members: list[Word]) -> bool:
    result = json.loads(out)["result"]
    if result["positive"]:
        return result["witness"] is None and all(w.is_positive() for w in members)
    return not parse_word(result["witness"]).is_positive()


# -- gaps scan ----------------------------------------------------------------

SCAN_SAMPLES = 150
# (word, group flags, syllable-cap range)
_SCAN_CONFIGS = (
    ("x1^2", [], (6, 6)),
    ("x1^2", [], (7, 20)),
    ("x1^2 x2^2", [], (6, 20)),
    ("x1^2", ["--b-mod", "6"], (6, 20)),
)


def _gap_scan(config, rng) -> Request:
    word, flags, (lo, hi) = config
    cap = rng.randint(lo, hi)
    seed = rng.randrange(2**31)
    argv = ["gaps", "scan", "--word", word, "--b", "b^1", "--samples", str(SCAN_SAMPLES),
            "--seed", str(seed), "--cap-len", str(cap), *flags]
    squares = word == "x1^2" and not flags and cap <= 6
    return Request(
        f"{word}{' mod 6' if flags else ''}",
        argv,
        " ".join(argv),
        {},
        lambda out: _check_scan(out, seed, cap, squares),
    )


def scan_summary(out: str) -> tuple[int, list[list[int]]]:
    """(max γ, histogram) of a CSV scan report."""
    gammas = [int(row.split(",")[2]) for row in out.splitlines()[2:]]
    hist: dict[int, int] = {}
    for g in gammas:
        hist[g] = hist.get(g, 0) + 1
    return max(gammas, default=0), [list(p) for p in sorted(hist.items())]


@functools.cache
def _square_gamma_bound() -> int:
    """max γ over all squares of <= 12 syllables, by the test-suite oracle."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
    from oracle_squares import exhaustive_square_gamma_max

    return exhaustive_square_gamma_max(12)


def _check_scan(out: str, seed: int, cap: int, squares: bool) -> bool:
    lines = out.splitlines()
    header = json.loads(lines[0].removeprefix("# "))
    rows = [[int(x) for x in line.split(",")] for line in lines[2:]]
    ok = (
        header["seed"] == seed
        and header["samples"] == SCAN_SAMPLES
        and header["max_syllables"] == cap
        and lines[1] == "sample_id,syllable_length,gamma,max_k"
        and [r[0] for r in rows] == list(range(SCAN_SAMPLES))
        and all(len(r) == 4 and r[2] >= 0 for r in rows)
    )
    if ok and squares:
        # every square of a <=6-syllable element has <=12 syllables
        ok = max(r[2] for r in rows) <= _square_gamma_bound()
    return ok


# -- registry -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    # one round of the request cycle, as factories: each stream calls a
    # factory once with its rng to get that slot's generator
    cycle: tuple
    # whether the warm-up answers are compared with pinned.json (the other
    # workloads have an independent check for every answer)
    pinned: bool


def _plain(fn):
    return lambda rng: fn


WORKLOADS = {
    "refute": Workload(tuple(_plain(f) for f in (refute_standard_form, refute_deep, refute_mixed)), False),
    "positivize": Workload(
        tuple(
            [_plain(positivize_sandwich)] * 16
            + [_plain(positivize_conjugated_star)] * 7
            + [_plain(positivize_product_finite)] * 8
            + [_plain(positivize_product_star)] * 8
            + [StarConjugated]
        ),
        False,
    ),
    "membership": Workload((MembershipGroups,), True),
    "gaps-scan": Workload(tuple(_plain(functools.partial(_gap_scan, c)) for c in _SCAN_CONFIGS), True),
}


def pinned_answer(workload: str, out: str):
    """The part of an answer that pinned.json records."""
    if workload == "gaps-scan":
        return list(scan_summary(out))
    result = json.loads(out)["result"]
    if "positive" in result:
        return [result["positive"], result["witness"]]
    return result["member"]
