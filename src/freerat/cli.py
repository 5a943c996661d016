"""Batch command-line front end.

Subcommands mirror the library modules (word, fp, rat, sign, gaps, verbal,
refute).  Every JSON output is wrapped in a fixed envelope — schema id,
command name, seed, config echo, result — serialized with sorted keys so
identical invocations produce byte-identical reports.  The gaps scanner
hands off CSV with a JSON header line.  ``refute`` re-verifies its own
certificate and exits nonzero when the replay fails.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from freerat.automata import enumerate_accepted, text_acceptor
from freerat.errors import GaveUp
from freerat.freeprod import (
    FREE_ZZ,
    FreeProduct,
    Syllable,
    cyclic_form,
    format_fp,
    parse_fp,
)
from freerat.gaps import ScanConfig, criterion_scan, gap_profile, unbounded_family
from freerat.ratexpr import format_ratexpr, parse_ratexpr
from freerat.refuter import refute, replay_report
from freerat.signs import positive_witness, positivize
from freerat.verbal import (
    CommonSupportCase,
    SingleAxisCase,
    VerbalQuery,
    abelianized_verbal,
    enumerate_values,
    is_value,
    support_dichotomy_check,
    w_length,
)
from freerat.words import (
    Word,
    bezout_coefficients,
    classify,
    exponent_gcd,
    exponent_profile,
    format_word,
    parse_word,
)

SCHEMA_ID = "freerat-report/1"


def _emit(args, command: str, config: dict, result: dict) -> None:
    envelope = {
        "schema": SCHEMA_ID,
        "command": command,
        "seed": getattr(args, "seed", None),
        "config": config,
        "result": result,
    }
    text = json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _group(args) -> FreeProduct:
    a = getattr(args, "a_mod", None)
    b = getattr(args, "b_mod", None)
    return FreeProduct(a, b) if (a or b) else FREE_ZZ


def _syllable(text: str, group: FreeProduct) -> Syllable:
    element = parse_fp(text, group)
    if len(element.syllables) != 1:
        raise ValueError(f"expected a single syllable, got {text!r}")
    return element.syllables[0]


def _expr_text(value: str) -> str:
    """The expression text of an ``--expr`` value: a file's contents, or
    the value itself."""
    path = Path(value)
    try:
        is_file = path.exists()
    except OSError:  # inline text longer than a file name may be
        is_file = False
    return path.read_text() if is_file else value


# -- word -------------------------------------------------------------------


def _word_reduce(args) -> int:
    print(format_word(parse_word(args.text)))
    return 0


def _word_classify(args) -> int:
    w = parse_word(args.text)
    result = {
        "word": format_word(w),
        "class": classify(w).value,
        "exponent_gcd": exponent_gcd(w),
        "profile": list(exponent_profile(w, max(2, w.max_generator()))),
    }
    _emit(args, "word.classify", {}, result)
    return 0


def _word_bezout(args) -> int:
    w = parse_word(args.text)
    result = {
        "word": format_word(w),
        "exponents": list(bezout_coefficients(w)),
        "gcd": exponent_gcd(w),
    }
    _emit(args, "word.bezout", {}, result)
    return 0


# -- fp ---------------------------------------------------------------------


def _fp_reduce(args) -> int:
    print(format_fp(parse_fp(args.text, _group(args))))
    return 0


def _fp_cyclic(args) -> int:
    print(format_fp(cyclic_form(parse_fp(args.text, _group(args)))))
    return 0


# -- rat --------------------------------------------------------------------


def _rat_member(args) -> int:
    expr_text = _expr_text(args.expr)
    try:
        w = parse_word(args.word)
    except ValueError:
        parse_ratexpr(expr_text)  # a bad expression is reported first, and no DFA is built
        raise
    text, dfa = text_acceptor(expr_text)
    result = {
        "expression": text,
        "word": format_word(w),
        "member": dfa.accepts_word(w),
    }
    _emit(args, "rat.member", {}, result)
    return 0


def _rat_positive(args) -> int:
    expr = parse_ratexpr(_expr_text(args.expr))
    witness = positive_witness(expr)
    result = {
        "expression": format_ratexpr(expr),
        "positive": witness is None,
        "witness": None if witness is None else format_word(witness),
    }
    _emit(args, "rat.positive", {}, result)
    return 0


def _rat_enumerate(args) -> int:
    if args.cap_len < 0:
        raise ValueError(f"--cap-len must be nonnegative, got {args.cap_len}")
    text, dfa = text_acceptor(_expr_text(args.expr))
    words = sorted(Word(s) for s in enumerate_accepted(dfa, args.cap_len))
    result = {
        "expression": text,
        "cap": args.cap_len,
        "count": len(words),
        "words": [format_word(w) for w in words],
    }
    _emit(args, "rat.enumerate", {"cap_len": args.cap_len}, result)
    return 0


# -- sign -------------------------------------------------------------------


def _sign_positivize(args) -> int:
    expr = parse_ratexpr(_expr_text(args.expr))
    left = parse_word(args.left)
    right = parse_word(args.right)
    outcome = positivize(expr, left, right)
    result = {
        "input": format_ratexpr(expr),
        "left": format_word(left),
        "right": format_word(right),
        "expression": format_ratexpr(outcome.expr),
        "trace": outcome.trace,
    }
    _emit(args, "sign.positivize", {}, result)
    return 0


# -- gaps -------------------------------------------------------------------


def _gaps_profile(args) -> int:
    group = _group(args)
    element = parse_fp(args.u, group)
    b = _syllable(args.b, group)
    profile = gap_profile(element, b)
    result = {
        "element": format_fp(element),
        "b": list(profile.b),
        "table": {str(k): list(pair) for k, pair in profile.table},
        "max_k": profile.max_k(),
    }
    _emit(args, "gaps.profile", {}, result)
    return 0


def _scan_csv(report) -> str:
    header = {
        "b": list(report.b),
        "e": report.e,
        "samples": report.config.samples,
        "seed": report.config.seed,
        "max_syllables": report.config.max_syllables,
        "max_exponent": report.config.max_exponent,
    }
    lines = ["# " + json.dumps(header, sort_keys=True)]
    lines.append("sample_id,syllable_length,gamma,max_k")
    for r in report.records:
        lines.append(f"{r.sample_id},{r.syllable_length},{r.gamma},{r.max_k}")
    return "\n".join(lines) + "\n"


def _gaps_scan(args) -> int:
    group = _group(args)
    w = parse_word(args.word)
    b = _syllable(args.b, group)
    e = args.e if args.e is not None else exponent_gcd(w)
    config = ScanConfig(
        samples=args.samples,
        seed=args.seed,
        max_syllables=args.cap_len,
        max_exponent=args.max_exponent,
    )
    report = criterion_scan(w, b, e, config, group)
    csv_text = _scan_csv(report)
    if args.out:
        Path(args.out).write_text(csv_text)
        result = {
            "b": list(report.b),
            "e": report.e,
            "samples": report.config.samples,
            "max_gamma": report.max_gamma,
            "histogram": [list(pair) for pair in report.histogram],
            "csv": str(args.out),
        }
        args.out = None  # summary goes to stdout; the CSV owns the file
        _emit(args, "gaps.scan", asdict(config) | {"word": format_word(w)}, result)
    else:
        sys.stdout.write(csv_text)
    return 0


def _gaps_family(args) -> int:
    group = _group(args)
    parse = lambda text: parse_fp(text, group)  # noqa: E731
    report = unbounded_family(
        parse(args.p), parse(args.u), parse(args.v), parse(args.q), args.n, e=args.e
    )
    result = {
        "b": list(report.b),
        "e": report.e,
        "gammas": list(report.gammas),
        "members": [format_fp(m) for m in report.members],
    }
    _emit(args, "gaps.family", {"n": args.n}, result)
    return 0


# -- verbal -----------------------------------------------------------------


def _verbal_enum(args) -> int:
    w = parse_word(args.word)
    values = sorted(enumerate_values(VerbalQuery(w, args.cap_len)))
    result = {
        "word": format_word(w),
        "cap": args.cap_len,
        "count": len(values),
        "values": [format_word(g) for g in values],
    }
    _emit(args, "verbal.enum", {"cap_len": args.cap_len}, result)
    return 0


def _verbal_member(args) -> int:
    w = parse_word(args.word)
    g = parse_word(args.element)
    got = is_value(VerbalQuery(w, args.cap_len), g)
    result = {
        "word": format_word(w),
        "element": format_word(g),
        "verdict": got.verdict,
        "reason": got.reason,
        "witness": None if got.witness is None else [format_word(x) for x in got.witness],
    }
    _emit(args, "verbal.member", {"cap_len": args.cap_len}, result)
    return 0


def _verbal_length(args) -> int:
    w = parse_word(args.word)
    g = parse_word(args.element)
    query = VerbalQuery(w, args.cap_len, product_cap=args.product_cap)
    result = {
        "word": format_word(w),
        "element": format_word(g),
        "length": w_length(query, g),
        "abelianized_index": abelianized_verbal(w, 2).index,
    }
    _emit(args, "verbal.length", {"cap_len": args.cap_len, "product_cap": args.product_cap}, result)
    return 0


def _verbal_dichotomy(args) -> int:
    group = _group(args)
    w = parse_word(args.word)
    E = [parse_fp(text, group) for text in args.gen]
    p = parse_fp(args.p, group)
    q = parse_fp(args.q, group)
    case = support_dichotomy_check(E, p, q, w, budget=args.budget)
    if isinstance(case, SingleAxisCase):
        result = {"case": "single-axis", "axis": case.axis}
    elif isinstance(case, CommonSupportCase):
        result = {"case": "common-support", "support": sorted([f, k] for f, k in case.syllables)}
    else:
        result = {
            "case": "refuted",
            "witness": format_fp(case.witness),
            "exact": case.exact,
            "certificate": case.certificate,
            "gammas": list(case.family.gammas),
        }
    _emit(args, "verbal.dichotomy", {"budget": args.budget}, result)
    return 0


# -- refute -----------------------------------------------------------------


def _refute(args) -> int:
    expr = parse_ratexpr(_expr_text(args.expr))
    w = parse_word(args.word)
    report = refute(expr, w, foreign_cap=args.foreign_cap)
    payload = report.as_json()
    replayed = replay_report(payload)
    result = payload | {"replayed": replayed}
    _emit(args, "refute", {"foreign_cap": args.foreign_cap}, result)
    if not replayed:
        print("certificate replay failed", file=sys.stderr)
        return 2
    return 0


# -- parser -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ``ValueError``, so it ends like any other
    invalid input: one ``error:`` line and exit status 1.  Subparsers are
    built with the class of their parent, so they raise it too."""

    def error(self, message):
        raise ValueError(message)


def _add_group_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a-mod", type=int, default=None, help="modulus of the a factor (default: infinite)")
    parser.add_argument("--b-mod", type=int, default=None, help="modulus of the b factor (default: infinite)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="freerat",
        description="rational subsets, positivity and verbal sets in free groups",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    word = commands.add_parser("word", help="free-group word utilities").add_subparsers(
        dest="op", required=True
    )
    p = word.add_parser("reduce", help="print the reduced form")
    p.add_argument("text")
    p.set_defaults(func=_word_reduce)
    p = word.add_parser("classify", help="class and exponent data")
    p.add_argument("text")
    p.add_argument("--out")
    p.set_defaults(func=_word_classify)
    p = word.add_parser("bezout", help="exponent-gcd certificate")
    p.add_argument("text")
    p.add_argument("--out")
    p.set_defaults(func=_word_bezout)

    fp = commands.add_parser("fp", help="free-product normal forms").add_subparsers(
        dest="op", required=True
    )
    p = fp.add_parser("reduce", help="print the normal form")
    p.add_argument("text")
    _add_group_flags(p)
    p.set_defaults(func=_fp_reduce)
    p = fp.add_parser("cyclic", help="print the cyclic form")
    p.add_argument("text")
    _add_group_flags(p)
    p.set_defaults(func=_fp_cyclic)

    rat = commands.add_parser("rat", help="rational subsets").add_subparsers(
        dest="op", required=True
    )
    p = rat.add_parser("member", help="exact membership")
    p.add_argument("--expr", required=True, help="s-expression text or file path")
    p.add_argument("--word", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_rat_member)
    p = rat.add_parser("positive", help="is the denoted set positive?")
    p.add_argument("--expr", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_rat_positive)
    p = rat.add_parser("enumerate", help="members up to a length cap")
    p.add_argument("--expr", required=True)
    p.add_argument("--cap-len", type=int, default=6)
    p.add_argument("--out")
    p.set_defaults(func=_rat_enumerate)

    sign = commands.add_parser("sign", help="positivity constructions").add_subparsers(
        dest="op", required=True
    )
    p = sign.add_parser("positivize", help="rewrite a positive sandwich with positive atoms")
    p.add_argument("--expr", required=True)
    p.add_argument("--left", default="1")
    p.add_argument("--right", default="1")
    p.add_argument("--out")
    p.set_defaults(func=_sign_positivize)

    gaps = commands.add_parser("gaps", help="gap profiles and the boundedness criterion").add_subparsers(
        dest="op", required=True
    )
    p = gaps.add_parser("profile", help="δ-table of one element")
    p.add_argument("--u", required=True)
    p.add_argument("--b", required=True, help="gap syllable, e.g. b^1")
    _add_group_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_gaps_profile)
    p = gaps.add_parser("scan", help="γ over sampled word values (CSV hand-off)")
    p.add_argument("--word", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--e", type=int, default=None, help="default: the word's exponent gcd")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap-len", type=int, default=20, help="max syllables per sampled image")
    p.add_argument("--max-exponent", type=int, default=2)
    _add_group_flags(p)
    p.add_argument("--out", help="CSV path; summary JSON then goes to stdout")
    p.set_defaults(func=_gaps_scan)
    p = gaps.add_parser("family", help="cumulative family with growing γ")
    p.add_argument("--p", default="1")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--q", default="1")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--e", type=int, default=2)
    _add_group_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_gaps_family)

    verbal = commands.add_parser("verbal", help="verbal subsets").add_subparsers(
        dest="op", required=True
    )
    p = verbal.add_parser("enum", help="values over a capped substitution ball")
    p.add_argument("--word", required=True)
    p.add_argument("--cap-len", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=_verbal_enum)
    p = verbal.add_parser("member", help="three-valued membership")
    p.add_argument("--word", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--cap-len", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=_verbal_member)
    p = verbal.add_parser("length", help="verbal-subgroup length")
    p.add_argument("--word", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--cap-len", type=int, default=2)
    p.add_argument("--product-cap", type=int, default=3)
    p.add_argument("--out")
    p.set_defaults(func=_verbal_length)
    p = verbal.add_parser("dichotomy", help="classify p·E*·q against the values of a word")
    p.add_argument("--word", required=True)
    p.add_argument("--gen", action="append", required=True, help="generator (repeatable)")
    p.add_argument("--p", default="1")
    p.add_argument("--q", default="1")
    p.add_argument("--budget", type=int, default=3)
    _add_group_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_verbal_dichotomy)

    p = commands.add_parser("refute", help="refute a rational description of positive word values")
    p.add_argument("--word", required=True)
    p.add_argument("--expr", required=True, help="s-expression text or file path")
    p.add_argument("--foreign-cap", type=int, default=10)
    p.add_argument("--out")
    p.set_defaults(func=_refute)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except GaveUp as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
