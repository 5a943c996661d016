"""Reference searches for the positivity questions of ``signs``.

``positive_witness_by_difference`` finds the shortest non-positive member
of a rational subset of F₂ as a shortest string in the difference of its
acceptor with the one-state acceptor of all positive strings: a product
with a determinized complement, where ``signs.positive_witness`` searches
the acceptor alone.

``deepest_negative_by_enumeration`` lists every accepted string up to the
window and keeps the first one whose last negative syllable comes latest,
skipping those with a negative syllable past the bound — exponential in
the window, but with no logic shared with the configuration search in
``signs.deepest_negative``.

``split_product`` is the product split on finite sets of free-product
elements, the construction ``signs._middle`` carries to DFAs: for S·T
positive it finds u with S·u⁻¹ and u·T positive, and its case is the one
``_middle`` must report.  It takes a ``SignModel``, which may give a finite
factor a submonoid of positive residues; the library knows only the
standard sign (``FPElement.is_positive``), and a residue rule is the only
way to reach the split's case-1.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from oracle_boolean import difference

from freerat.automata import Acceptor, enumerate_accepted, reduced_acceptor, shortest_accepted
from freerat.freeprod import FREE_ZZ, FPElement, FreeProduct, _normal_element, format_fp, from_f2
from freerat.ratexpr import RatExpr
from freerat.words import Word


def positive_universe() -> Acceptor:
    """All strings over the positive letters 1 and 2 (no inverses): one
    state, initial and final, with a loop on each letter."""
    return Acceptor(frozenset((1, 2)), [(1, 1)], 1, 1)


def positive_witness_by_difference(expr: RatExpr) -> Optional[Word]:
    bad = difference(reduced_acceptor(expr), positive_universe())
    s = shortest_accepted(bad)
    return None if s is None else Word(s)


def deepest_negative_by_enumeration(
    bad: Acceptor, window: int, bound: int
) -> Optional[tuple[int, tuple[int, ...]]]:
    best = None  # (index, string)
    for s in enumerate_accepted(bad, window):
        idx = last_negative_index(from_f2(Word(s)), STANDARD_F2_SIGN)
        if idx <= bound and (best is None or idx > best[0]):
            best = (idx, s)
    return best


# -- sign models -----------------------------------------------------------


@dataclass(frozen=True)
class SignModel:
    """Per-factor positivity over a two-factor free product.

    ``positive_sets`` maps a factor id to None for the infinite cyclic
    rule (exponent >= 0) or, for a finite cyclic factor, to the set of
    positive residues, which must contain 0 and be closed under addition
    modulo the factor order.
    """

    group: FreeProduct
    positive_sets: tuple[tuple[str, Optional[frozenset[int]]], ...]

    def __post_init__(self):
        rules = dict(self.positive_sets)
        for fid, factor in self.group.factors.items():
            rule = rules.get(fid)
            if factor.modulus is None:
                if rule is not None:
                    raise ValueError(f"factor {fid!r} is infinite cyclic; rule must be None")
            else:
                if rule is None:
                    raise ValueError(f"factor {fid!r} needs an explicit positive set")
                if 0 not in rule:
                    raise ValueError(f"positive set of {fid!r} must contain the identity")
                m = factor.modulus
                for x in rule:
                    for y in rule:
                        if (x + y) % m not in rule:
                            raise ValueError(
                                f"positive set of {fid!r} is not closed under product"
                            )

    def rule(self, factor_id: str) -> Optional[frozenset[int]]:
        return dict(self.positive_sets)[factor_id]

    def factor_positive(self, factor_id: str, exponent: int) -> bool:
        """Positivity of a single factor element (exponent 0 = identity)."""
        factor = self.group.factors[factor_id]
        if factor.modulus is None:
            return exponent >= 0
        return factor.canon(exponent) in self.rule(factor_id)


def standard_sign(group: FreeProduct) -> SignModel:
    """Nonnegative exponents on ℤ factors; everything positive on finite
    cyclic factors: the rule of ``FPElement.is_positive``."""
    rules = []
    for fid, factor in group.factors.items():
        if factor.modulus is None:
            rules.append((fid, None))
        else:
            rules.append((fid, frozenset(range(factor.modulus))))
    return SignModel(group, tuple(rules))


STANDARD_F2_SIGN = standard_sign(FREE_ZZ)


def is_positive(u: FPElement, sign: SignModel) -> bool:
    if u.group != sign.group:
        raise ValueError("element does not belong to the sign model's group")
    return all(sign.factor_positive(fid, exp) for fid, exp in u.syllables)


def first_negative_index(u: FPElement, sign: SignModel) -> int:
    """1-based index of the first negative syllable; 0 when positive."""
    for idx, (fid, exp) in enumerate(u.syllables, start=1):
        if not sign.factor_positive(fid, exp):
            return idx
    return 0


def last_negative_index(u: FPElement, sign: SignModel) -> int:
    """1-based index of the last negative syllable; 0 when positive."""
    out = 0
    for idx, (fid, exp) in enumerate(u.syllables, start=1):
        if not sign.factor_positive(fid, exp):
            out = idx
    return out


def reversal(u: FPElement) -> FPElement:
    """Reverse the syllable order (an anti-automorphism keeping each syllable)."""
    return _normal_element(u.group, u.syllables[::-1])


# -- the constructive split ------------------------------------------------


class NotPositivePair(ValueError):
    """A pair (s, t) whose product s·t is not positive."""

    def __init__(self, message: str, witness: tuple[FPElement, FPElement]):
        super().__init__(f"{message}: (" + ", ".join(format_fp(u) for u in witness) + ")")
        self.witness = witness


@dataclass(frozen=True)
class SplitTrace:
    """Audit record of one split: S·u⁻¹ and u·T are positive."""

    i0: int
    j0: int
    c: FPElement
    b0: FPElement
    u: FPElement
    case: str  # both-positive | case-1 | case-2 | mirrored


def _split_factor_element(
    sign: SignModel, factor_id: str, s_exps: list[int], t_exps: list[int]
) -> int:
    """An exponent β with s−β and β+t positive in the factor for all
    constraints; raises if the factor rule admits none."""
    factor = sign.group.factors[factor_id]
    if factor.modulus is None:
        lo = max((-t for t in t_exps), default=None)
        hi = min(s_exps, default=None)
        if hi is not None and lo is not None and lo > hi:
            raise RuntimeError("no splitting exponent exists for the ℤ factor")
        if hi is not None:
            return hi
        if lo is not None:
            return lo
        return 0
    rule = sign.rule(factor_id)
    m = factor.modulus
    for r in range(m):
        if all((s - r) % m in rule for s in s_exps) and all(
            (r + t) % m in rule for t in t_exps
        ):
            return r
    raise RuntimeError("the finite factor's sign rule admits no splitting element")


def split_product(
    S: Iterable[FPElement], T: Iterable[FPElement], sign: SignModel
) -> SplitTrace:
    """Given finite nonempty S, T with every product s·t positive, produce
    u with S·u⁻¹ and u·T positive, following the cancellation analysis of
    the common prefix c before the deepest surviving negative syllable."""
    S, T = frozenset(S), frozenset(T)
    if not S or not T:
        raise ValueError("split_product needs non-empty S and T")
    group = sign.group
    for s in sorted(S):
        for t in sorted(T):
            if not is_positive(s * t, sign):
                raise NotPositivePair("S·T has a non-positive product", (s, t))

    i_vals = [
        len(u) - first_negative_index(u, sign) + 1
        for u in S
        if not is_positive(u, sign)
    ]
    j_vals = [last_negative_index(v, sign) for v in T if not is_positive(v, sign)]
    i0 = max(i_vals, default=0)
    j0 = max(j_vals, default=0)

    if i0 == 0 and j0 == 0:
        return SplitTrace(0, 0, group.identity, group.identity, group.identity, "both-positive")

    if i0 > j0:
        inner = split_product(
            [reversal(t) for t in T], [reversal(s) for s in S], sign
        )
        u = reversal(inner.u).inv()
        trace = SplitTrace(i0, j0, inner.c, inner.b0, u, "mirrored")
        _verify_split(S, T, trace, sign)
        return trace

    pivot = min(
        v for v in T if not is_positive(v, sign) and last_negative_index(v, sign) == j0
    )
    c = group.element(pivot.syllables[: j0 - 1])
    factor_id = pivot.syllables[j0 - 1][0]
    c_inv = c.inv()

    s_exps = []
    for u_ in sorted(S):
        tail = u_ * c
        if tail and tail.syllables[-1][0] == factor_id:
            s_exps.append(tail.syllables[-1][1])
        else:
            s_exps.append(0)  # u⁻¹'s leading factor element survives bare
    t_exps = []
    for v in sorted(T):
        head = c_inv * v
        if head and head.syllables[0][0] == factor_id:
            t_exps.append(head.syllables[0][1])
        else:
            t_exps.append(0)

    beta = _split_factor_element(sign, factor_id, s_exps, t_exps)
    b0 = group.syllable(factor_id, beta)
    u = b0 * c_inv
    trace = SplitTrace(i0, j0, c, b0, u, "case-1" if i0 == j0 else "case-2")
    _verify_split(S, T, trace, sign)
    return trace


def _verify_split(S, T, trace: SplitTrace, sign: SignModel) -> None:
    u_inv = trace.u.inv()
    for s in S:
        if not is_positive(s * u_inv, sign):
            raise RuntimeError(
                f"split contract failed: {format_fp(s)}·u⁻¹ is not positive"
            )
    for t in T:
        if not is_positive(trace.u * t, sign):
            raise RuntimeError(
                f"split contract failed: u·{format_fp(t)} is not positive"
            )
