"""Reference cyclic form for ``freeprod.cyclic_form``.

``core_decompose`` peels mutually inverse outer syllables off a normal
form into a conjugator, rebuilding the peeled core through
``group.element`` (which normalises again), and checks the peeling by
multiplying the pieces back together.  ``cyclic_form_by_peeling`` then
merges the core's same-factor ends through ``group.element`` as well.
``freeprod.cyclic_form`` does the same in one pass by index, with no
products and no renormalisation.
"""
from __future__ import annotations

from dataclasses import dataclass

from freerat.freeprod import FPElement, Syllable


@dataclass(frozen=True)
class CoreDecomposition:
    """u = r_t⁻¹…r₁⁻¹ · core · r₁…r_t with the core not conjugation-peelable."""

    conjugator_syllables: tuple[Syllable, ...]  # (r₁, …, r_t), innermost first
    core: FPElement

    def reassemble(self) -> FPElement:
        g = self.core.group
        conj = g.element(self.conjugator_syllables)
        return conj.inv() * self.core * conj


def core_decompose(u: FPElement) -> CoreDecomposition:
    """Greedy peeling of mutually inverse outer syllables into the conjugator."""
    if not u:
        raise ValueError("identity has no core decomposition")
    group = u.group
    syl = list(u.syllables)
    peeled: list[Syllable] = []
    while len(syl) >= 2 and syl[0][0] == syl[-1][0] and group.factors[syl[0][0]].canon(syl[0][1] + syl[-1][1]) == 0:
        peeled.append(syl[-1])
        syl = syl[1:-1]
    decomp = CoreDecomposition(tuple(reversed(peeled)), group.element(syl))
    assert decomp.reassemble() == u
    return decomp


def cyclic_form_by_peeling(u: FPElement) -> FPElement:
    """The cyclically reduced form of the core, with same-factor ends merged
    into a single closing syllable."""
    core = core_decompose(u).core
    syl = core.syllables
    if len(syl) <= 1 or syl[0][0] != syl[-1][0]:
        return core
    f = syl[0][0]
    merged = core.group.factors[f].canon(syl[-1][1] + syl[0][1])
    assert merged != 0  # guaranteed: the core's ends do not cancel
    return core.group.element(syl[1:-1] + ((f, merged),))
