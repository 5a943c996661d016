"""The gcd-achieving power substitution, the certificate behind
``words.bezout_coefficients``.

Substituting x_i -> g^{r_i} for the Bézout coefficients r of a word's
exponent profile collapses the value to g^e, e the exponent gcd.
"""
from __future__ import annotations

from typing import Optional

from freerat.words import Word, bezout_coefficients, exponent_gcd, substitute


def bezout_substitution(w: Word, g: Word, rank: Optional[int] = None) -> Word:
    """Substitute ``x_i -> g ** r_i`` for the Bezout coefficients r.

    Because every image is a power of ``g``, the value collapses to
    ``g ** exponent_gcd(w)`` exactly; the equality is asserted.
    """
    n = w.max_generator() if rank is None else rank
    r = bezout_coefficients(w, n)
    e = exponent_gcd(w, n)
    value = substitute(w, [g**ri for ri in r])
    assert value == g**e
    return value
