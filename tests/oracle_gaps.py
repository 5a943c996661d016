"""Two-pass gap counting: one scan of the normal form per syllable.

``gaps.gap_profile`` counts b and b⁻¹ in a single pass; this is the scan
it replaced, kept as an independent check."""
from typing import Optional


def gap_counts(syllables, b) -> dict[int, int]:
    """k -> number of b-gaps of length 2k−1 among ``syllables``."""
    out: dict[int, int] = {}
    prev: Optional[int] = None
    for idx, s in enumerate(syllables):
        if s != b:
            continue
        if prev is not None:
            dist = idx - prev
            assert dist % 2 == 0, "same-factor syllables alternate at even distance"
            k = dist // 2
            out[k] = out.get(k, 0) + 1
        prev = idx
    return out


def gap_table(syllables, b, b_inv) -> dict[int, tuple[int, int]]:
    """k -> (δ_{b,k}, δ_{b⁻¹,k}) from one scan for each syllable."""
    counts = gap_counts(syllables, b)
    counts_inv = gap_counts(syllables, b_inv)
    keys = sorted(set(counts) | set(counts_inv))
    return {k: (counts.get(k, 0), counts_inv.get(k, 0)) for k in keys}
