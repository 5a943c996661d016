"""Reference versions of the gap counting and of the boundedness scan.

``gaps.gap_profile`` counts b and b⁻¹ in a single pass; ``gap_table`` is
the scan it replaced, one pass per syllable, kept as an independent check.
``random_element`` and ``scan_report`` are the scan as it was first
written, drawing through ``randrange``, ``randint`` and ``choice``.
``family_member`` builds the n-th member of ``gaps.unbounded_family`` on
its own, from the powers vᵏ rather than the running prefix.
``profile_dict`` reads a gap profile's table as a dict."""
import random
from collections import Counter
from typing import Optional

from freerat.freeprod import FPElement, fp_substitute
from freerat.gaps import GapProfile, ScanRecord, ScanReport, gap_profile


def profile_dict(profile: GapProfile) -> dict[int, tuple[int, int]]:
    """k -> (δ_{b,k}, δ_{b⁻¹,k}) for the nonzero pairs of ``profile``."""
    return dict(profile.table)


def family_member(
    p: FPElement, u: FPElement, v: FPElement, q: FPElement, n: int
) -> FPElement:
    """p·uu·v¹·uu·v²·uu ⋯ vⁿ·uu·q — the n-th cumulative member."""
    out = p * u * u
    for k in range(1, n + 1):
        out = out * v**k * u * u
    return out * q


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


def random_element(rng, group, config):
    """The scan's sampler written with ``randrange``, ``randint`` and
    ``choice``: the draw order that ``gaps._element_sampler`` must keep."""
    factors = [(fid, factor.modulus) for fid, factor in group.factors.items()]
    start = rng.randrange(2)
    out = []
    for k in range(rng.randrange(config.max_syllables + 1)):
        fid, modulus = factors[(start + k) % 2]
        if modulus is None:
            exp = rng.choice((-1, 1)) * rng.randint(1, config.max_exponent)
        else:
            exp = rng.randint(1, modulus - 1)
        out.append((fid, exp))
    return group.element(out)


def scan_report(w, b, e, config, group):
    """``criterion_scan`` rebuilt from the oracle sampler, one ``GapProfile``
    per sample."""
    rng = random.Random(config.seed)
    n_vars = max((abs(l) for l in w.letters), default=1)
    records = []
    for sample_id in range(config.samples):
        images = [random_element(rng, group, config) for _ in range(n_vars)]
        value = fp_substitute(w, images)
        profile = gap_profile(value, b)
        records.append(ScanRecord(sample_id, len(value), profile.gamma(e), profile.max_k()))
    histogram = Counter(r.gamma for r in records)
    return ScanReport(
        b,
        e,
        config,
        max(histogram, default=0),
        tuple(sorted(histogram.items())),
        tuple(records),
    )
