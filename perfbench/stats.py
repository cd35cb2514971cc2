"""Percentiles, probe normalisation and spread: the benchmark's arithmetic.

Kept free of imports from the program under test so the benchmark's own
tests can check it in isolation.
"""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only with at least this many samples above it.
MIN_SAMPLES_BEYOND = 10


class TooFewSamples(ValueError):
    """Raised when a percentile has fewer than MIN_SAMPLES_BEYOND samples above it."""


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` sorted samples lie above the nearest-rank ``pct``."""
    rank = max(1, math.ceil(pct / 100.0 * count))
    return count - rank


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; refuses one without enough samples beyond it.

    A failed operation enters ``values`` as ``math.inf``, so it counts as
    missing any latency limit.
    """
    if not 0 < pct < 100:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    count = len(values)
    beyond = samples_beyond(count, pct)
    if beyond < MIN_SAMPLES_BEYOND:
        raise TooFewSamples(
            f"p{pct:g} of {count} samples has {beyond} beyond it;"
            f" {MIN_SAMPLES_BEYOND} are needed"
        )
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * count)) - 1]


def speed_factors(
    probes_us: list[float], reference_us: float, segments: int
) -> list[float]:
    """Per-segment factors that rescale a wall time to the reference host speed.

    ``probes_us`` holds ``segments + 1`` probe samples taken at the
    boundaries of ``segments`` timed segments.  Each segment is scaled by
    the reference probe time over the mean of the two probes around it,
    so a segment run while the host was slow (a long probe) shrinks.
    """
    if len(probes_us) != segments + 1:
        raise ValueError(
            f"{segments} segments need {segments + 1} probes, got {len(probes_us)}"
        )
    if reference_us <= 0 or any(p <= 0 for p in probes_us):
        raise ValueError("probe times must be positive")
    return [
        reference_us / ((probes_us[i] + probes_us[i + 1]) / 2.0)
        for i in range(segments)
    ]


def normalise(raw_seconds: list[float], factors: list[float]) -> list[float]:
    """Segment wall times, each rescaled by its speed factor."""
    if len(raw_seconds) != len(factors):
        raise ValueError("one factor per segment is needed")
    return [raw * factor for raw, factor in zip(raw_seconds, factors)]


def block_median_rate(ops: list[int], seconds: list[float], blocks: int) -> float:
    """Median over ``blocks`` runs of consecutive segments of ops per second.

    The segments are split into ``blocks`` equal runs, the last taking
    any remainder; a block caught by a host stall then moves the median
    less than it would move the overall rate.
    """
    size = len(seconds) // blocks if blocks > 0 else 0
    if size == 0 or len(ops) != len(seconds):
        raise ValueError(f"{len(seconds)} segments cannot fill {blocks} blocks")
    edges = [(b * size, (b + 1) * size if b < blocks - 1 else len(seconds))
             for b in range(blocks)]
    return statistics.median(sum(ops[a:b]) / sum(seconds[a:b]) for a, b in edges)


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
