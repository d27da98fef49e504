"""The benchmark's arithmetic: percentiles, the capacity rule, spreads."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

#: Candidate tail percentiles, highest first.
TAILS = (99.9, 99.0, 90.0, 50.0)


def supported_percentile(count: int, ceiling: float = 99.0) -> float:
    """The highest percentile <= ``ceiling`` with at least ten samples
    beyond it (a p99 of 500 samples rests on five points: report p90)."""
    for pct in TAILS:
        # (the slack absorbs 100 - 99.9 not being exactly 0.1)
        if pct <= ceiling and count * (100.0 - pct) / 100.0 >= 10.0 - 1e-9:
            return pct
    return 50.0


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[min(len(ordered) - 1, max(0, rank - 1))]


def band_percentile(ordered: Sequence[float], pct: float,
                    half_width: float = 0.5) -> float:
    """The mean of the samples ranked within ``half_width`` percentile
    points of ``pct`` — a quantile smoothed over a band of order
    statistics.  It estimates the same quantity as the nearest-rank
    percentile at the band's centre with less seed-to-seed variance,
    because it rests on 1 % of the samples instead of on one."""
    count = len(ordered)
    low = math.floor(max(0.0, pct - half_width) / 100.0 * count)
    high = math.ceil(min(100.0, pct + half_width) / 100.0 * count)
    band = ordered[low:max(high, low + 1)] or ordered[-1:]
    return sum(band) / len(band)


def median_and_tail(samples: Sequence[float],
                    ceiling: float = 99.0) -> tuple[float, float, float]:
    """(median, tail value, tail percentile used) of unsorted samples,
    both as band percentiles."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    pct = supported_percentile(len(ordered), ceiling)
    return band_percentile(ordered, 50.0), band_percentile(ordered, pct), pct


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median — the driver's
    steadiness measure (``statistics.quantiles(values, n=4)``)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else math.inf


@dataclass
class StepSummary:
    """What the capacity rule needs to know about one ladder step."""

    rate: float          # offered ops/s
    tail_us: float       # all-op latency at the supported tail percentile
    drain_lag_us: float  # last reply after the last scheduled send
    failures: int = 0
    valid: bool = True   # False: the generator itself ran late

    def passes(self, limit_us: float) -> bool:
        return (self.valid and self.failures == 0
                and self.tail_us <= limit_us
                and self.drain_lag_us <= limit_us)


def capacity_step(steps: Sequence[StepSummary],
                  limit_us: float) -> Optional[StepSummary]:
    """The highest-rate ladder step that meets the latency limit with no
    growing backlog, no failure, and an honest generator."""
    passing = [step for step in steps if step.passes(limit_us)]
    return max(passing, key=lambda step: step.rate) if passing else None


def capacity(steps: Sequence[StepSummary], limit_us: float) -> float:
    """The capacity rule made continuous.

    The quantised answer is :func:`capacity_step`'s rate.  Between that
    step and the next one up the ladder, the tail latency crosses the
    limit somewhere; interpolating that crossing (linear in rate, log in
    latency) keeps the metric from flipping a whole ladder step when a
    seed moves a borderline p99 by a few microseconds.  Only a *tail*
    failure is interpolated: a next step that fails for backlog,
    failures, or generator lag leaves the quantised rate.
    """
    best = capacity_step(steps, limit_us)
    if best is None:
        return 0.0
    above = [step for step in steps if step.rate > best.rate]
    if not above:
        return best.rate
    nxt = min(above, key=lambda step: step.rate)
    if (not nxt.valid or nxt.failures or nxt.tail_us <= limit_us
            or best.tail_us <= 0.0):
        return best.rate
    share = (math.log(limit_us / best.tail_us)
             / math.log(nxt.tail_us / best.tail_us))
    return best.rate + (nxt.rate - best.rate) * min(1.0, max(0.0, share))
