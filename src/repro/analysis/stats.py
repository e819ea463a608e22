"""Statistical tooling for multi-seed experiments.

Single runs of a stochastic simulation produce point estimates; credible
claims ("DBO is 100 % fair, Direct is 58 %") need uncertainty.  This
module provides:

* :func:`wilson_interval` — a binomial confidence interval for fairness
  ratios (pairs ordered correctly out of pairs observed), which behaves
  sanely at ratios near 0 and 1 where the normal approximation fails;
* :func:`pooled_fairness` — per-seed pair counts pooled into one
  Wilson interval;
* :func:`summarize_samples` — mean / std / CI for latency-style samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "wilson_interval",
    "pooled_fairness",
    "summarize_samples",
    "SampleSummary",
]

# Two-sided z for common confidence levels.
_Z = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


def _z_for(confidence: float) -> float:
    if confidence not in _Z:
        raise ValueError(f"confidence must be one of {sorted(_Z)}")
    return _Z[confidence]


def wilson_interval(
    successes: int,
    trials: int,
    confidence: float = 0.95,
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Returns ``(low, high)``; degenerates to ``(0, 1)`` with no trials.
    Appropriate for fairness ratios, which sit near 1.0 where the Wald
    interval collapses to zero width.
    """
    if trials < 0 or successes < 0 or successes > trials:
        raise ValueError("need 0 <= successes <= trials")
    if trials == 0:
        return (0.0, 1.0)
    z = _z_for(confidence)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    low = max(0.0, center - half)
    high = min(1.0, center + half)
    # Float rounding can leave center - half a few ulps above zero when
    # successes == 0 (or below one at successes == trials); the score
    # interval's exact endpoints there are 0 and 1, so pin them.
    if successes == 0:
        low = 0.0
    if successes == trials:
        high = 1.0
    return (min(low, p), max(high, p))


def pooled_fairness(
    pair_counts: Sequence[Tuple[int, int]],
    confidence: float = 0.95,
) -> Dict[str, object]:
    """Pool per-seed ``(correct_pairs, total_pairs)`` counts into one CI.

    Runs across seeds are independent by construction (disjoint seed
    substreams), so their pairwise-ordering trials pool into a single
    binomial: the headline ratio with a Wilson interval, plus the
    per-seed ratios for spread.  With zero trials everywhere the ratio
    degenerates to 1.0 (no pair was misordered) and the interval to the
    uninformative ``(0, 1)``.
    """
    successes = 0
    trials = 0
    per_seed: List[float] = []
    for correct, total in pair_counts:
        if not 0 <= correct <= total:
            raise ValueError("need 0 <= correct_pairs <= total_pairs per seed")
        successes += correct
        trials += total
        per_seed.append(correct / total if total else 1.0)
    low, high = wilson_interval(successes, trials, confidence)
    return {
        "ratio": successes / trials if trials else 1.0,
        "ci": (low, high),
        "successes": successes,
        "pairs": trials,
        "per_seed": per_seed,
    }


@dataclass(frozen=True)
class SampleSummary:
    """Mean ± CI of a set of scalar samples."""

    count: int
    mean: float
    std: float
    ci_low: float
    ci_high: float

    def __str__(self) -> str:
        return f"{self.mean:.3f} [{self.ci_low:.3f}, {self.ci_high:.3f}] (n={self.count})"


def summarize_samples(samples: Sequence[float], confidence: float = 0.95) -> SampleSummary:
    """Mean, standard deviation, and a normal-approximation CI."""
    if not samples:
        return SampleSummary(0, math.nan, math.nan, math.nan, math.nan)
    values = [float(sample) for sample in samples]
    count = len(values)
    mean = math.fsum(values) / count
    if count > 1:
        std = math.sqrt(math.fsum((value - mean) * (value - mean) for value in values) / (count - 1))
        half = _z_for(confidence) * std / math.sqrt(count)
    else:
        std = half = 0.0
    return SampleSummary(count, mean, std, mean - half, mean + half)
