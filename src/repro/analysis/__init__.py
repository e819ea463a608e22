"""Analysis tooling: multi-seed statistics (Wilson CIs, mean ± CI)."""

from repro.analysis.stats import (
    SampleSummary,
    pooled_fairness,
    summarize_samples,
    wilson_interval,
)

__all__ = [
    "SampleSummary",
    "pooled_fairness",
    "summarize_samples",
    "wilson_interval",
]
