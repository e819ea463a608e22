"""Metrics: fairness ratio, latency statistics, Max-RTT bound, reports."""

from repro.metrics.fairness import (
    FairnessReport,
    causality_violations,
    evaluate_fairness,
    pairwise_correct,
)
from repro.metrics.latency import (
    LatencyStats,
    data_delivery_latencies,
    latency_stats,
    max_rtt_bound_per_trade,
    max_rtt_stats,
    trade_latencies,
)
from repro.metrics.degradation import DegradationReport, fairness_degradation
from repro.metrics.records import RunResult, TradeRecord
from repro.metrics.ascii_plot import ascii_plot
from repro.metrics.report import render_cdf, render_series, render_table
from repro.metrics.serialization import run_result_to_dict, save_run_result

__all__ = [
    "FairnessReport",
    "causality_violations",
    "evaluate_fairness",
    "pairwise_correct",
    "LatencyStats",
    "data_delivery_latencies",
    "latency_stats",
    "max_rtt_bound_per_trade",
    "max_rtt_stats",
    "trade_latencies",
    "DegradationReport",
    "fairness_degradation",
    "RunResult",
    "TradeRecord",
    "render_cdf",
    "render_series",
    "render_table",
    "ascii_plot",
    "run_result_to_dict",
    "save_run_result",
]
