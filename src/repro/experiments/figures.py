"""Regeneration of the paper's figures (2, 7, 10, 11, 12, 13).

Figures are returned as structured series (x/y arrays per curve) plus a
plain-text rendering, so the benchmarks can both assert on shape
properties (crossovers, monotonicity, drain slopes) and print the curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.base import NetworkSpec
from repro.core.params import DBOParams
from repro.exchange.feed import FeedConfig
from repro.experiments.runner import run_scheme, summarize
from repro.experiments.scenarios import cloud_specs, figure11_trace, sim_trace, trace_specs
from repro.metrics.latency import (
    data_delivery_latencies,
    max_rtt_bound_per_trade,
    trade_latencies,
)
from repro.metrics.report import render_cdf, render_series, render_table
from repro.net.latency import CompositeLatency, ConstantLatency, StepLatency
from repro.net.trace import NetworkTrace
from repro.participants.response_time import UniformResponseTime

__all__ = [
    "FigureResult",
    "figure2_cloudex_spike",
    "figure7_pacing_drain",
    "figure10_latency_cdfs",
    "figure11_network_trace",
    "figure12_scaling",
    "figure13_cloudex_vs_dbo",
]

PAPER_FEED = FeedConfig(interval=40.0)
PAPER_PARAMS = DBOParams(delta=20.0, kappa=0.25, tau=20.0)
PAPER_RT = UniformResponseTime(low=5.0, high=20.0)


@dataclass
class FigureResult:
    """Structured output of one figure regeneration."""

    name: str
    series: Dict[str, List[Tuple[float, float]]]
    text: str
    extra: Dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        return self.text

    def render_ascii(self, width: int = 72, height: int = 20) -> str:
        """Character-grid rendering of the figure's series."""
        from repro.metrics.ascii_plot import ascii_plot

        return ascii_plot(
            self.series, width=width, height=height, title=self.name
        )


def _spiked_specs(
    base_latency: float,
    spike_start: float,
    spike_height: float,
    spike_end: float,
    n_participants: int = 2,
    asymmetry: float = 3.0,
) -> List[NetworkSpec]:
    """Participants with constant latency; participant 0's forward path
    suffers one square spike — a controlled Figure 2 / Figure 7 input."""
    specs: List[NetworkSpec] = []
    for index in range(n_participants):
        base = base_latency + asymmetry * index
        if index == 0:
            forward = CompositeLatency(
                [
                    ConstantLatency(base),
                    StepLatency(
                        [(0.0, 0.0), (spike_start, spike_height), (spike_end, 0.0)]
                    ),
                ]
            )
        else:
            forward = ConstantLatency(base)
        specs.append(NetworkSpec(forward=forward, reverse=ConstantLatency(base)))
    return specs


def figure2_cloudex_spike(
    duration: float = 40_000.0,
    c1: float = 30.0,
    c2: float = 30.0,
    spike_start: float = 15_000.0,
    spike_height: float = 120.0,
    spike_end: float = 20_000.0,
    seed: int = 21,
) -> FigureResult:
    """Figure 2: CloudEx's two failure modes under a latency spike.

    Even with perfect clock sync, a spike beyond the C1 threshold causes
    release-buffer overruns (unfairness), while the threshold inflates
    latency at *all* times.  The series shows per-trade end-to-end
    latency over time; the extras count overruns and fairness.
    """
    specs = _spiked_specs(10.0, spike_start, spike_height, spike_end)
    result = run_scheme(
        "cloudex",
        specs,
        duration=duration,
        c1=c1,
        c2=c2,
        feed_config=PAPER_FEED,
        response_time_model=PAPER_RT,
        seed=seed,
    )
    summary = summarize(result, with_bound=False)
    points: List[Tuple[float, float]] = []
    for trade, latency in zip(result.completed_trades, trade_latencies(result)):
        points.append((result.generation_times[trade.trigger_point], latency))
    points.sort()
    direct_result = run_scheme(
        "direct",
        specs,
        duration=duration,
        feed_config=PAPER_FEED,
        response_time_model=PAPER_RT,
        seed=seed,
    )
    direct_points = sorted(
        (direct_result.generation_times[t.trigger_point], lat)
        for t, lat in zip(direct_result.completed_trades, trade_latencies(direct_result))
    )
    text = render_table(
        ["metric", "value"],
        [
            ["cloudex fairness %", summary.fairness.percent],
            ["cloudex avg latency", summary.latency.avg],
            ["data overruns", result.counters.get("data_overruns", 0.0)],
            ["trade overruns", result.counters.get("trade_overruns", 0.0)],
            ["direct avg latency", summarize(direct_result, with_bound=False).latency.avg],
        ],
        title="Figure 2 — CloudEx under a latency spike (unfairness + inflated latency)",
    )
    return FigureResult(
        "figure2",
        {"cloudex": points, "direct": direct_points},
        text,
        extra={"summary": summary, "result": result},
    )


def figure7_pacing_drain(
    duration: float = 60_000.0,
    spike_start: float = 20_000.0,
    spike_height: float = 400.0,
    spike_end: float = 20_500.0,
    params: Optional[DBOParams] = None,
    feed_interval: float = 10.0,
    seed: int = 22,
) -> FigureResult:
    """Figure 7: data-delivery latency, direct vs batching + pacing.

    After a spike, direct delivery snaps back instantly while the paced
    release buffer drains its queue at slope κ/(1+κ): batches arrive at
    rate 1/((1+κ)δ) but may only leave every δ.  The series are
    ``(G(x), D(i,x) - G(x))`` for the spiked participant.
    """
    params = params or PAPER_PARAMS
    specs = _spiked_specs(10.0, spike_start, spike_height, spike_end, n_participants=1)
    feed = FeedConfig(interval=feed_interval)
    dbo = run_scheme(
        "dbo",
        specs,
        duration=duration,
        params=params,
        feed_config=feed,
        response_time_model=PAPER_RT,
        seed=seed,
    )
    direct = run_scheme(
        "direct",
        specs,
        duration=duration,
        feed_config=feed,
        response_time_model=PAPER_RT,
        seed=seed,
    )
    mp_id = "mp0"
    dbo_series = sorted(
        (dbo.generation_times[pid], lat)
        for pid, lat in data_delivery_latencies(dbo, mp_id).items()
    )
    direct_series = sorted(
        (direct.generation_times[pid], lat)
        for pid, lat in data_delivery_latencies(direct, mp_id).items()
    )
    peak_dbo = max(lat for _, lat in dbo_series)
    recovery = [g for g, lat in dbo_series if g > spike_start and lat < 2 * params.batch_span]
    text = render_table(
        ["metric", "value"],
        [
            ["spike height (us)", spike_height],
            ["peak delivery latency under DBO", peak_dbo],
            ["drain slope kappa/(1+kappa)", params.kappa / (1.0 + params.kappa)],
            ["recovery time after spike (us)", (recovery[0] - spike_start) if recovery else float("nan")],
        ],
        title="Figure 7 — delivery latency: direct vs batching + pacing",
    )
    return FigureResult(
        "figure7",
        {"direct": direct_series, "batching+pacing": dbo_series},
        text,
        extra={"params": params},
    )


def figure10_latency_cdfs(
    duration: float = 100_000.0,
    seed: int = 12,
    n_participants: int = 10,
    configs: Sequence[Tuple[float, float]] = ((20.0, 25.0), (45.0, 60.0), (80.0, 120.0)),
) -> FigureResult:
    """Figure 10: end-to-end latency CDFs for DBO(δ, batch-span) configs.

    Reproduces the inflection points: with batch span 60 µs (1.5 data
    intervals) ~2/3 of batches carry two points, creating one step; span
    120 µs creates two.
    """
    specs = cloud_specs(n_participants=n_participants, seed=seed)
    samples: Dict[str, List[float]] = {}
    maxrtt_samples: Optional[List[float]] = None
    for delta, span in configs:
        params = DBOParams().with_horizon(delta, batch_span=span)
        result = run_scheme(
            "dbo",
            specs,
            duration=duration,
            params=params,
            feed_config=PAPER_FEED,
            response_time_model=PAPER_RT,
            seed=seed,
        )
        samples[f"DBO({int(delta)},{int(span)})"] = trade_latencies(result)
        if maxrtt_samples is None:
            maxrtt_samples = max_rtt_bound_per_trade(result)
    samples["Max-RTT"] = maxrtt_samples or []
    text = render_cdf(samples, value_label="end-to-end trade latency (us)")
    series = {
        name: [(value, prob) for value, prob in _cdf_series(vals)]
        for name, vals in sorted(samples.items())
    }
    return FigureResult("figure10", series, text, extra={"samples": samples})


def _cdf_series(values: Sequence[float], points: int = 200) -> List[Tuple[float, float]]:
    if len(values) == 0:
        return []
    ordered = sorted(map(float, values))
    size = len(ordered)
    count = min(points, size)
    # numpy.linspace(0, size - 1, count).astype(int), last index exact.
    step = (size - 1) / (count - 1) if count > 1 else 0.0
    idx = [int(i * step) for i in range(count - 1)] + [size - 1]
    return [(ordered[i], (i + 1) / size) for i in idx]


def figure11_network_trace(seed: int = 2023) -> FigureResult:
    """Figure 11: the RTT trace used to drive the §6.4 simulations."""
    trace = figure11_trace(seed=seed)
    series = list(zip(trace.times, trace.values))
    text = render_table(
        ["metric", "value"],
        [
            ["duration (ms)", trace.duration / 1000.0],
            ["min RTT (us)", trace.min_value()],
            ["mean RTT (us)", trace.mean_value()],
            ["p99 RTT (us)", trace.percentile(99.0)],
            ["max RTT (us)", trace.max_value()],
        ],
        title="Figure 11 — network trace (RTT between CES and one RB)",
    )
    return FigureResult("figure11", {"rtt": series}, text, extra={"trace": trace})


def figure12_scaling(
    participant_counts: Sequence[int] = (10, 30, 50, 70, 90),
    duration: float = 20_000.0,
    seed: int = 13,
    trace: Optional[NetworkTrace] = None,
) -> FigureResult:
    """Figure 12: DBO latency (mean, p99) vs number of participants.

    The Max-RTT bound grows with the max over more trace slices; DBO
    tracks it with the batching/pacing/heartbeat overhead on top.
    """
    trace = trace or sim_trace()
    mean_dbo: List[Tuple[float, float]] = []
    p99_dbo: List[Tuple[float, float]] = []
    mean_bound: List[Tuple[float, float]] = []
    p99_bound: List[Tuple[float, float]] = []
    for count in participant_counts:
        specs = trace_specs(count, trace=trace, seed=seed)
        result = run_scheme(
            "dbo",
            specs,
            duration=duration,
            params=PAPER_PARAMS,
            feed_config=PAPER_FEED,
            response_time_model=PAPER_RT,
            seed=seed,
        )
        summary = summarize(result)
        mean_dbo.append((count, summary.latency.avg))
        p99_dbo.append((count, summary.latency.p99))
        mean_bound.append((count, summary.max_rtt.avg))
        p99_bound.append((count, summary.max_rtt.p99))
    text = render_series(
        "participants",
        [int(c) for c, _ in mean_dbo],
        {
            "DBO mean": [v for _, v in mean_dbo],
            "Max-RTT mean": [v for _, v in mean_bound],
            "DBO p99": [v for _, v in p99_dbo],
            "Max-RTT p99": [v for _, v in p99_bound],
        },
        title="Figure 12 — latency vs number of participants (trace-driven)",
    )
    return FigureResult(
        "figure12",
        {
            "dbo_mean": mean_dbo,
            "maxrtt_mean": mean_bound,
            "dbo_p99": p99_dbo,
            "maxrtt_p99": p99_bound,
        },
        text,
    )


def figure13_cloudex_vs_dbo(
    participant_counts: Sequence[int] = (10, 60),
    thresholds: Sequence[float] = (15.0, 30.0, 60.0, 90.0, 150.0, 220.0, 290.0),
    duration: float = 20_000.0,
    seed: int = 13,
    trace: Optional[NetworkTrace] = None,
) -> FigureResult:
    """Figure 13: fairness vs latency — CloudEx threshold sweep vs DBO.

    CloudEx (perfect clock sync) only reaches perfect fairness once its
    one-way threshold clears the worst latency in the trace — and then
    pays that threshold as latency at *all* times.  DBO sits at perfect
    fairness with latency driven by the (mostly well-behaved) network.
    """
    trace = trace or sim_trace()
    series: Dict[str, List[Tuple[float, float]]] = {}
    rows: List[List[object]] = []
    for count in participant_counts:
        specs = trace_specs(count, trace=trace, seed=seed)
        common = dict(
            feed_config=PAPER_FEED,
            response_time_model=PAPER_RT,
            seed=seed,
        )
        dbo_summary = summarize(
            run_scheme(
                "dbo", specs, duration=duration, params=PAPER_PARAMS, **common
            ),
            with_bound=False,
        )
        series[f"DBO, {count} MPs"] = [(dbo_summary.latency.avg, dbo_summary.fairness.ratio)]
        rows.append(
            ["dbo", count, "-", dbo_summary.fairness.ratio, dbo_summary.latency.avg, dbo_summary.latency.p99]
        )
        cloudex_points: List[Tuple[float, float]] = []
        for threshold in thresholds:
            summary = summarize(
                run_scheme(
                    "cloudex",
                    specs,
                    duration=duration,
                    c1=threshold,
                    c2=threshold,
                    **common,
                ),
                with_bound=False,
            )
            cloudex_points.append((summary.latency.avg, summary.fairness.ratio))
            rows.append(
                [
                    "cloudex",
                    count,
                    threshold,
                    summary.fairness.ratio,
                    summary.latency.avg,
                    summary.latency.p99,
                ]
            )
        series[f"CloudEx, {count} MPs"] = cloudex_points
    text = render_table(
        ["scheme", "MPs", "threshold", "fairness", "avg latency", "p99 latency"],
        rows,
        title="Figure 13 — CloudEx (perfect sync) vs DBO",
        float_format="{:.4g}",
    )
    return FigureResult("figure13", series, text)
