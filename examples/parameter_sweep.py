#!/usr/bin/env python
"""Parameter study with statistical rigor: δ's latency/fairness trade-off.

§4.2.1: "δ presents a trade-off between latency and fairness (how large
of a horizon can we pick)."  This example sweeps the horizon with the
analysis toolkit: each configuration runs across several seeds; fairness
is reported with a pooled Wilson confidence interval and latency as
mean ± CI — the difference between a point estimate and a claim.

The workload draws response times in [5, 50) µs against a 20 µs data
interval, so slow responders straddle batch deliveries and small
horizons leave part of every race outside the guarantee.  The network uses
*uncorrelated* per-packet jitter: on temporally correlated paths (the
usual cloud case, §6.3.2) DBO stays fair far beyond the horizon and the
trade-off would be invisible — try swapping in
``repro.experiments.scenarios.cloud_specs`` to see exactly that.

Run:  python examples/parameter_sweep.py
"""

from repro.analysis.stats import pooled_fairness, summarize_samples
from repro.baselines.base import NetworkSpec
from repro.core.params import DBOParams
from repro.core.system import DBODeployment
from repro.exchange.feed import FeedConfig
from repro.metrics.fairness import evaluate_fairness
from repro.metrics.latency import latency_stats
from repro.metrics.report import render_table
from repro.net.latency import UniformJitterLatency
from repro.participants.response_time import UniformResponseTime

DELTAS = (10.0, 20.0, 35.0, 50.0)
SEEDS = (1, 2, 3)
DURATION_US = 15_000.0
N_PARTICIPANTS = 5


def jitter_specs():
    """Uncorrelated per-packet jitter: delivery gaps vary across MPs."""
    return [
        NetworkSpec(
            forward=UniformJitterLatency(10.0 + i, 6.0, seed=50 + 2 * i),
            reverse=UniformJitterLatency(10.0 + i, 6.0, seed=51 + 2 * i),
        )
        for i in range(N_PARTICIPANTS)
    ]


def run(delta: float, seed: int):
    deployment = DBODeployment(
        jitter_specs(),
        params=DBOParams(delta=delta, kappa=0.25, tau=20.0),
        feed_config=FeedConfig(interval=20.0),
        response_time_model=UniformResponseTime(low=5.0, high=50.0, seed=seed),
        seed=seed,
    )
    return deployment.run(duration=DURATION_US)


def main() -> None:
    rows = []
    for delta in DELTAS:
        results = [run(delta, seed) for seed in SEEDS]
        # Seeds are independent runs: their race pairs pool into one
        # Wilson interval; the per-run average latencies into mean ± CI.
        fairness = pooled_fairness(
            [(f.correct_pairs, f.total_pairs) for f in map(evaluate_fairness, results)]
        )
        latency = summarize_samples([latency_stats(result).avg for result in results])
        ci_low, ci_high = fairness["ci"]
        rows.append(
            [
                delta,
                100.0 * fairness["ratio"],
                f"[{100 * ci_low:.2f}, {100 * ci_high:.2f}]",
                latency.mean,
                f"[{latency.ci_low:.1f}, {latency.ci_high:.1f}]",
            ]
        )
    print(
        render_table(
            ["delta (us)", "fairness %", "95% CI", "avg latency", "95% CI"],
            rows,
            title=(
                f"Horizon sweep, RT ~ U[5, 50) µs, {len(SEEDS)} seeds x "
                f"{DURATION_US / 1000:.0f} ms each"
            ),
        )
    )
    print()
    print("Below δ = 50 µs some races fall outside the guaranteed horizon")
    print("(their fairness CI excludes 100 %); raising δ buys them back at")
    print("the price of batching latency — the paper's stated trade-off.")


if __name__ == "__main__":
    main()
