"""Tests for the experiment harness: runner, scenarios, tables, figures.

Table/figure regenerations run here with tiny durations — the benchmarks
exercise the paper-scale versions; these tests only pin the plumbing and
the qualitative shape.
"""

import pytest

from repro.experiments.figures import (
    figure2_cloudex_spike,
    figure7_pacing_drain,
    figure10_latency_cdfs,
    figure11_network_trace,
    figure12_scaling,
    figure13_cloudex_vs_dbo,
)
from repro.experiments.registry import available_schemes
from repro.experiments.runner import (
    build_deployment,
    comparison_table,
    run_scheme,
    summarize,
)
from repro.experiments.scenarios import (
    baremetal_specs,
    cloud_specs,
    figure11_trace,
    sim_trace,
    trace_specs,
)
from repro.experiments.tables import table2_baremetal, table3_cloud, table4_slow_responders


class TestRunner:
    def test_all_schemes_registered(self):
        assert set(available_schemes()) == {"dbo", "direct", "cloudex", "fba", "libra", "prob"}

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            build_deployment("quantum", cloud_specs(2))

    @pytest.mark.parametrize(
        "scheme,kwargs",
        [
            ("dbo", {}),
            ("direct", {}),
            ("cloudex", {}),
            # FBA's default 100 ms auction period exceeds this tiny run.
            ("fba", {"batch_interval": 500.0}),
            ("libra", {}),
            ("prob", {}),
        ],
    )
    def test_every_scheme_runs(self, scheme, kwargs):
        result = run_scheme(scheme, cloud_specs(2), duration=1500.0, drain=5000.0, **kwargs)
        assert result.scheme == scheme
        assert result.trades

    def test_summarize_digest(self):
        result = run_scheme("dbo", cloud_specs(2), duration=1500.0)
        summary = summarize(result)
        assert summary.scheme == "dbo"
        assert 0.0 <= summary.fairness.ratio <= 1.0
        assert summary.latency.count > 0
        assert summary.max_rtt is not None

    def test_comparison_table_layout(self):
        direct = summarize(run_scheme("direct", cloud_specs(2), duration=1500.0))
        dbo = summarize(run_scheme("dbo", cloud_specs(2), duration=1500.0))
        text = comparison_table([direct, dbo], title="T")
        assert "direct" in text
        assert "dbo" in text
        assert "max-rtt" in text


class TestScenarios:
    def test_baremetal_sizes(self):
        assert len(baremetal_specs(2)) == 2

    def test_cloud_sizes(self):
        assert len(cloud_specs(10)) == 10

    def test_cloud_bases_heterogeneous(self):
        specs = cloud_specs(10)
        bases = {spec.forward.base_model.base for spec in specs}
        assert len(bases) == 10

    def test_trace_specs(self):
        specs = trace_specs(4)
        assert len(specs) == 4

    def test_sim_trace_is_compressed(self):
        assert sim_trace().duration < figure11_trace().duration


class TestTables:
    def test_table2_shape(self):
        result = table2_baremetal(duration=15_000.0)
        direct, dbo = result.summaries
        assert dbo.fairness.ratio == 1.0
        assert direct.fairness.ratio < 0.95
        assert dbo.latency.avg > direct.latency.avg
        assert "Table 2" in result.text

    def test_table3_shape(self):
        result = table3_cloud(duration=15_000.0, n_participants=4)
        direct, dbo = result.summaries
        assert dbo.fairness.ratio == 1.0
        assert direct.fairness.ratio < 0.9
        # Latency ordering: direct < max-rtt < dbo.
        assert direct.latency.avg < dbo.max_rtt.avg < dbo.latency.avg

    def test_table4_shape(self):
        result = table4_slow_responders(
            duration=10_000.0, n_participants=4, buckets=((10.0, 15.0), (35.0, 40.0))
        )
        per_bucket = result.extra["per_bucket"]
        assert per_bucket[(10.0, 15.0)]["dbo"] == 1.0
        for bucket, values in per_bucket.items():
            assert values["dbo"] > values["direct"]


class TestFigures:
    def test_figure2_shows_overruns_and_inflation(self):
        fig = figure2_cloudex_spike(duration=25_000.0)
        assert fig.extra["result"].counters["data_overruns"] > 0
        summary = fig.extra["summary"]
        assert summary.fairness.ratio < 1.0

    def test_figure7_drain_slope(self):
        fig = figure7_pacing_drain(duration=40_000.0)
        dbo_series = fig.series["batching+pacing"]
        peak = max(lat for _, lat in dbo_series)
        assert peak < 600.0  # spike 400 + overheads; no runaway queue

    def test_figure10_configs_ordered(self):
        fig = figure10_latency_cdfs(duration=15_000.0, n_participants=3)
        samples = fig.extra["samples"]
        import numpy as np

        p90 = {k: np.percentile(v, 90) for k, v in samples.items() if v}
        assert p90["DBO(20,25)"] < p90["DBO(45,60)"] < p90["DBO(80,120)"]

    def test_figure11_trace_stats(self):
        fig = figure11_network_trace()
        trace = fig.extra["trace"]
        assert trace.max_value() > 3 * trace.min_value()

    def test_figure12_latency_grows_with_participants(self):
        fig = figure12_scaling(participant_counts=(3, 20), duration=4000.0)
        mean = dict(fig.series["dbo_mean"])
        assert mean[20] >= mean[3]

    def test_figure13_cloudex_frontier(self):
        fig = figure13_cloudex_vs_dbo(
            participant_counts=(4,), thresholds=(15.0, 290.0), duration=8000.0
        )
        points = fig.series["CloudEx, 4 MPs"]
        (lat_low, fair_low), (lat_high, fair_high) = points
        assert lat_high > lat_low
        assert fair_high >= fair_low


class TestMultizone:
    def test_zone_skew_present(self):
        from repro.experiments.scenarios import multizone_specs

        specs = multizone_specs(4, n_zones=2, inter_zone_latency=300.0)
        # Odd indices are out-of-zone: base latency dominated by the hop.
        assert specs[1].forward.base > 250.0
        assert specs[0].forward.base < 50.0

    def test_direct_hopeless_dbo_perfect(self):
        from repro.experiments.scenarios import multizone_specs
        from repro.participants.response_time import RaceResponseTime

        specs = multizone_specs(4, n_zones=2, inter_zone_latency=300.0)
        rt = RaceResponseTime(4, gap=1.0, seed=2)
        direct = summarize(
            run_scheme("direct", specs, duration=8000.0, response_time_model=rt),
            with_bound=False,
        )
        dbo = summarize(
            run_scheme("dbo", specs, duration=8000.0, response_time_model=rt),
            with_bound=False,
        )
        # The out-of-zone half can never win under Direct.
        assert direct.fairness.ratio < 0.8
        assert dbo.fairness.ratio == 1.0
        # DBO pays the inter-zone round trip (Theorem 3: wait for the
        # slowest participant), as expected for a regional deployment.
        assert dbo.latency.avg > 600.0

    def test_validation(self):
        from repro.experiments.scenarios import multizone_specs

        with pytest.raises(ValueError):
            multizone_specs(4, n_zones=0)


class TestCongestedScenario:
    def test_shared_bursts_hit_everyone(self):
        from repro.experiments.scenarios import congested_specs

        specs = congested_specs(3)
        mid_burst = 3_000.0 + 100.0  # inside the first burst window
        quiet = 1_000.0
        for spec in specs:
            assert spec.forward.latency_at(mid_burst) > spec.forward.latency_at(quiet) + 100.0

    def test_correlated_congestion_preserves_beyond_horizon_fairness(self):
        """The §6.3.2 story, maximally: fully shared congestion keeps
        inter-delivery gaps equal, so even RT >> δ races stay fair."""
        from repro.experiments.scenarios import congested_specs
        from repro.participants.response_time import RaceResponseTime

        specs = congested_specs(4, burst_height=120.0)
        rt = RaceResponseTime(4, low=30.0, high=38.0, gap=0.3, seed=3)  # > δ = 20
        result = run_scheme(
            "dbo", specs, duration=25_000.0, response_time_model=rt, seed=3
        )
        assert summarize(result, with_bound=False).fairness.ratio > 0.99

    def test_congestion_costs_latency_not_fairness(self):
        from repro.experiments.scenarios import congested_specs

        quiet = run_scheme("dbo", congested_specs(3, burst_height=0.0), duration=15_000.0, seed=3)
        congested = run_scheme("dbo", congested_specs(3, burst_height=120.0), duration=15_000.0, seed=3)
        quiet_s = summarize(quiet, with_bound=False)
        congested_s = summarize(congested, with_bound=False)
        assert congested_s.latency.p99 > quiet_s.latency.p99 + 50.0
        assert congested_s.fairness.ratio >= quiet_s.fairness.ratio - 0.001
