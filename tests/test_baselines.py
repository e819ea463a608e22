"""Integration tests for the four baseline schemes."""

import math

import pytest

from repro.baselines.base import NetworkSpec, default_network_specs
from repro.baselines.cloudex import CloudExDeployment
from repro.exchange.feed import FeedConfig
from repro.experiments.runner import build_deployment
from repro.metrics.fairness import evaluate_fairness
from repro.metrics.latency import latency_stats, trade_latencies
from repro.net.latency import CompositeLatency, ConstantLatency, StepLatency
from repro.participants.response_time import FixedResponseTime, RaceResponseTime


def asymmetric_specs():
    """Two participants; mp1's path is 6 µs slower each way."""
    return [
        NetworkSpec(forward=ConstantLatency(5.0), reverse=ConstantLatency(5.0)),
        NetworkSpec(forward=ConstantLatency(11.0), reverse=ConstantLatency(11.0)),
    ]


class TestDirect:
    def test_latency_is_raw_network_rtt(self):
        deployment = build_deployment("direct", asymmetric_specs())
        result = deployment.run(duration=2000.0)
        latencies = sorted(set(round(l, 6) for l in trade_latencies(result)))
        assert latencies == [10.0, 22.0]

    def test_unfair_when_asymmetry_exceeds_rt_margin(self):
        # mp1 is always 0.5 µs faster to respond, but its path is 12 µs
        # slower round-trip: Direct orders it second every time.
        specs = asymmetric_specs()
        rt = RaceResponseTime(2, gap=0.5, seed=1)
        deployment = build_deployment("direct", specs, response_time_model=rt)
        result = deployment.run(duration=4000.0)
        report = evaluate_fairness(result)
        assert report.ratio == pytest.approx(0.5, abs=0.15)

    def test_fair_when_network_is_symmetric(self):
        specs = [
            NetworkSpec(forward=ConstantLatency(5.0), reverse=ConstantLatency(5.0)),
            NetworkSpec(forward=ConstantLatency(5.0), reverse=ConstantLatency(5.0)),
        ]
        deployment = build_deployment("direct", specs)
        result = deployment.run(duration=4000.0)
        assert evaluate_fairness(result).ratio == 1.0

    def test_completion(self):
        deployment = build_deployment("direct", default_network_specs(3, seed=1))
        result = deployment.run(duration=2000.0)
        assert result.completion_ratio() == 1.0
        assert result.counters["trades_sequenced"] == len(result.trades)


class TestCloudEx:
    def test_perfect_fairness_with_adequate_thresholds(self):
        deployment = CloudExDeployment(asymmetric_specs(), c1=20.0, c2=20.0)
        result = deployment.run(duration=4000.0)
        assert evaluate_fairness(result).ratio == 1.0
        assert result.counters["data_overruns"] == 0

    def test_latency_equals_thresholds_when_no_overrun(self):
        deployment = CloudExDeployment(asymmetric_specs(), c1=20.0, c2=25.0)
        result = deployment.run(duration=4000.0)
        stats = latency_stats(result)
        assert stats.avg == pytest.approx(45.0, abs=0.5)

    def test_threshold_below_latency_causes_overruns_and_unfairness(self):
        # mp1's one-way latency (11) exceeds C1 = 8: constant overruns.
        rt = RaceResponseTime(2, gap=0.5, seed=2)
        deployment = CloudExDeployment(
            asymmetric_specs(), c1=8.0, c2=8.0, response_time_model=rt
        )
        result = deployment.run(duration=4000.0)
        assert result.counters["data_overruns"] > 0
        assert evaluate_fairness(result).ratio < 1.0

    def test_spike_breaks_fairness_despite_good_thresholds(self):
        # Figure 2's scenario: thresholds tuned to the quiet network, a
        # spike pushes latency past C1.
        spike = StepLatency([(0.0, 0.0), (1000.0, 50.0), (2000.0, 0.0)])
        specs = [
            NetworkSpec(
                forward=CompositeLatency([ConstantLatency(5.0), spike]),
                reverse=ConstantLatency(5.0),
            ),
            NetworkSpec(forward=ConstantLatency(5.0), reverse=ConstantLatency(5.0)),
        ]
        rt = RaceResponseTime(2, gap=0.5, seed=3)
        deployment = CloudExDeployment(specs, c1=10.0, c2=10.0, response_time_model=rt)
        result = deployment.run(duration=4000.0)
        assert result.counters["data_overruns"] > 0
        assert evaluate_fairness(result).ratio < 1.0

    def test_sync_error_degrades_fairness(self):
        rt = RaceResponseTime(2, gap=0.2, seed=4)
        fair = []
        for error in (0.0, 5.0):
            deployment = CloudExDeployment(
                asymmetric_specs(),
                c1=20.0,
                c2=20.0,
                sync_error=error,
                response_time_model=rt,
            )
            result = deployment.run(duration=6000.0)
            fair.append(evaluate_fairness(result).ratio)
        assert fair[0] == 1.0
        assert fair[1] < fair[0]

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            CloudExDeployment(asymmetric_specs(), c1=0.0)


class TestFBA:
    def test_latency_scales_with_batch_interval(self):
        deployment = build_deployment(
            "fba", asymmetric_specs(), batch_interval=2000.0, feed_config=FeedConfig(interval=40.0)
        )
        result = deployment.run(duration=8000.0, drain=4000.0)
        stats = latency_stats(result)
        assert stats.avg > 1000.0  # dominated by the auction period

    def test_speed_race_abolished(self):
        """Equal priority ⇒ the faster responder wins only ~half the races."""
        rt = RaceResponseTime(2, gap=2.0, seed=5)
        deployment = build_deployment(
            "fba",
            asymmetric_specs(),
            batch_interval=1000.0,
            response_time_model=rt,
            feed_config=FeedConfig(interval=40.0),
        )
        result = deployment.run(duration=30_000.0, drain=5000.0)
        report = evaluate_fairness(result)
        assert report.total_pairs > 200
        assert 0.35 < report.ratio < 0.65

    def test_all_trades_complete(self):
        deployment = build_deployment("fba", asymmetric_specs(), batch_interval=500.0)
        result = deployment.run(duration=5000.0, drain=2000.0)
        assert result.completion_ratio() == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            build_deployment("fba", asymmetric_specs(), batch_interval=0.0)


class TestLibra:
    def test_stochastic_fairness_above_half(self):
        """Libra's guarantee: the faster trade wins more than 50 % of the
        time when latency variability is within the window."""
        rt = RaceResponseTime(2, gap=3.0, seed=6)
        deployment = build_deployment(
            "libra", asymmetric_specs(), window=20.0, response_time_model=rt
        )
        result = deployment.run(duration=30_000.0)
        report = evaluate_fairness(result)
        assert report.total_pairs > 200
        assert report.ratio > 0.5

    def test_not_guaranteed_fair(self):
        rt = RaceResponseTime(2, gap=0.2, seed=7)
        deployment = build_deployment(
            "libra", asymmetric_specs(), window=20.0, response_time_model=rt
        )
        result = deployment.run(duration=30_000.0)
        assert evaluate_fairness(result).ratio < 1.0

    def test_window_latency_overhead(self):
        deployment = build_deployment("libra", asymmetric_specs(), window=50.0)
        result = deployment.run(duration=5000.0)
        stats = latency_stats(result)
        # Raw RTT is 10/22 µs; windowing adds up to 50.
        assert stats.avg > 15.0
        assert stats.maximum <= 22.0 + 50.0 + 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            build_deployment("libra", asymmetric_specs(), window=0.0)


class TestFirstReleasePastTheRun:
    """A batch scheme whose first trade release falls after ``duration +
    drain`` could only end in a vacuous result; ``run`` refuses it up
    front."""

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda specs: build_deployment("fba", specs, batch_interval=50_000.0),
             "fba releases its first trade at 100000 µs (2 × batch_interval)"),
            (lambda specs: build_deployment("libra", specs, window=50_000.0),
             "libra releases its first trade at 50000 µs (window)"),
        ],
        ids=["fba", "libra"],
    )
    def test_rejected_before_anything_runs(self, make, message):
        from repro.experiments.scenarios import cloud_specs

        deployment = make(cloud_specs(4, seed=7))
        with pytest.raises(ValueError) as raised:
            deployment.run(duration=2000.0)
        assert str(raised.value) == f"{message}, after the run ends at 22000 µs (duration + drain)"
        assert deployment.engine.now == 0.0
        assert all(mp.trades_submitted == 0 for mp in deployment.participants)

    @pytest.mark.parametrize(
        "make",
        [
            lambda specs: build_deployment("fba", specs, batch_interval=11_000.0),
            lambda specs: build_deployment("libra", specs, window=22_000.0),
        ],
        ids=["fba", "libra"],
    )
    def test_release_at_the_end_of_the_run_still_runs(self, make):
        from repro.experiments.scenarios import cloud_specs

        result = make(cloud_specs(4, seed=7)).run(duration=2000.0)
        assert result.trades and result.completion_ratio() == 1.0


class TestRunHorizon:
    """A run that could never end, or would stop before its feed does, is
    refused before anything runs."""

    @pytest.mark.parametrize("scheme", ["dbo", "direct"])
    @pytest.mark.parametrize(
        "duration, drain, message",
        [
            (math.nan, None, "duration must be positive and finite"),
            (math.inf, None, "duration must be positive and finite"),
            (0.0, None, "duration must be positive and finite"),
            (2000.0, math.nan, "drain must be non-negative and finite"),
            (2000.0, math.inf, "drain must be non-negative and finite"),
            (2000.0, -5.0, "drain must be non-negative and finite"),
        ],
        ids=["nan-duration", "inf-duration", "zero-duration", "nan-drain", "inf-drain", "negative-drain"],
    )
    def test_rejected_before_anything_runs(self, scheme, duration, drain, message):
        deployment = build_deployment(scheme, default_network_specs(2, seed=1))
        with pytest.raises(ValueError) as raised:
            deployment.run(duration=duration, drain=drain)
        assert str(raised.value) == message
        assert deployment.engine.now == 0.0
