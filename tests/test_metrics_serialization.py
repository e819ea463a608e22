"""Tests for run-result JSON persistence."""

import pytest

from repro.baselines.base import default_network_specs
from repro.core.system import DBODeployment
from repro.metrics.fairness import evaluate_fairness
from repro.metrics.latency import latency_stats, max_rtt_bound_per_trade
from repro.metrics.serialization import (
    load_run_result,
    run_result_from_dict,
    run_result_to_dict,
    save_run_result,
)


@pytest.fixture(scope="module")
def result():
    deployment = DBODeployment(default_network_specs(3, seed=5), seed=1)
    return deployment.run(duration=3000.0)


class TestRoundtrip:
    def test_dict_roundtrip_preserves_trades(self, result):
        restored = run_result_from_dict(run_result_to_dict(result))
        assert len(restored.trades) == len(result.trades)
        assert restored.trades[0].key == result.trades[0].key
        assert restored.trades[0].forward_time == result.trades[0].forward_time

    def test_metrics_identical_after_roundtrip(self, result):
        restored = run_result_from_dict(run_result_to_dict(result))
        assert evaluate_fairness(restored).ratio == evaluate_fairness(result).ratio
        assert latency_stats(restored).avg == pytest.approx(latency_stats(result).avg)

    def test_point_id_keys_restored_as_ints(self, result):
        restored = run_result_from_dict(run_result_to_dict(result))
        assert all(isinstance(k, int) for k in restored.generation_times)
        assert all(
            isinstance(k, int)
            for points in restored.raw_arrivals.values()
            for k in points
        )

    def test_bounds_materialized(self, result):
        data = run_result_to_dict(result)
        assert data["max_rtt_bounds"] is not None
        assert data["max_rtt_bounds"] == max_rtt_bound_per_trade(result)

    def test_file_roundtrip(self, result, tmp_path):
        path = str(tmp_path / "run.json")
        save_run_result(result, path)
        restored, bounds = load_run_result(path)
        assert restored.scheme == "dbo"
        assert bounds == pytest.approx(max_rtt_bound_per_trade(result))
        # The accessor is gone, but the materialized bounds replace it.
        assert restored.reverse_latency_at is None

    def test_version_checked(self, result):
        data = run_result_to_dict(result)
        data["format_version"] = 99
        with pytest.raises(ValueError):
            run_result_from_dict(data)

    def test_counters_preserved(self, result):
        restored = run_result_from_dict(run_result_to_dict(result))
        assert restored.counters == result.counters


class TestChunkedDigest:
    """``trade_ordering_digest`` hashes its payload in chunks: the digest
    must equal the sha256 of the whole payload joined in one string."""

    @staticmethod
    def one_shot(result):
        import hashlib

        ordered = sorted(
            (t for t in result.trades if t.position is not None), key=lambda t: t.position
        )
        payload = "".join(f"{t.mp_id}:{t.trade_seq}:{t.position};" for t in ordered)
        return hashlib.sha256(payload.encode("ascii")).hexdigest()

    def test_matches_the_joined_payload_over_several_chunks(self):
        from repro.metrics import serialization
        from repro.metrics.records import RunResult, TradeRecord

        count = 2 * serialization._DIGEST_CHUNK + 7
        trades = [
            TradeRecord(f"mp{i % 5}", i // 5, i, 1.0, 0.0, forward_time=float(i), position=count - 1 - i)
            for i in range(count)
        ]
        trades.append(TradeRecord("mp9", 0, 0, 1.0, 0.0))  # never forwarded
        result = RunResult("dbo", trades, {}, {}, {}, {})
        assert serialization.trade_ordering_digest(result) == self.one_shot(result)

    def test_matches_on_a_run(self, result):
        from repro.metrics.serialization import trade_ordering_digest

        assert trade_ordering_digest(result) == self.one_shot(result)

    def test_empty_run_digests_the_empty_payload(self):
        import hashlib

        from repro.metrics.records import RunResult
        from repro.metrics.serialization import trade_ordering_digest

        empty = RunResult("fba", [], {}, {}, {}, {})
        assert trade_ordering_digest(empty) == hashlib.sha256(b"").hexdigest()
