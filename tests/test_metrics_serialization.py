"""Tests for run-result JSON persistence."""

import pytest

from repro.baselines.base import default_network_specs
from repro.core.system import DBODeployment
from repro.metrics.latency import max_rtt_bound_per_trade
from repro.metrics.serialization import run_result_to_dict


@pytest.fixture(scope="module")
def result():
    deployment = DBODeployment(default_network_specs(3, seed=5), seed=1)
    return deployment.run(duration=3000.0)


class TestRoundtrip:
    def test_bounds_materialized(self, result):
        data = run_result_to_dict(result)
        assert data["max_rtt_bounds"] is not None
        assert data["max_rtt_bounds"] == max_rtt_bound_per_trade(result)


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
