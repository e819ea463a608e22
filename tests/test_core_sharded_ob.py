"""Unit tests for the hierarchical (sharded) ordering buffer (§5.2)."""

import pytest

from repro.baselines.base import default_network_specs
from repro.core.aggregation import MasterOB, deliver_upstream
from repro.core.delivery_clock import DeliveryClockStamp
from repro.core.ordering_buffer import OrderingBuffer
from repro.core.sharded_ob import ShardOB
from repro.core.system import DBODeployment
from repro.exchange.messages import Heartbeat, Side, TaggedTrade, TradeOrder
from repro.sim.randomness import SubstreamCounter


def tagged(mp, seq, point, elapsed):
    order = TradeOrder(mp_id=mp, trade_seq=seq, side=Side.BUY, price=1.0)
    return TaggedTrade(trade=order, clock=DeliveryClockStamp(point, elapsed))


def heartbeat(mp, point, elapsed):
    return Heartbeat(mp_id=mp, clock=DeliveryClockStamp(point, elapsed))


def two_level(participants, n_shards, sink=None):
    """The eager §5.2 plane over direct edges, as ``DBODeployment`` wires
    it for ``n_ob_shards > 1`` — minus the engine, so tests drive it by
    hand.  Returns ``(master, shards, participant→shard routing)``."""
    shard_ids = [f"shard-{index}" for index in range(n_shards)]
    master = MasterOB(shard_ids, sink=sink)
    shards = [
        ShardOB(
            shard_id,
            participants[index::n_shards],
            lambda message, shard_id=shard_id: deliver_upstream(
                master, shard_id, message, 0.0
            ),
        )
        for index, shard_id in enumerate(shard_ids)
    ]
    routing = {
        mp_id: shards[index % n_shards] for index, mp_id in enumerate(participants)
    }
    return master, shards, routing


class TestBuild:
    def test_round_robin_assignment(self):
        deployment = DBODeployment(default_network_specs(4, seed=1), n_ob_shards=2)
        deployment.run(duration=200.0, drain=200.0)
        assert [shard.shard_id for shard in deployment.shards] == ["shard-0", "shard-1"]
        assert list(deployment.shards[0].states) == ["mp0", "mp2"]
        assert list(deployment.shards[1].states) == ["mp1", "mp3"]
        assert deployment.master_ob.child_ids == ["shard-0", "shard-1"]

    def test_validation(self):
        with pytest.raises(ValueError, match="more shards than participants"):
            DBODeployment(default_network_specs(1, seed=1), n_ob_shards=2).run(200.0)
        with pytest.raises(ValueError):
            MasterOB([])


class TestRelease:
    def test_trade_needs_all_shards(self):
        released = []
        master, shards, routing = two_level(
            ["a", "b", "c", "d"], 2, sink=lambda t, now: released.append(t.trade.key)
        )
        # a's trade: shard-0 also owns c; shard-1 owns b, d.
        routing["a"].on_tagged_trade(tagged("a", 0, 0, 5.0), 0.0, 10.0)
        routing["c"].on_heartbeat(heartbeat("c", 0, 9.0), 0.0, 11.0)
        assert released == []  # shard-1 has not reported at all
        routing["b"].on_heartbeat(heartbeat("b", 0, 9.0), 0.0, 12.0)
        routing["d"].on_heartbeat(heartbeat("d", 0, 9.0), 0.0, 13.0)
        assert released == [("a", 0)]

    def test_master_counts_summaries_not_heartbeats(self):
        master, shards, routing = two_level(["a", "b", "c", "d"], 2, sink=lambda t, n: None)
        for mp in ["a", "b", "c", "d"]:
            routing[mp].on_heartbeat(heartbeat(mp, 0, 1.0), 0.0, 10.0)
        assert sum(s.heartbeats_processed for s in shards) == 4
        assert master.summaries_processed == 4  # one per shard update

    def test_unknown_shard_rejected(self):
        master = MasterOB(["shard-0"])
        with pytest.raises(KeyError):
            master.on_child_summary("nope", DeliveryClockStamp(0, 1.0), 0.0)
        with pytest.raises(KeyError):
            master.on_child_trade("nope", tagged("a", 0, 0, 1.0), 0.0)


class TestEquivalenceWithSingleOB:
    """The hierarchy must produce the same final ordering as one flat OB."""

    def run_flat(self, events):
        released = []
        ob = OrderingBuffer(
            participants=["a", "b", "c", "d"],
            sink=lambda t, now: released.append(t.trade.key),
        )
        for kind, payload, at in events:
            if kind == "trade":
                ob.on_tagged_trade(payload, 0.0, at)
            else:
                ob.on_heartbeat(payload, 0.0, at)
        ob.flush(1e9)
        return released

    def run_sharded(self, events, n_shards):
        released = []
        master, shards, routing = two_level(
            ["a", "b", "c", "d"], n_shards, sink=lambda t, now: released.append(t.trade.key)
        )
        for kind, payload, at in events:
            mp = payload.trade.mp_id if kind == "trade" else payload.mp_id
            if kind == "trade":
                routing[mp].on_tagged_trade(payload, 0.0, at)
            else:
                routing[mp].on_heartbeat(payload, 0.0, at)
        # Flush shards then master for end-of-run drain.
        for shard in shards:
            shard.flush(1e9)
            shard.publish_summary()
        master.flush(1e9)
        return released

    def make_events(self, seed):
        stream = SubstreamCounter(seed)
        events = []
        t = 0.0
        seqs = {mp: 0 for mp in "abcd"}
        # Interleave trades and heartbeats with monotone per-MP stamps.
        elapsed = {mp: 0.0 for mp in "abcd"}
        point = {mp: 0 for mp in "abcd"}
        for _ in range(60):
            t += stream.next_uniform(0.5, 3.0)
            mp = "abcd"[stream.next_int(0, 3)]
            elapsed[mp] += stream.next_uniform(0.1, 5.0)
            if stream.next_unit() < 0.2:
                point[mp] += 1
                elapsed[mp] = stream.next_uniform(0.0, 1.0)
            stamp_point, stamp_elapsed = point[mp], elapsed[mp]
            if stream.next_unit() < 0.5:
                events.append(
                    ("trade", tagged(mp, seqs[mp], stamp_point, stamp_elapsed), t)
                )
                seqs[mp] += 1
            else:
                events.append(("hb", heartbeat(mp, stamp_point, stamp_elapsed), t))
        return events

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_same_release_set_and_order(self, seed, n_shards):
        events = self.make_events(seed)
        flat = self.run_flat(events)
        sharded = self.run_sharded(events, n_shards)
        # Before flushing, releases are a prefix; after the flush both
        # contain every trade.  Ordering by stamp must agree on the
        # released-by-watermark portion; the flushed tail may differ in
        # arrival-order details, so compare the watermark-safe prefix.
        assert set(flat) == set(sharded)

        # The heap discipline sorts both by stamp: verify global sortedness.
        def stamps_of(keys):
            by_key = {}
            for kind, payload, _ in events:
                if kind == "trade":
                    by_key[payload.trade.key] = payload.clock
            return [by_key[k] for k in keys]

        assert stamps_of(flat) == sorted(stamps_of(flat))
        assert stamps_of(sharded) == sorted(stamps_of(sharded))
