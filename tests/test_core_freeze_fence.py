"""Unit tests for the freeze-fence protocol on the aggregation merge.

When a child's subtree composition changes (it adopts a dead sibling's
orphans), three things must hold at every ancestor on its path to the
master:

* summaries already in flight on the child's FIFO edge (sent before the
  change) must not advance the merge — they describe the old subtree;
* in-flight trade forwards must not advance the child's watermark for
  the same reason;
* the min2 self-exception (a releasing child's own forwards prove its
  progress) is permanently off for that child: its forward stream is
  only monotone *within* one composition.
"""

import pytest

from repro.core.aggregation import HeartbeatAggregator, MasterOB
from repro.core.delivery_clock import DeliveryClockStamp
from repro.exchange.messages import TaggedTrade, TradeOrder


def stamp(point, elapsed=0.0):
    return DeliveryClockStamp(point, elapsed)


def tag(mp_id, seq, point, elapsed=0.0):
    return TaggedTrade(trade=TradeOrder(mp_id=mp_id, trade_seq=seq),
                       clock=stamp(point, elapsed))


class TestFreezeSummaries:
    def test_frozen_child_summaries_ignored_until_fence(self):
        agg = HeartbeatAggregator(["s0", "s1"])
        agg.on_child_summary("s0", stamp(5), 0.0)
        agg.on_child_summary("s1", stamp(7), 0.0)
        agg.freeze_child("s0")
        assert agg.subtree_watermark() is None  # regressed to None
        # A stale in-flight summary arrives before the fence: ignored.
        agg.on_child_summary("s0", stamp(6), 1.0)
        assert agg.subtree_watermark() is None
        agg.on_child_fence("s0", 2.0)
        assert agg.fences_received == 1
        # Post-fence summaries describe the new composition and apply.
        agg.on_child_summary("s0", stamp(4), 3.0)
        assert agg.subtree_watermark() == stamp(4)

    def test_freezes_nest_one_fence_each(self):
        agg = HeartbeatAggregator(["s0", "s1"])
        agg.on_child_summary("s1", stamp(9), 0.0)
        agg.freeze_child("s0")
        agg.freeze_child("s0")
        agg.on_child_fence("s0", 1.0)
        # One fence down, one freeze still pending: still ignored.
        agg.on_child_summary("s0", stamp(3), 2.0)
        assert agg.subtree_watermark() is None
        agg.on_child_fence("s0", 3.0)
        agg.on_child_summary("s0", stamp(3), 4.0)
        assert agg.subtree_watermark() == stamp(3)

    def test_fence_from_retired_child_is_late_message(self):
        agg = HeartbeatAggregator(["s0", "s1"])
        agg.remove_child("s0")
        agg.on_child_fence("s0", 1.0)
        assert agg.late_child_messages == 1
        with pytest.raises(KeyError):
            agg.on_child_fence("s9", 1.0)

    def test_adopted_child_starts_unfrozen(self):
        agg = HeartbeatAggregator(["s0", "s1"])
        agg.freeze_child("s0")
        agg.remove_child("s0")
        agg.add_child("s0")
        agg.on_child_summary("s0", stamp(2), 1.0)
        agg.on_child_summary("s1", stamp(3), 1.0)
        assert agg.subtree_watermark() == stamp(2)


class TestFrozenTradeForwards:
    def test_forward_does_not_advance_watermark_while_frozen(self):
        released = []
        master = MasterOB(["s0", "s1"], sink=lambda t, now: released.append(t))
        master.on_child_summary("s1", stamp(10), 0.0)
        master.freeze_child("s0")
        # An in-flight pre-change forward: enqueued but proves nothing.
        master.on_child_trade("s0", tag("mp0", 1, 5), 1.0)
        assert master.subtree_watermark() is None
        assert released == []
        master.on_child_fence("s0", 2.0)
        # Post-fence forwards advance again (plain-minimum regime).
        master.on_child_trade("s0", tag("mp1", 1, 3), 3.0)
        assert master.subtree_watermark() == stamp(3)


class TestRebuiltChildLosesSelfException:
    def test_single_child_exception_holds_after_freeze(self):
        # Without a freeze, a lone releasing child's forwards release
        # immediately (min2 = TOP self-exception).
        released = []
        master = MasterOB(["s0", "s1"], sink=lambda t, now: released.append(t))
        master.remove_child("s1")
        master.on_child_trade("s0", tag("mp0", 1, 5), 1.0)
        assert len(released) == 1

        # With a freeze/fence cycle the exception is off: the same
        # forward is held until the child's *summary* covers it.
        released2 = []
        master2 = MasterOB(["s0", "s1"], sink=lambda t, now: released2.append(t))
        master2.remove_child("s1")
        master2.freeze_child("s0")
        master2.on_child_fence("s0", 0.0)
        master2.on_child_trade("s0", tag("mp0", 1, 5), 1.0)
        assert released2 == []
        master2.on_child_summary("s0", stamp(6), 2.0)
        assert len(released2) == 1

    def test_stale_heap_cannot_flood_past_rerouted_resends(self):
        # The adopter scenario that motivated the protocol: the master
        # holds old high-stamp forwards from the adopter while rerouted
        # orphan resends with *lower* stamps are still on their way.
        order = []
        master = MasterOB(["s0", "s1"],
                          sink=lambda t, now: order.append(t.clock.as_tuple()))
        master.on_child_summary("s0", stamp(2), 0.0)
        # s1 forwarded stamps 13..15 pre-crash; s0's low watermark holds them.
        for seq, point in enumerate((13, 14, 15), start=1):
            master.on_child_trade("s1", tag("mp1", seq, point), 0.0)
        assert order == []
        # s0 dies; s1 adopts its participants.
        master.freeze_child("s1")
        master.on_child_fence("s1", 1.0)
        master.remove_child("s0")
        # The adopter's post-warm-up flush arrives in stamp order,
        # starting *below* the stale heap entries.
        master.on_child_trade("s1", tag("mp0", 1, 11), 2.0)
        master.on_child_trade("s1", tag("mp0", 2, 12), 2.0)
        master.on_child_trade("s1", tag("mp0", 3, 14, 0.5), 2.0)
        master.on_child_summary("s1", stamp(16), 3.0)
        master.flush(4.0)
        assert order == sorted(order)

    def test_rebuilt_status_cleared_on_remove_and_readd(self):
        master = MasterOB(["s0", "s1"])
        master.freeze_child("s0")
        assert "s0" in master._rebuilt
        master.remove_child("s0")
        assert "s0" not in master._rebuilt
        master.add_child("s0")
        assert "s0" not in master._rebuilt
