"""Sharded / hierarchical ordering buffer (§5.2).

With many participants a single OB becomes a bottleneck: heartbeat volume
grows linearly with the number of MPs.  The paper's remedy is a two-level
hierarchy:

* each **shard OB** is responsible for a subset of the release buffers —
  it absorbs their heartbeats and trades, maintains the minimum delivery
  clock across *its* subset, and forwards to the master (a) trades that
  are safe with respect to its own subset, in stamp order, and (b) a
  summary heartbeat carrying its subset-minimum watermark;
* the **master OB**, colocated with the matching engine, maintains the
  minimum over shard watermarks and performs the final merge, releasing a
  trade once every shard's watermark has passed it.

The hierarchy filters heartbeats: the master processes one summary per
shard per update instead of one per participant, which is the scaling
claim the ablation benchmark (`benchmarks/test_ablation_sharded_ob.py`)
quantifies.

The watermark-merge core lives in :mod:`repro.core.aggregation`
(:class:`~repro.core.aggregation.HeartbeatAggregator` and its releasing
root :class:`~repro.core.aggregation.MasterOB`), which generalizes the
two-level shape to configurable-fanout trees of transparent
:class:`~repro.core.aggregation.ForwardingAggregator` nodes.  This module
holds only the leaf, :class:`ShardOB`; the shard plane — eager two-level
or tree — is wired by :class:`~repro.core.system.DBODeployment`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.core.aggregation import UpstreamSend
from repro.core.delivery_clock import DeliveryClockStamp
from repro.core.ordering_buffer import OrderingBuffer
from repro.exchange.messages import Heartbeat, TaggedTrade

__all__ = ["ShardOB"]


class ShardOB(OrderingBuffer):
    """One shard of the hierarchical OB, serving a subset of participants.

    An :class:`OrderingBuffer` over the shard's participants whose sink is
    the parent edge: trades it releases are safe with respect to the
    shard's participants and flow upward, together with summary
    heartbeats.  Crash, adoption (``add_participant``) and the warm-up
    hold are the buffer's own.

    Parameters
    ----------
    shard_id:
        Unique shard name.
    participants:
        The subset of participant ids this shard owns.
    parent_send:
        Carries this shard's :data:`~repro.core.aggregation.UpstreamSend`
        tuples — ``("trade", tagged)``, ``("summary", watermark)``,
        ``("marker", mp_id)``, ``("fence", shard_id)`` — to its parent
        over one FIFO edge.  Trades and summaries sharing that edge is
        the in-order property the parent's release rule depends on;
        whether the edge is a direct call or a faultable channel is the
        deployment's choice, invisible here.
    eager_summaries:
        ``True`` (the §5.2 default): publish a summary after *every*
        trade and heartbeat, minimising release latency at O(N) parent
        work.  ``False`` (tree mode): summaries ride a
        :class:`~repro.sim.engine.PeriodicTimer` via
        :meth:`publish_summary` — one message per tick.
    """

    def __init__(
        self,
        shard_id: str,
        participants: Sequence[str],
        parent_send: UpstreamSend,
        generation_time_of: Optional[Callable[[int], float]] = None,
        straggler_threshold: Optional[float] = None,
        latest_point_id: Optional[Callable[[], int]] = None,
        eager_summaries: bool = True,
    ) -> None:
        super().__init__(
            list(participants),
            sink=lambda tagged, now: parent_send(("trade", tagged)),
            generation_time_of=generation_time_of,
            straggler_threshold=straggler_threshold,
            latest_point_id=latest_point_id,
        )
        self.shard_id = shard_id
        # The failure detector's and the recovery table's name for it.
        self.endpoint = f"shard:{shard_id}"
        self._parent_send = parent_send
        self._eager_summaries = eager_summaries
        self.summaries_published = 0
        self.trades_reforwarded = 0

    def odometer(self) -> float:
        return float(self.heartbeats_processed + self.summaries_published)

    # ------------------------------------------------------------------
    # Push-based warm-up (supervised recovery)
    # ------------------------------------------------------------------
    def on_recovery_marker(self, mp_id: str, now: float) -> None:
        """Consume a warm-up fence, or forward it toward the master.

        A marker this shard is waiting on lifts (part of) its own hold;
        any other marker belongs to a master-level warm-up (aggregator
        recovery) and travels upstream as a ``("marker", mp_id)`` tuple
        on the same FIFO edge as the trades it fences.
        """
        if mp_id not in self._warmup_pending:
            self._parent_send(("marker", mp_id))
            return
        super().on_recovery_marker(mp_id, now)
        if not self._warmup_pending and self._eager_summaries:
            self.publish_summary()

    def end_warmup(self, now: float) -> None:
        """Force-lift the warm-up hold (supervisor safety valve)."""
        if self._warmup_pending:
            super().end_warmup(now)
            if self._eager_summaries:
                self.publish_summary()

    # ------------------------------------------------------------------
    def on_tagged_trade(self, tagged: TaggedTrade, send_time: float, arrival_time: float) -> None:
        if tagged.trade.key in self._released:
            # A retransmit of a trade this shard already forwarded up.
            # The copy above us may have died with a failed aggregator,
            # so re-forward it: the master's key-dedup absorbs the
            # duplicate if the original made it through.
            self.trades_reforwarded += 1
            self._parent_send(("trade", tagged))
        super().on_tagged_trade(tagged, send_time, arrival_time)
        if self._eager_summaries:
            self.publish_summary()

    def on_heartbeat(self, heartbeat: Heartbeat, send_time: float, arrival_time: float) -> None:
        # Named base call rather than ``super()``: the heartbeat lane's
        # hottest shard frame stays free of a super object.
        OrderingBuffer.on_heartbeat(self, heartbeat, send_time, arrival_time)
        if self._eager_summaries:
            self.publish_summary()

    # ------------------------------------------------------------------
    def _subset_watermark(self) -> Optional[DeliveryClockStamp]:
        """The lowest watermark over this shard's participants (stragglers
        included); ``None`` while any has not reported.

        Read off the policy's key map (``_wm``), which holds exactly the
        reported participants' watermark keys: one C-level ``min`` over
        tuples instead of a stamp comparison per participant.
        """
        states = self.states
        keys = self._policy._wm
        if len(keys) < len(states):
            return None
        return states[min(keys, key=keys.__getitem__)].watermark

    def publish_summary(self) -> None:
        """Send the subset-minimum watermark upstream.

        Called inline after every message in the eager (§5.2) mode, or by
        a per-shard :class:`~repro.sim.engine.PeriodicTimer` in tree mode.
        While warming up, ``None`` is published regardless of the subset
        state: resends still in flight could carry stamps below it.
        """
        watermark = None if self._warmup_pending else self._subset_watermark()
        self.summaries_published += 1
        self._parent_send(("summary", watermark))

    def send_fence(self) -> None:
        """Emit a freeze fence upstream (same FIFO edge as summaries).

        Sent once at the instant this shard adopts orphans: the parent
        froze our stored watermark, and every summary of ours ahead of
        this message describes the pre-adoption subset.
        """
        self._parent_send(("fence", self.shard_id))
