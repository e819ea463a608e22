"""Hierarchical heartbeat aggregation (§5.2 generalized to trees).

DBO's release rule only ever needs the *minimum* delivery-clock
watermark across participants, so heartbeat traffic folds losslessly:
any interior node of a tree can merge the watermarks of its children
into a single subtree-minimum summary.  The paper's two-level hierarchy
(shards → master) is the depth-1 special case; Jasper's proxy trees show
the same shape scaling fair delivery to thousands of receivers.

This module holds the tree machinery:

:class:`HeartbeatAggregator`
    The subtree-minimum watermark merge — per-child watermarks that only
    advance, lowest/second-lowest extremes, child retirement and
    re-assignment.  Extracted from the old ``MasterOB`` so every level
    of the tree shares one audited implementation.

:class:`MasterOB`
    The releasing root: a :class:`HeartbeatAggregator` plus the final
    stamp-ordered heap and the key-dedup release log.

:class:`ForwardingAggregator`
    A transparent interior node: it forwards trades upstream *immediately*
    (it queues nothing, so a node crash loses zero trades) while batching
    its children's watermarks into one summary per tick.

:data:`UpstreamSend` / :func:`deliver_upstream`
    The edge protocol: the message tuples a child sends its parent, and
    their one decoder on the parent's side.

:func:`plan_tree`
    The contiguous-fanout level plan connecting shard ids to the master.

Correctness of the tree hinges on one FIFO invariant, inherited from the
shard→master hop: trades and summaries from a child share one in-order
channel, and every trade a child emits after publishing summary ``w``
carries a stamp ≥ ``w``.  Shards guarantee it by subset-safe release;
interior nodes preserve it by forwarding trades in arrival order and
publishing only watermarks they have already seen pass by.  A parent that
has seen ``w`` from a child therefore knows no trade below ``w`` can
still arrive from that subtree — exactly the flat release rule, one
level up.

Two child flavours differ at the releasing root:

* **releasing** children (shards) emit trades in stamp order, so a
  forwarded trade advances the child's watermark and the root may use
  the second-lowest watermark as the bound for the lowest child's own
  trades (the flat OB's self-exception);
* **transparent** children (forwarding aggregators) interleave several
  shard streams in arrival order — a forwarded trade proves nothing
  about the subtree minimum, so watermarks advance on summaries only and
  the bound is always the global minimum.

Both flavours release in globally stamp-sorted order, which is why a
deep tree produces the byte-identical trade ordering of the flat OB.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.delivery_clock import DeliveryClockStamp
from repro.core.ordering_buffer import ReleaseSink, WarmupHold
from repro.exchange.messages import TaggedTrade
from repro.sim.dense import KeyLog

__all__ = [
    "HeartbeatAggregator",
    "MasterOB",
    "ForwardingAggregator",
    "UpstreamSend",
    "deliver_upstream",
    "plan_tree",
    "tree_node_ids",
]

# An upstream edge carries ("summary", stamp), ("trade", TaggedTrade),
# ("marker", mp_id) and ("fence", child_id) tuples, whether it is a
# direct call or a channel; :func:`deliver_upstream` decodes them.
UpstreamSend = Callable[[Tuple[str, object]], object]

# A watermark's ``DeliveryClockStamp.key``: what the merges compare.
WatermarkKey = Tuple[int, float]

# Sentinel above every real stamp (2**62 point ids is beyond any run).
_TOP = DeliveryClockStamp(2**62, float("inf"))


class HeartbeatAggregator:
    """Subtree-minimum watermark merge over a set of children.

    The latent abstraction of the old ``MasterOB.on_shard_summary``:
    per-child watermarks that only move forward, a lowest/second-lowest
    extremes scan, and the child lifecycle needed under faults —
    retirement (``remove_child``), adoption (``add_child``) and crash
    re-assignment (``reassign_child``).

    Subclasses decide what *happens* when the minimum advances by
    overriding :meth:`_on_watermarks_advanced`.
    """

    def __init__(self, child_ids: Sequence[str], node_id: str = "master") -> None:
        if not child_ids:
            raise ValueError(f"aggregator {node_id!r} needs at least one child")
        self.node_id = node_id
        self._watermarks: Dict[str, Optional[DeliveryClockStamp]] = {
            child_id: None for child_id in child_ids
        }
        self._retired: Set[str] = set()
        # Retired children whose subtree was adopted elsewhere: their
        # late *trades* are still honoured (nothing below the merged
        # watermark can be among them), late summaries are ignored.
        self._reassigned: Set[str] = set()
        # Freeze-fence (warm-up recovery): children whose subtree
        # composition just changed.  Summaries already in flight on
        # their FIFO edge predate the change and must not advance the
        # merge; each freeze pairs with exactly one fence message the
        # child emits at freeze time, and the count drops on arrival.
        self._frozen: Dict[str, int] = {}
        # Children whose subtree composition has ever changed (frozen at
        # least once).  A releasing child's forward stream is monotone in
        # stamp only *within* one composition — across an adoption it
        # restarts lower (the orphans' backlog) — so the min2
        # self-exception (see MasterOB._try_release) is permanently
        # unsound for them and falls back to the plain minimum bound.
        self._rebuilt: Set[str] = set()
        self.summaries_processed = 0
        self.late_child_messages = 0
        self.fences_received = 0

    @property
    def child_ids(self) -> List[str]:
        return list(self._watermarks)

    # ------------------------------------------------------------------
    # Child lifecycle
    # ------------------------------------------------------------------
    def add_child(
        self, child_id: str, watermark: Optional[DeliveryClockStamp] = None
    ) -> None:
        """Adopt a new child (orphan re-parenting after a node crash).

        Until the orphan's first summary arrives its watermark is
        ``watermark`` (typically ``None``), which conservatively stalls
        the merged minimum — safe, never unfair.
        """
        if child_id in self._watermarks:
            raise ValueError(f"child {child_id!r} already attached")
        self._watermarks[child_id] = watermark
        self._retired.discard(child_id)
        self._reassigned.discard(child_id)
        self._frozen.pop(child_id, None)
        self._rebuilt.discard(child_id)

    def remove_child(self, child_id: str, now: float = 0.0) -> None:
        """Stop waiting on a failed child (§5.2 failure handling).

        The dead child's watermark leaves the merge immediately —
        otherwise the minimum would stall forever — and messages still in
        flight from it are dropped on arrival (counted).
        """
        if child_id not in self._watermarks:
            raise KeyError(f"unknown child {child_id!r}")
        del self._watermarks[child_id]
        self._retired.add(child_id)
        self._frozen.pop(child_id, None)
        self._rebuilt.discard(child_id)
        if self._watermarks:
            self._on_watermarks_advanced(now)

    def reassign_child(self, dead_id: str, into_id: str, now: float = 0.0) -> None:
        """Retire ``dead_id`` whose children were re-parented under ``into_id``.

        Unlike :meth:`remove_child` (a shard crash: its queue is gone and
        late messages are meaningless), a *transparent* node's death
        loses nothing — its children live on under ``into_id`` and its
        already-forwarded trades are still in flight.  Soundness needs
        two adjustments during the hand-over window:

        * ``into_id``'s watermark regresses to ``min(into, dead)``: the
          adopter's old summaries never covered the orphans, but the dead
          node's last summary bounds every in-flight trade from its
          subtree from below, so the merged bound stays conservative
          until the adopter's first covering summary arrives;
        * late trades from ``dead_id`` are honoured (they are exactly the
          in-flight forwards, all stamped ≥ the regressed bound); late
          summaries are ignored.
        """
        if dead_id not in self._watermarks:
            raise KeyError(f"unknown child {dead_id!r}")
        if into_id not in self._watermarks:
            raise KeyError(f"unknown adopter {into_id!r}")
        dead_watermark = self._watermarks.pop(dead_id)
        into_watermark = self._watermarks[into_id]
        if into_watermark is None or dead_watermark is None:
            self._watermarks[into_id] = None
        else:
            self._watermarks[into_id] = min(into_watermark, dead_watermark)
        self._reassigned.add(dead_id)
        self._retired.add(dead_id)
        self._frozen.pop(dead_id, None)

    def freeze_child(self, child_id: str) -> None:
        """Regress ``child_id``'s stored watermark to ``None`` and ignore
        its summaries until a fence arrives.

        Called when the child's subtree composition changes (it adopted
        orphans): until its first summary *covering the orphans* arrives,
        its old watermark here is a lie — resends still in flight can
        carry stamps below it — so the merge stalls on this child.  The
        regression alone is not enough: every summary already in flight
        on the child's FIFO edge predates the change and would re-raise
        the entry.  The caller makes the child emit exactly one fence on
        the same edge at the same instant — the fence trails the stale
        summaries, and :meth:`on_child_fence` lifts the freeze when it
        lands.  Freezes nest (repeated failures): each pairs with its
        own fence.
        """
        if child_id not in self._watermarks:
            raise KeyError(f"unknown child {child_id!r}")
        self._watermarks[child_id] = None
        self._frozen[child_id] = self._frozen.get(child_id, 0) + 1
        self._rebuilt.add(child_id)

    def on_child_fence(self, child_id: str, now: float = 0.0) -> None:
        """A freeze fence landed: summaries behind it are fresh again."""
        if child_id not in self._watermarks:
            if child_id in self._retired:
                self.late_child_messages += 1
                return
            raise KeyError(f"unknown child {child_id!r}")
        self.fences_received += 1
        count = self._frozen.get(child_id, 0)
        if count <= 1:
            self._frozen.pop(child_id, None)
        else:
            self._frozen[child_id] = count - 1

    # ------------------------------------------------------------------
    # Watermark merge
    # ------------------------------------------------------------------
    def on_child_summary(
        self, child_id: str, watermark: Optional[DeliveryClockStamp], now: float
    ) -> None:
        """A child's summary: the minimum watermark of its subtree."""
        if child_id not in self._watermarks:
            if child_id in self._retired:
                self.late_child_messages += 1
                return
            raise KeyError(f"unknown child {child_id!r}")
        self.summaries_processed += 1
        if self._frozen.get(child_id, 0) > 0:
            # Sent before the child's fence: it describes the child's
            # *old* subtree and could vouch for stamps that rerouted
            # resends still undercut.
            return
        current = self._watermarks[child_id]
        if watermark is not None and (current is None or watermark.key > current.key):
            self._watermarks[child_id] = watermark
        self._on_watermarks_advanced(now)

    def subtree_watermark(self) -> Optional[DeliveryClockStamp]:
        """Minimum over child watermarks — what this node reports upward.

        ``None`` until every child has reported: a subtree that has not
        spoken could still hold arbitrarily early trades.
        """
        minimum: Optional[DeliveryClockStamp] = None
        for watermark in self._watermarks.values():
            if watermark is None:
                return None
            if minimum is None or watermark.key < minimum.key:
                minimum = watermark
        return minimum

    def _watermark_extremes(
        self,
    ) -> Optional[Tuple[WatermarkKey, str, WatermarkKey]]:
        """Keys of the lowest and second-lowest child watermarks, with the
        lowest's child (see OrderingBuffer); ``None`` while any child has
        not reported."""
        min1: Optional[WatermarkKey] = None
        min1_child: Optional[str] = None
        min2: Optional[WatermarkKey] = None
        for child_id, watermark in self._watermarks.items():
            if watermark is None:
                return None
            key = watermark.key
            if min1 is None or key < min1:
                min2 = min1
                min1 = key
                min1_child = child_id
            elif min2 is None or key < min2:
                min2 = key
        if min1 is None or min1_child is None:
            return None
        return min1, min1_child, _TOP.key if min2 is None else min2

    def _on_watermarks_advanced(self, now: float) -> None:
        """Hook: the merged minimum may have moved.  Default: nothing."""


class MasterOB(HeartbeatAggregator, WarmupHold):
    """The releasing root of the hierarchy: final merge + stamp-ordered heap.

    One logical "participant" per child.  ``releasing_children`` selects
    the child flavour (see the module docstring): ``True`` for shards
    (stamp-ordered forwards, watermark advance on trades, min2
    self-exception), ``False`` for transparent interior aggregators
    (summaries only, global-minimum bound).  After an interior
    aggregator crash it holds releases behind the ordering buffer's
    warm-up, :class:`~repro.core.ordering_buffer.WarmupHold`.
    """

    # As on the flat OB: the deployment's ack for a copy of a released trade.
    reack: Optional[ReleaseSink] = None

    def __init__(
        self,
        child_ids: Sequence[str],
        sink: Optional[ReleaseSink] = None,
        releasing_children: bool = True,
    ) -> None:
        HeartbeatAggregator.__init__(self, child_ids, node_id="master")
        WarmupHold.__init__(self)
        self.sink = sink
        self.releasing_children = releasing_children
        # Entries: (stamp tuple, child_id, mp_id, trade_seq, TaggedTrade).
        self._heap: List[Tuple[Tuple[int, float], str, str, int, TaggedTrade]] = []
        # Released (mp_id, trade_seq) keys: RB retransmissions rerouted
        # through a different shard after a shard failure must not reach
        # the matching engine twice.
        self._released = KeyLog()
        self.trades_released = 0
        self.duplicates_ignored = 0

    @property
    def queue_depth(self) -> int:
        return len(self._heap)

    # A warm-up fence forwarded up the tree reached the root: the name
    # deliver_upstream calls on every parent.
    on_child_marker = WarmupHold.on_recovery_marker

    # Unused by the deployment: benchmarks/observatory/tracer.py names
    # these two as entry points and its test fails on a missing target.
    def on_shard_trade(self, shard_id: str, tagged: TaggedTrade, now: float) -> None:
        self.on_child_trade(shard_id, tagged, now)

    def on_shard_summary(
        self, shard_id: str, watermark: Optional[DeliveryClockStamp], now: float
    ) -> None:
        self.on_child_summary(shard_id, watermark, now)

    # ------------------------------------------------------------------
    def on_child_trade(self, child_id: str, tagged: TaggedTrade, now: float) -> None:
        """A trade forwarded up by a child.

        Releasing children emit trades in stamp order over an in-order
        channel, so a forwarded trade is itself proof of its child's
        progress: the child's watermark advances to the trade's stamp.
        Transparent children interleave several sorted streams — their
        forwards prove nothing, so the watermark is left alone.
        """
        if child_id not in self._watermarks:
            if child_id in self._reassigned:
                # In-flight forward from a re-parented transparent node:
                # honoured (see HeartbeatAggregator.reassign_child).
                self.late_child_messages += 1
                self._enqueue(child_id, tagged, now)
                return
            if child_id in self._retired:
                self.late_child_messages += 1
                return
            raise KeyError(f"unknown shard {child_id!r}")
        if tagged.trade.key in self._released:
            self._drop_released(tagged, now)
            return
        if self.releasing_children and not self._frozen.get(child_id):
            # While frozen, in-flight forwards predate the composition
            # change: rerouted resends may still undercut their stamps,
            # so they prove nothing about the child's future stream.
            stamp: DeliveryClockStamp = tagged.clock
            current = self._watermarks[child_id]
            if current is None or stamp.key > current.key:
                self._watermarks[child_id] = stamp
        self._enqueue(child_id, tagged, now)

    def _enqueue(self, child_id: str, tagged: TaggedTrade, now: float) -> None:
        if tagged.trade.key in self._released:
            self._drop_released(tagged, now)
            return
        heapq.heappush(
            self._heap,
            (tagged.clock.key, child_id, tagged.trade.mp_id, tagged.trade.trade_seq, tagged),
        )
        self._try_release(now)

    def _try_release(self, now: float) -> None:
        if self._warmup_pending or not self._heap:
            # Warm-up hold (re-collected resends may still be in flight),
            # or nothing to release.
            return
        extremes = self._watermark_extremes()
        if extremes is None:
            return
        min1, min1_child, min2 = extremes
        use_exception = self.releasing_children
        while self._heap:
            stamp_tuple, child_id, _, _, _ = self._heap[0]
            bound = (
                min2
                if (
                    use_exception
                    and child_id == min1_child
                    and child_id not in self._rebuilt
                )
                else min1
            )
            if stamp_tuple >= bound:
                break
            _, _, _, _, tagged = heapq.heappop(self._heap)
            if not self._released.add_new(tagged.trade.key):
                self._drop_released(tagged, now)
                continue
            self.trades_released += 1
            if self.sink is not None:
                self.sink(tagged, now)

    def _drop_released(self, tagged: TaggedTrade, now: float) -> None:
        """Discard a copy of a released trade, acking it again."""
        self.duplicates_ignored += 1
        if self.reack is not None:
            self.reack(tagged, now)

    # The merged minimum moved: the release attempt *is* the hook (no
    # trampoline frame per child summary).
    _on_watermarks_advanced = _try_release

    def flush(self, now: float) -> int:
        """Release every queued trade in stamp order (end-of-run drain)."""
        flushed = 0
        while self._heap:
            _, _, _, _, tagged = heapq.heappop(self._heap)
            if not self._released.add_new(tagged.trade.key):
                self._drop_released(tagged, now)
                continue
            self.trades_released += 1
            flushed += 1
            if self.sink is not None:
                self.sink(tagged, now)
        return flushed


class ForwardingAggregator(HeartbeatAggregator):
    """A transparent interior tree node.

    Trades pass straight through to the parent (same edge, same FIFO, in
    arrival order) — the node queues nothing, so its fail-stop loses zero
    trades.  Watermarks are merged and re-published as *one* summary per
    tick (:meth:`publish_tick` rides a
    :class:`~repro.sim.engine.PeriodicTimer`), which is the whole point:
    a node's parent does O(children) heartbeat work per tick no matter
    how many participants live below.
    """

    def __init__(
        self,
        node_id: str,
        child_ids: Sequence[str],
        upstream: UpstreamSend,
    ) -> None:
        super().__init__(child_ids, node_id=node_id)
        self.endpoint = f"agg:{node_id}"
        self._upstream = upstream
        self.failed = False
        self.trades_forwarded = 0
        self.summaries_published = 0

    def odometer(self) -> float:
        return float(self.summaries_published + self.trades_forwarded)

    def on_child_trade(self, child_id: str, tagged: TaggedTrade, now: float) -> None:
        """Forward immediately; arrival order preserves each child's FIFO."""
        if self.failed:
            return
        # Late trades from retired children are forwarded too — a
        # transparent node never drops data (see reassign_child).
        self.trades_forwarded += 1
        self._upstream(("trade", tagged))

    def on_child_summary(
        self, child_id: str, watermark: Optional[DeliveryClockStamp], now: float
    ) -> None:
        if self.failed:
            return
        super().on_child_summary(child_id, watermark, now)

    def on_child_marker(self, mp_id: str, now: float) -> None:
        """Forward a warm-up fence upstream (same FIFO edge as trades)."""
        if self.failed:
            return
        self._upstream(("marker", mp_id))

    def on_child_fence(self, child_id: str, now: float = 0.0) -> None:
        if self.failed:
            return
        super().on_child_fence(child_id, now)

    def send_fence(self) -> None:
        """Emit this node's own freeze fence on its upstream edge.

        Paired with the parent's :meth:`freeze_child` for this node:
        summaries of ours still in flight above predate the composition
        change below us and must be ignored until this lands.
        """
        if self.failed:
            return
        self._upstream(("fence", self.node_id))

    def publish_tick(self) -> None:
        """Emit the merged subtree minimum upstream (one message per tick)."""
        if self.failed:
            return
        self.summaries_published += 1
        self._upstream(("summary", self.subtree_watermark()))

    def fail(self) -> None:
        """Fail-stop: stop merging, forwarding and publishing."""
        self.failed = True


def deliver_upstream(
    parent: Union[MasterOB, ForwardingAggregator],
    child_id: str,
    message: Tuple[str, Any],
    now: float,
) -> None:
    """Hand one :data:`UpstreamSend` message from ``child_id`` to ``parent``.

    The receiving end of every tree edge.  Summaries outnumber the other
    kinds by the heartbeat-to-trade ratio, so they are tested first.
    """
    kind, payload = message
    if kind == "summary":
        parent.on_child_summary(child_id, payload, now)
    elif kind == "trade":
        parent.on_child_trade(child_id, payload, now)
    elif kind == "marker":
        # A warm-up fence climbing toward the master on the same FIFO
        # edge as the resends it trails.
        parent.on_child_marker(payload, now)
    else:
        parent.on_child_fence(child_id, now)


def tree_node_ids(level: int, count: int) -> List[str]:
    """Names of the interior nodes at aggregation ``level`` (1 = above shards)."""
    return [f"agg{level}-{index}" for index in range(count)]


def plan_tree(shard_ids: Sequence[str], fanout: int, depth: int) -> List[List[Tuple[str, List[str]]]]:
    """Contiguous-fanout level plan from the shards up to the master's children.

    Returns one list per *interior* level (``depth - 1`` of them, bottom
    up), each holding ``(node_id, child_ids)`` pairs; children are grouped
    contiguously in chunks of ``fanout``.  The last level's node ids (or
    the shard ids when ``depth == 1``) become the master's children.

    >>> plan_tree(["shard-0", "shard-1", "shard-2"], fanout=2, depth=2)
    [[('agg1-0', ['shard-0', 'shard-1']), ('agg1-1', ['shard-2'])]]
    """
    if fanout < 2:
        raise ValueError("fanout must be at least 2")
    if depth < 1:
        raise ValueError("a tree needs depth >= 1")
    levels: List[List[Tuple[str, List[str]]]] = []
    below = list(shard_ids)
    for level in range(1, depth):
        count = (len(below) + fanout - 1) // fanout
        if count >= len(below):
            # The level would not reduce anything (already narrow enough):
            # stop early rather than stacking degenerate 1:1 relays.
            break
        node_ids = tree_node_ids(level, count)
        levels.append(
            [
                (node_ids[index], below[index * fanout : (index + 1) * fanout])
                for index in range(count)
            ]
        )
        below = node_ids
    return levels
