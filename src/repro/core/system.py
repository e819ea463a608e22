"""The full DBO deployment (Figure 1 wired on the simulator).

Data path:   CES feed → Batcher → multicast (per-MP FIFO forward links)
             → ReleaseBuffer (pacing, delivery clock) → MarketParticipant
Trade path:  MP → ReleaseBuffer (tagging) → per-MP FIFO reverse link
             (shared by trades and heartbeats — FIFO between them is what
             makes a heartbeat a valid progress proof) → OrderingBuffer
             → MatchingEngine.

Release buffers get *unsynchronized* local clocks — random offsets up to
seconds and drift up to the paper's cited bound — precisely because DBO
must not care (Challenge 1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Union

from repro.baselines.base import BaseDeployment, NetworkSpec
from repro.core.aggregation import (
    ForwardingAggregator,
    MasterOB,
    UpstreamSend,
    deliver_upstream,
    plan_tree,
)
from repro.core.batcher import Batcher
from repro.core.gateway import EgressGateway
from repro.core.ordering_buffer import OrderingBuffer, ReleaseSink
from repro.core.params import AggregationTopology, DBOParams, SupervisionPolicy
from repro.core.release_buffer import ReleaseBuffer, RetransmitPolicy
from repro.core.sharded_ob import ShardOB
from repro.core.supervisor import Supervisor
from repro.core.sync_delivery import SyncAssistedReleaseBuffer
from repro.exchange.feed import FeedConfig
from repro.exchange.messages import (
    Heartbeat,
    MarketDataBatch,
    RecoveryMarker,
    TaggedTrade,
)
from repro.faults.detector import FailureDetector
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.multicast import MulticastGroup
from repro.net.transport import Channel
from repro.participants.response_time import ResponseTimeModel
from repro.participants.strategies import Strategy
from repro.sim.runtime import Runtime

if TYPE_CHECKING:
    from repro.exchange.messages import Execution, TradeOrder
    from repro.exchange.risk import RiskGate, RiskLimits

__all__ = ["DBODeployment"]


class DBODeployment(BaseDeployment):
    """A runnable DBO system over a simulated cloud network.

    Parameters beyond :class:`~repro.baselines.base.BaseDeployment`:

    params:
        δ, κ, τ and the straggler threshold.
    n_ob_shards:
        1 (default) uses a single ordering buffer; >1 builds the §5.2
        hierarchy with a master merger.  Must not exceed the number of
        participants unless a topology is enabled (which clamps it).
    shard_master_latency:
        ``None`` (default): shards are threads on the master's host and
        forward by direct call.  A latency model: each shard is a
        standalone VM whose forwards ride a faultable
        ``"{shard}->master"`` channel (in tree mode: the latency of the
        ``"agg-{node}"`` edges, unless the topology sets its own).
    topology:
        Optional :class:`~repro.core.params.AggregationTopology`.  At the
        default ``depth = 0`` behaviour is exactly as without it (flat
        OB, or the eager two-level hierarchy when ``n_ob_shards > 1`` —
        shards directly under the master, a summary per message).
        ``depth ≥ 1`` switches the heartbeat plane into batched tree
        mode: shards publish subset-minimum summaries once per tick
        (instead of per message) through ``depth - 1`` levels of
        transparent forwarding aggregators into the master, every tree
        edge a named faultable ``"agg-{node}"`` channel.  The master's
        per-tick heartbeat work becomes O(tree width) instead of O(N).
    disable_batching / disable_pacing:
        Ablation switches (§4.2.2): ``disable_batching`` publishes every
        point as its own batch regardless of ``(1+κ)δ``;
        ``disable_pacing`` lets release buffers deliver on arrival with
        no ≥ δ gap.  Both void the LRTF guarantee — that's the point of
        the ablation benchmark.
    sync_target_c1 / sync_error:
        §4.2.6's sync-assisted delivery: when ``sync_target_c1`` is set,
        release buffers aim each batch's delivery at the common target
        ``close + C1`` using synchronized clocks with error bound
        ``sync_error`` — equalizing inter-delivery times when the network
        cooperates (better fairness beyond δ) while always preserving
        LRTF.  ``None`` (default) is plain DBO.

    Examples
    --------
    >>> from repro.baselines.base import default_network_specs
    >>> deployment = DBODeployment(default_network_specs(3, seed=5))
    >>> result = deployment.run(duration=4_000.0)
    >>> result.scheme
    'dbo'
    """

    scheme_name = "dbo"

    def __init__(
        self,
        specs: Sequence[NetworkSpec],
        params: Optional[DBOParams] = None,
        feed_config: Optional[FeedConfig] = None,
        response_time_model: Optional[ResponseTimeModel] = None,
        strategy_factory: Optional[Callable[[int], Strategy]] = None,
        execute_trades: bool = False,
        publish_executions: bool = False,
        seed: int = 0,
        rb_clock_drift: float = 1e-4,
        n_ob_shards: int = 1,
        shard_master_latency: Optional[LatencyModel] = None,
        topology: Optional[AggregationTopology] = None,
        disable_batching: bool = False,
        disable_pacing: bool = False,
        sync_target_c1: Optional[float] = None,
        sync_error: float = 0.0,
        telemetry_interval: Optional[float] = None,
        piggyback_suppression: bool = False,
        ob_service_time: float = 0.0,
        risk_limits: Optional["RiskLimits"] = None,
        retransmit_policy: Optional[RetransmitPolicy] = None,
        enable_egress_gateway: bool = False,
        supervise: bool = False,
        supervision_policy: Optional[SupervisionPolicy] = None,
        runtime: Optional[Runtime] = None,
    ) -> None:
        super().__init__(
            specs,
            feed_config=feed_config,
            response_time_model=response_time_model,
            strategy_factory=strategy_factory,
            execute_trades=execute_trades,
            publish_executions=publish_executions,
            seed=seed,
            rb_clock_drift=rb_clock_drift,
            runtime=runtime,
        )
        self.params = params if params is not None else DBOParams()
        self.n_ob_shards = n_ob_shards
        self.shard_master_latency = shard_master_latency
        self.topology = topology
        # Shard-plane state: the mutable child→parent routing of every
        # shard and interior node (re-parenting on node crash must
        # redirect in-flight channel arrivals) and, in tree mode only,
        # interior nodes by id, per-node summary timers and per-node
        # "publish now" hooks for orphan re-reports.
        self._agg_nodes: Dict[str, ForwardingAggregator] = {}
        self._agg_parent: Dict[str, str] = {}
        self._agg_timers: Dict[str, object] = {}
        self._agg_publishers: Dict[str, Callable[[], None]] = {}
        self.aggregator_failures = 0
        self.disable_batching = disable_batching
        self.disable_pacing = disable_pacing
        self.sync_target_c1 = sync_target_c1
        self.sync_error = sync_error
        self.telemetry_interval = telemetry_interval
        self.telemetry = None
        self.piggyback_suppression = piggyback_suppression
        # §5.2 bottleneck modeling: per-message OB processing time.  With
        # a flat OB one server handles every trade and heartbeat; with
        # shards each shard gets its own server and the master only sees
        # the (filtered) shard output.
        self.ob_service_time = ob_service_time
        self._ob_service_queues: Dict[str, object] = {}
        # Optional pre-trade risk gate between OB release and the ME.
        self.risk_limits = risk_limits
        self.risk_gate = None
        self.release_buffers: List[ReleaseBuffer] = []
        self.ordering_buffer: Optional[OrderingBuffer] = None
        self.master_ob: Optional[MasterOB] = None
        self.shards: List[ShardOB] = []
        self._shard_routing: Dict[str, ShardOB] = {}
        self.multicast = MulticastGroup()
        # Message plane: per-MP reverse channels plus the control channels
        # (acks, standby adoption, egress) — all addressable by name via
        # ``self.transport`` for fault injection.
        self.reverse_channels: Dict[str, Channel] = {}
        self._ack_channels: Dict[str, Channel] = {}
        self._ob_adopt_channel: Optional[Channel] = None
        self._egress_channel: Optional[Channel] = None
        self.egress_delivered: List = []
        self.batcher: Optional[Batcher] = None
        # ----- recovery-protocol state (fault-injection support) --------
        # When set, the OB acks each release back to the originating RB
        # and the RBs retransmit unacked trades (see RetransmitPolicy).
        self.retransmit_policy = retransmit_policy
        self.enable_egress_gateway = enable_egress_gateway
        self.egress_gateway: Optional[EgressGateway] = None
        self._rb_by_id: Dict[str, ReleaseBuffer] = {}
        # The composed release sink (ME/risk-gate + acks + observers);
        # standby OBs built on failover reuse it unchanged.
        self._release_sink = None
        # Observation hooks called as (tagged, now) on every release and
        # (heartbeat, arrival) on every OB-bound heartbeat — the invariant
        # auditor taps the pipeline here without touching the data path.
        # Appending is allowed any time before run().
        self._release_observers: List[Callable[[TaggedTrade, float], None]] = []
        self._heartbeat_observers: List[Callable[[Heartbeat, float], None]] = []
        self._failed_shards: set = set()
        self.ob_failovers = 0
        self.shard_failures = 0
        # ----- self-healing control plane (detected-mode recovery) ------
        # ``supervise`` arms the deterministic failure detector + the
        # supervisor that escalates suspicions into the recovery methods
        # below.  Crash halves (``crash_ob`` / ``crash_shard`` /
        # ``crash_aggregator``) mark components dead so the dispatchers
        # drop their traffic — the resulting frozen odometers are the
        # detection signal; the scripted ``failover_ob`` / ``fail_shard``
        # / ``fail_aggregator`` compose a crash with its recovery half.
        self.supervise = supervise
        if supervision_policy is None and supervise:
            supervision_policy = SupervisionPolicy()
        self.supervision_policy = supervision_policy
        self.detector: Optional[FailureDetector] = None
        self.supervisor: Optional[Supervisor] = None
        self._ob_crashed = False
        self._crashed_shards: set = set()
        self._retired_aggs: set = set()
        self.messages_dropped_dead = 0
        self._warmup_timeout = (
            supervision_policy.warmup_timeout
            if supervision_policy is not None
            else 10_000.0
        )

    # ------------------------------------------------------------------
    def _make_ordering_buffer(self, sink: ReleaseSink) -> OrderingBuffer:
        """Construct the flat ordering buffer (also used for standbys).

        The single extension seam for schemes that keep DBO's whole
        topology but swap the release rule — the probabilistic scheme
        (:class:`repro.ordering.deployment.ProbDeployment`) overrides
        this to return a horizon-based buffer.
        """
        return OrderingBuffer(
            participants=list(self.mp_ids),
            sink=sink,
            generation_time_of=self.ces.generation_time_of,
            straggler_threshold=self.params.straggler_threshold,
            latest_point_id=lambda: self.ces.points_generated - 1,
        )

    def _build(self) -> None:
        params = self.params
        me = self.ces.matching_engine

        if self.risk_limits is not None:
            from repro.exchange.risk import RiskGate

            self.risk_gate = RiskGate(self.risk_limits, sink=me.submit)
            previous_hook = me.on_execution

            def on_execution(
                execution: "Execution",
                gate: "RiskGate" = self.risk_gate,
                prev: Optional[Callable[["Execution"], None]] = previous_hook,
            ) -> None:
                gate.on_execution(execution)
                if prev is not None:
                    prev(execution)

            me.on_execution = on_execution

            def base_sink(tagged: TaggedTrade, now: float) -> None:
                self.risk_gate.submit(tagged.trade, forward_time=now)
        else:
            def base_sink(tagged: TaggedTrade, now: float) -> None:
                me.submit(tagged.trade, forward_time=now)

        def release_sink(tagged: TaggedTrade, now: float) -> None:
            base_sink(tagged, now)
            for observer in self._release_observers:
                observer(tagged, now)
            if self.retransmit_policy is not None:
                # Ack the release back to the originating RB so it stops
                # guarding the trade.  The ack is a real message on a
                # named channel ("ack-{mp}"), so burst loss and partitions
                # can eat it — which is what drives retransmission.
                ack = self._ack_channels.get(tagged.trade.mp_id)
                if ack is not None:
                    ack.send(tagged.trade.key, send_time=now)

        self._release_sink = release_sink

        tree = self.topology is not None and self.topology.enabled
        if self.n_ob_shards <= 1 and not tree:
            self.ordering_buffer = self._make_ordering_buffer(release_sink)
            # Standby adoption (release log + counters) rides a channel so
            # it is observable/faultable like any other control traffic.
            # Priority -1 at zero latency delivers before every same-time
            # data event — equivalent to the old synchronous hand-off.
            self._ob_adopt_channel = self._open_control_channel(
                "ob-adopt",
                ConstantLatency(0.0),
                source="ob",
                destination="standby-ob",
                handler=self._on_ob_adoption,
                priority=-1,
            )
        else:
            self._build_shard_plane(release_sink)

        # Emit-on-determination needs a known cadence; Poisson feeds fall
        # back to window-timer closes.
        feed_interval = (
            self.ces.feed.config.interval
            if self.ces.feed.config.is_periodic
            else None
        )
        batch_span = params.batch_span
        if self.disable_batching:
            # Every point closes its own batch: a window no wider than the
            # feed cadence with emit-on-determination gives 1-point batches.
            batch_span = min(batch_span, self.ces.feed.config.interval)
        self.batcher = Batcher(
            self.engine,
            batch_span,
            sink=self._publish_batch,
            feed_interval=feed_interval,
        )
        self.ces.set_distributor(self.batcher.on_point)

        if self.enable_egress_gateway:
            self.egress_gateway = EgressGateway(list(self.mp_ids))
            # Cleared outbound data leaves the cloud over a real channel
            # ("egress"), so a stalled-then-resumed gateway's burst is
            # visible (and faultable) like any other traffic.
            self._egress_channel = self._open_control_channel(
                "egress",
                ConstantLatency(0.0),
                source="gateway",
                destination="external",
                handler=lambda message, sent, arrival: self.egress_delivered.append(
                    (message, arrival)
                ),
            )
            self.egress_gateway.set_sink(
                lambda message, now: self._egress_channel.send(message, send_time=now)
            )

        for index, spec in enumerate(self.specs):
            mp_id = self.mp_ids[index]
            pacing_gap = 1e-9 if self.disable_pacing else params.delta
            if self.sync_target_c1 is not None:
                from repro.sim.clocks import SynchronizedClock

                rb = SyncAssistedReleaseBuffer(
                    self.engine,
                    mp_id=mp_id,
                    pacing_gap=pacing_gap,
                    heartbeat_period=params.tau,
                    sync_clock=SynchronizedClock(
                        error_bound=self.sync_error,
                        seed=self.runtime.u64(500 + index),
                    ),
                    target_delay=self.sync_target_c1,
                    local_clock=self._make_rb_clock(index),
                    rb_to_mp=spec.rb_to_mp,
                )
                rb.piggyback_suppression = self.piggyback_suppression
                rb.retransmit_policy = self.retransmit_policy
            else:
                rb = ReleaseBuffer(
                    self.engine,
                    mp_id=mp_id,
                    pacing_gap=pacing_gap,
                    heartbeat_period=params.tau,
                    local_clock=self._make_rb_clock(index),
                    rb_to_mp=spec.rb_to_mp,
                    piggyback_suppression=self.piggyback_suppression,
                    retransmit_policy=self.retransmit_policy,
                )
            self.release_buffers.append(rb)
            self._rb_by_id[mp_id] = rb

            # Forward data path: CES batches to this RB.  Batch ids are
            # unique, so channel-level dedup makes duplicate delivery a
            # no-op for the data plane.
            forward = self._open_channel(
                spec.forward,
                spec,
                name=f"fwd-{mp_id}",
                seed_salt=2 * index,
                source="ces",
                destination=mp_id,
                dedup_key=lambda batch: batch.batch_id,
                handler=rb.on_batch,
            )
            forward.set_loss_handler(rb.on_recovered_batch)
            self.multicast.add_member(mp_id, forward)

            # Reverse path: trades and heartbeats share one FIFO channel
            # (that sharing is what makes a heartbeat a progress proof).
            # No channel dedup — the OB's key-dedup owns at-least-once
            # semantics here, and heartbeats are idempotent.
            reverse = self._open_channel(
                spec.reverse,
                spec,
                name=f"rev-{mp_id}",
                seed_salt=2 * index + 1,
                direction="reverse",
                source=mp_id,
                destination="ob",
                handler=self._make_ob_dispatcher(mp_id),
            )
            self.reverse_channels[mp_id] = reverse

            rb.connect_ob(
                trade_sink=reverse.send,
                heartbeat_sink=reverse.send,
                marker_sink=reverse.send,
            )

            if self.retransmit_policy is not None:
                # OB→RB acks ride their own constant-latency channel at
                # delivery priority 5, matching the historical scheduled-
                # callback ordering against same-time data events.
                self._ack_channels[mp_id] = self._open_control_channel(
                    f"ack-{mp_id}",
                    ConstantLatency(self.retransmit_policy.ack_latency),
                    source="ob",
                    destination=mp_id,
                    handler=lambda key, sent, arrival, rb=rb: rb.on_ack(key),
                    priority=5,
                )
            mp_handler: Callable[..., None] = self.participants[index].on_data
            mp_submitter: Callable[..., None] = rb.on_mp_trade
            if self.egress_gateway is not None:
                gateway = self.egress_gateway

                def gated_handler(points: object, mp_time: float,
                                  rb: ReleaseBuffer = rb, mp_id: str = mp_id,
                                  inner: Callable[..., None] =
                                  self.participants[index].on_data) -> None:
                    inner(points, mp_time)
                    # The RB reports delivery progress so the gateway can
                    # judge when outbound data is globally stale.
                    now = self.engine.now
                    if rb.clock.started:
                        gateway.on_clock_report(mp_id, rb.clock.read(now), now)

                def gated_submitter(trade: "TradeOrder",
                                    rb: ReleaseBuffer = rb,
                                    mp_id: str = mp_id) -> None:
                    rb.on_mp_trade(trade)
                    # Outbound copy (e.g. strategy telemetry leaving the
                    # cloud) is tagged and held until globally delivered.
                    now = self.engine.now
                    if rb.clock.started:
                        gateway.on_egress(
                            mp_id, ("order-copy", trade.key), rb.clock.read(now), now
                        )

                mp_handler = gated_handler
                mp_submitter = gated_submitter

            rb.connect_mp(mp_handler)
            self._wire_mp_submitter(index, mp_submitter)

    def _agg_summary_period(self) -> float:
        topology = self.topology
        assert topology is not None
        if topology.summary_period is not None:
            return topology.summary_period
        return self.params.tau

    def _resolve_agg_parent(
        self, child_id: str
    ) -> Union[MasterOB, ForwardingAggregator]:
        """The node object currently parenting ``child_id``.

        Resolved per arrival, not captured at build time: a node crash
        re-parents its children, and messages already in flight on their
        ``agg-{child}`` channels must land on the adopter.
        """
        parent_id = self._agg_parent[child_id]
        if parent_id == "master":
            assert self.master_ob is not None
            return self.master_ob
        return self._agg_nodes[parent_id]

    def _build_shard_plane(
        self, release_sink: Callable[[TaggedTrade, float], None]
    ) -> None:
        """Wire shards, interior aggregators and the master (§5.2).

        RB heartbeats always arrive per participant at their leaf shard
        (the delivery-clock data path is untouched); the topology decides
        the summary plane above the shards:

        * no enabled topology — the paper's eager two-level hierarchy:
          shards sit directly under the master and publish a summary
          after every message, over a direct call or, with
          ``shard_master_latency`` set, the ``{shard}->master`` channel;
        * ``depth ≥ 1`` — the batched tree: each node re-publishes its
          subtree-minimum watermark once per tick over its own faultable
          ``agg-{node}`` channel, so every parent — the master included —
          does O(children) heartbeat work per tick regardless of N.
        """
        topology = self.topology
        if topology is not None and not topology.enabled:
            topology = None
        tree = topology is not None
        n_participants = len(self.mp_ids)
        edge_model = self.shard_master_latency
        if topology is not None:
            n_shards = (
                self.n_ob_shards
                if self.n_ob_shards > 1
                else topology.n_shards_for(n_participants)
            )
            n_shards = min(n_shards, n_participants)
            if topology.edge_latency is not None:
                edge_model = ConstantLatency(topology.edge_latency)
            elif edge_model is None:
                edge_model = ConstantLatency(0.0)
        else:
            n_shards = self.n_ob_shards
            if n_shards > n_participants:
                raise ValueError("more shards than participants")
        shard_ids = [f"shard-{index}" for index in range(n_shards)]
        levels = (
            plan_tree(shard_ids, topology.fanout, topology.depth)
            if topology is not None
            else []
        )
        for level in levels:
            for node_id, children in level:
                for child_id in children:
                    self._agg_parent[child_id] = node_id
        master_children = [node_id for node_id, _ in levels[-1]] if levels else shard_ids
        for child_id in master_children:
            self._agg_parent[child_id] = "master"
        # With shards directly under the master the children release in
        # stamp order, so the master keeps the §5.2 min2 self-exception;
        # transparent interior nodes interleave streams, so deeper trees
        # bound every release by the global minimum.
        self.master_ob = MasterOB(
            master_children,
            sink=release_sink,
            releasing_children=not levels,
        )

        master, engine = self.master_ob, self.engine

        def open_edge(child_id: str) -> UpstreamSend:
            if edge_model is None:
                # Shards as threads on the master's host: no hop to fault,
                # and nothing in flight for a re-parenting to redirect.
                return lambda message: deliver_upstream(
                    master, child_id, message, engine.now
                )
            # Master-side key-dedup owns at-least-once semantics, so the
            # channel itself carries no dedup hook.
            return self._open_control_channel(
                f"agg-{child_id}" if tree else f"{child_id}->master",
                edge_model,
                source=child_id,
                destination=self._agg_parent[child_id] if tree else "master-ob",
                handler=lambda message, send_time, arrival_time: deliver_upstream(
                    self._resolve_agg_parent(child_id), child_id, message, arrival_time
                ),
            ).send

        for level in levels:
            for node_id, children in level:
                node = ForwardingAggregator(node_id, children, open_edge(node_id))
                self._agg_nodes[node_id] = node
                self._agg_publishers[node_id] = node.publish_tick
        for index, shard_id in enumerate(shard_ids):
            # Participants are dealt round-robin across the shards.
            shard = ShardOB(
                shard_id,
                self.mp_ids[index::n_shards],
                open_edge(shard_id),
                generation_time_of=self.ces.generation_time_of,
                straggler_threshold=self.params.straggler_threshold,
                latest_point_id=lambda: self.ces.points_generated - 1,
                eager_summaries=not tree,
            )
            self.shards.append(shard)
            for mp_id in shard.participants:
                self._shard_routing[mp_id] = shard
            if tree:
                self._agg_publishers[shard_id] = shard.publish_summary

    def _make_ob_dispatcher(
        self, mp_id: str
    ) -> Callable[[object, float, float], None]:
        """Reverse-link handler routing trades/heartbeats to the right OB.

        The target is resolved per message, not captured at build time:
        OB failover swaps ``self.ordering_buffer`` for a standby, and a
        shard failure rewrites ``self._shard_routing`` — messages already
        in flight must land on whoever owns the participant on arrival.
        The routing map, the crashed-shard set and the observer list are
        only ever mutated in place, so the handler holds them directly.
        """
        flat = self.master_ob is None
        component_id = "ob" if flat else self._shard_routing[mp_id].shard_id
        routing = self._shard_routing
        crashed_shards = self._crashed_shards
        observers = self._heartbeat_observers
        pulse_key = f"rb:{mp_id}"

        def process(message: object, send_time: float, arrival_time: float) -> None:
            # Full DeliveryHandler signature (send_time unused) so the
            # zero-service path sits directly behind the channel with no
            # adapter frame.
            detector = self.detector
            if detector is not None:
                # Any reverse-channel arrival proves this RB is alive.
                detector.pulse(pulse_key, arrival_time)
            # A crashed component processes nothing; its frozen odometers
            # are what the failure detector keys on.  Messages keep being
            # dropped until the supervisor (or a scripted recovery)
            # reroutes the participant.
            target: Union[OrderingBuffer, ShardOB]
            if flat:
                if self._ob_crashed:
                    self.messages_dropped_dead += 1
                    return
                assert self.ordering_buffer is not None
                target = self.ordering_buffer
            else:
                target = routing[mp_id]
                if target.shard_id in crashed_shards:
                    self.messages_dropped_dead += 1
                    return
            # One pass keyed on the exact type.  Heartbeats outnumber
            # trades ~4:1 at N=64 (and worse at large N): tested first.
            if type(message) is Heartbeat:
                target.on_heartbeat(message, arrival_time, arrival_time)
                for observer in observers:
                    observer(message, arrival_time)
            elif type(message) is TaggedTrade:
                target.on_tagged_trade(message, arrival_time, arrival_time)
            elif type(message) is RecoveryMarker:
                # Warm-up fence: trails this RB's resends on the FIFO
                # reverse channel, so its arrival proves the requested
                # window is fully re-delivered.
                target.on_recovery_marker(message.mp_id, arrival_time)
            else:  # pragma: no cover - wiring error
                raise TypeError(f"unexpected reverse-path message: {message!r}")

        if self.ob_service_time <= 0.0:
            return process

        # One deterministic-service server per OB component (§5.2): the
        # flat OB funnels everything through one queue; shards each own
        # one, restoring the parallelism the hierarchy buys.
        if component_id not in self._ob_service_queues:
            from repro.sim.service import ServiceQueue

            self._ob_service_queues[component_id] = ServiceQueue(
                self.engine,
                self.ob_service_time,
                handler=lambda message, completion: None,  # set per message below
                name=f"svc-{component_id}",
            )
        queue = self._ob_service_queues[component_id]
        queue.connect(lambda message, completion: process(message, completion, completion))

        def dispatch(message: object, send_time: float, arrival_time: float) -> None:
            queue.submit(message)

        return dispatch

    def _publish_batch(self, batch: MarketDataBatch) -> None:
        now = self.engine.now
        for point in batch.points:
            self.network_send_times[point.point_id] = now
        self.multicast.broadcast(batch, send_time=now)

    # ------------------------------------------------------------------
    # Failure handling (§4.2.1, §5.2) — driven by the fault injector
    # ------------------------------------------------------------------
    def failover_ob(self) -> int:
        """Crash the flat OB and immediately promote a cold standby.

        The scripted composition of :meth:`crash_ob` and
        :meth:`promote_standby`; detected mode fires only the crash half
        and lets the supervisor drive the promotion once the detector
        confirms the silence.  Returns the number of trades the dead OB
        lost.
        """
        lost = self.crash_ob()
        self.promote_standby()
        return lost

    def crash_ob(self) -> int:
        """Fail-stop the flat OB without promoting a standby.

        Every trade in its queue is lost; from here on the reverse-link
        dispatchers drop its traffic, so its odometers freeze — the
        signal the failure detector keys on.  Returns the number of
        trades lost.
        """
        if self.ordering_buffer is None:
            raise RuntimeError("OB failover requires the flat (non-sharded) deployment")
        if self._ob_crashed:
            raise RuntimeError("OB already crashed and not yet replaced")
        lost = self.ordering_buffer.crash()
        self._ob_crashed = True
        return lost

    def promote_standby(self) -> None:
        """Promote a cold standby in place of the crashed flat OB.

        The standby starts with empty queue and watermarks (rebuilt from
        the next heartbeat round) but inherits the release log — the
        matching engine is part of the durable CES platform, so which
        trades it has consumed survives the crash.

        With a retransmit policy armed, promotion runs the push-based
        warm-up: the standby holds all releases
        (:meth:`~repro.core.ordering_buffer.OrderingBuffer.begin_warmup`)
        while every live RB resends its unacked window followed by a
        :class:`~repro.exchange.messages.RecoveryMarker` on the same FIFO
        reverse channel.  When the last marker lands, the heap holds
        every recoverable trade and releases resume in stamp order —
        zero lost trades *and* no old-stamp release after a newer one,
        which is what keeps the LRTF audit clean and the trade digest
        identical to a scripted failover.  Without a policy, the queue
        contents are simply gone (the paper's stated unfairness).
        """
        if self.ordering_buffer is None:
            raise RuntimeError("OB failover requires the flat (non-sharded) deployment")
        if not self._ob_crashed:
            raise RuntimeError("no crashed OB to replace")
        old = self.ordering_buffer
        standby = self._make_ordering_buffer(self._release_sink)
        # The routing swap is immediate (dispatchers resolve per message);
        # the durable state hand-off (release log + counters) travels on
        # the "ob-adopt" channel, delivered ahead of any same-time data.
        self.ordering_buffer = standby
        self._ob_crashed = False
        if self._ob_adopt_channel is not None:
            self._ob_adopt_channel.send((old, standby), send_time=self.engine.now)
        else:  # pragma: no cover - _build always opens the channel
            standby.adopt_release_log(old.released_keys)
            standby.carry_over_counters(old)
        if self.retransmit_policy is not None:
            now = self.engine.now
            live = [
                mp_id for mp_id in self.mp_ids
                if not self._rb_by_id[mp_id].crashed
            ]
            if live:
                standby.begin_warmup(live)
                for mp_id in live:
                    self._rb_by_id[mp_id].resend_unacked(now)
                self._schedule_warmup_valve(standby)
        self.ob_failovers += 1

    def _schedule_warmup_valve(self, component: object) -> None:
        """Arm the warm-up safety valve: markers are one-shot, so a
        compound fault (the reverse channel blackholed mid-recovery) must
        not hold releases forever."""
        self.engine.schedule_after(
            self._warmup_timeout, self._warmup_valve, priority=6, args=(component,)
        )

    def _warmup_valve(self, component: object) -> None:
        component.end_warmup(self.engine.now)  # type: ignore[attr-defined]

    def _on_ob_adoption(
        self, handoff: tuple, send_time: float, arrival_time: float
    ) -> None:
        """Deliver the crashed OB's durable state to its standby."""
        old, standby = handoff
        standby.adopt_release_log(old.released_keys)
        standby.carry_over_counters(old)

    def fail_shard(self, shard_id: str) -> int:
        """Fail-stop one OB shard and immediately reroute its participants.

        The scripted composition of :meth:`crash_shard` and
        :meth:`retire_shard`; detected mode fires only the crash half and
        lets the supervisor retire the shard once the detector confirms
        the silence.  Returns the number of trades lost.
        """
        self._shard_survivors(shard_id)  # validate before killing anything
        lost = self.crash_shard(shard_id)
        self.retire_shard(shard_id)
        return lost

    def _find_shard(self, shard_id: str) -> ShardOB:
        shard = next((s for s in self.shards if s.shard_id == shard_id), None)
        if shard is None:
            raise KeyError(f"unknown shard {shard_id!r}")
        return shard

    def _shard_survivors(self, shard_id: str) -> List[ShardOB]:
        dead = self._find_shard(shard_id)
        if shard_id in self._failed_shards:
            raise RuntimeError(f"shard {shard_id!r} already failed")
        survivors = [
            s for s in self.shards
            if s is not dead and s.shard_id not in self._failed_shards
            and s.shard_id not in self._crashed_shards
        ]
        if not survivors:
            raise RuntimeError("no surviving shard to reroute participants to")
        return survivors

    def crash_shard(self, shard_id: str) -> int:
        """Fail-stop one OB shard without rerouting its participants.

        Every trade queued inside it is lost and the dispatchers drop its
        traffic from here on (frozen odometers are the detection signal).
        Returns the number of trades lost.
        """
        if self.master_ob is None:
            raise RuntimeError("shard failure requires n_ob_shards > 1")
        dead = self._find_shard(shard_id)
        if shard_id in self._failed_shards:
            raise RuntimeError(f"shard {shard_id!r} already failed")
        if shard_id in self._crashed_shards:
            raise RuntimeError(f"shard {shard_id!r} already crashed")
        lost = dead.fail()
        self._crashed_shards.add(shard_id)
        return lost

    def retire_shard(self, shard_id: str) -> int:
        """Splice a crashed shard out and reroute its orphans.

        The shard's parent stops waiting on its watermark, surviving
        shards adopt its participants round-robin, and the reverse-link
        dispatchers pick up the new routing on the next arrival.

        With a retransmit policy armed, each adopter runs the push-based
        warm-up over the orphans it inherited: it holds its releases (and
        publishes ``None`` summaries) while the orphans' RBs resend their
        unacked windows, and every stored watermark on the adopter's path
        to the master regresses to ``None``
        (:meth:`~repro.core.aggregation.HeartbeatAggregator.freeze_child`)
        so the merge cannot release above stamps the in-flight resends
        could still undercut.  Returns the number of orphans rerouted.
        """
        if self.master_ob is None:
            raise RuntimeError("shard failure requires n_ob_shards > 1")
        survivors = self._shard_survivors(shard_id)
        if shard_id not in self._crashed_shards:
            raise RuntimeError(f"shard {shard_id!r} has not crashed")
        dead = self._find_shard(shard_id)
        now = self.engine.now
        orphans = sorted(
            mp for mp, shard in self._shard_routing.items() if shard is dead
        )
        adopters: Dict[str, List[str]] = {}
        for index, mp in enumerate(orphans):
            target = survivors[index % len(survivors)]
            target.adopt_participant(mp)
            self._shard_routing[mp] = target
            adopters.setdefault(target.shard_id, []).append(mp)
        # Warm-up and path regression MUST precede splicing the dead
        # shard out of the merge: removing its frozen (low) watermark
        # raises the merge bound and would release queued live-shard
        # trades above stamps the orphans' resends still undercut.
        if self.retransmit_policy is not None and orphans:
            for adopter_id in sorted(adopters):
                adopter = self._find_shard(adopter_id)
                adopter.begin_warmup(adopters[adopter_id])
                self._regress_to_master(adopter_id)
                self._schedule_warmup_valve(adopter)
        # Whoever parents the shard stops waiting on it.
        self._resolve_agg_parent(shard_id).remove_child(shard_id, now)
        timer = self._agg_timers.pop(shard_id, None)
        if timer is not None:
            timer.cancel()
        self._crashed_shards.discard(shard_id)
        self._failed_shards.add(shard_id)
        if self.retransmit_policy is not None and orphans:
            for mp in orphans:
                rb = self._rb_by_id[mp]
                if not rb.crashed:
                    rb.resend_unacked(now)
        if self.detector is not None:
            self.detector.retire(f"shard:{shard_id}")
        self.shard_failures += 1
        return len(orphans)

    def _regress_to_master(self, child_id: str) -> None:
        """Freeze ``child_id``'s stored watermark at every ancestor up
        to the master, with a fence emitted per hop.

        A bare regression to ``None`` is insufficient twice over: (a)
        ``None`` summaries are ignored on arrival, so a regression at
        only one level would wash out at the next; (b) stale summaries
        already in flight on each edge would re-raise the regressed
        entry the moment they land.  So every ancestor *freezes* the
        path child's entry and the child emits a fence on the same FIFO
        edge — the fence trails the stale summaries and lifts the
        freeze, after which only post-adoption summaries count.
        """
        current = child_id
        while current != "master":
            self._resolve_agg_parent(current).freeze_child(current)
            self._emit_fence(current)
            current = self._agg_parent[current]

    def _emit_fence(self, child_id: str) -> None:
        """Have ``child_id`` send its freeze fence on its upstream edge."""
        node = self._agg_nodes.get(child_id) or self._find_shard(child_id)
        node.send_fence()

    def fail_aggregator(self, node_id: str) -> None:
        """Fail-stop one interior aggregation-tree node and re-parent its
        children under the dead node's own parent.

        A transparent node queues nothing, so its death loses zero trades
        — the hazard is purely on the watermark plane.  Two mechanisms
        keep the hand-over safe:

        * orphans are adopted with a ``None`` watermark, which stalls the
          adopting parent's merged minimum until each orphan's first
          post-failure summary arrives — and on the uniform-latency FIFO
          tree edges those arrive *after* every trade the dead node had
          already forwarded;
        * the dead node is retired via
          :meth:`~repro.core.aggregation.HeartbeatAggregator.reassign_child`,
          so its in-flight forwarded trades are honoured on arrival (its
          last merged watermark regresses into a surviving child as a
          belt-and-braces lower bound) while its stale summaries are
          dropped.

        Orphans re-publish immediately so the stall lasts one edge
        latency, not a full summary tick.
        """
        self.crash_aggregator(node_id)
        self.recover_aggregator(node_id)

    def crash_aggregator(self, node_id: str) -> None:
        """Fail-stop one interior tree node without re-parenting.

        The node stops merging, forwarding and publishing; its children's
        upstream traffic is dropped on arrival until a recovery
        re-parents them (frozen odometers are the detection signal).
        """
        node = self._agg_nodes.get(node_id)
        if node is None:
            raise KeyError(f"unknown aggregator {node_id!r}")
        if node.failed:
            raise RuntimeError(f"aggregator {node_id!r} already failed")
        node.fail()
        timer = self._agg_timers.pop(node_id, None)
        if timer is not None:
            timer.cancel()

    def recover_aggregator(self, node_id: str) -> None:
        """Re-parent a crashed interior node's children and re-collect.

        With a retransmit policy armed, the crash window is healed by a
        master-level warm-up: every RB under the dead node's subtree
        resends its unacked window, the resends are re-forwarded up the
        (re-parented) tree, and the master holds all releases until the
        trailing markers climb to it — so trades the dead node dropped
        rejoin the heap before anything newer releases.
        """
        node = self._agg_nodes.get(node_id)
        if node is None:
            raise KeyError(f"unknown aggregator {node_id!r}")
        if not node.failed:
            raise RuntimeError(f"aggregator {node_id!r} has not crashed")
        if node_id in self._retired_aggs:
            raise RuntimeError(f"aggregator {node_id!r} already recovered")
        assert self.master_ob is not None
        now = self.engine.now
        parent = self._resolve_agg_parent(node_id)
        parent_id = self._agg_parent[node_id]
        subtree_mps = self._subtree_mps(node_id)
        orphans = node.child_ids
        for child_id in orphans:
            self._agg_parent[child_id] = parent_id
            parent.add_child(child_id)
        into_id = next(
            child_id for child_id in parent.child_ids if child_id != node_id
        )
        parent.reassign_child(node_id, into_id, now)
        for child_id in orphans:
            self._agg_publishers[child_id]()
        self._retired_aggs.add(node_id)
        if self.retransmit_policy is not None:
            live = [
                mp_id for mp_id in subtree_mps
                if not self._rb_by_id[mp_id].crashed
            ]
            if live:
                self.master_ob.begin_warmup(live)
                for mp_id in live:
                    self._rb_by_id[mp_id].resend_unacked(now)
                self._schedule_warmup_valve(self.master_ob)
        if self.detector is not None:
            self.detector.retire(f"agg:{node_id}")
        self.aggregator_failures += 1

    def _subtree_mps(self, node_id: str) -> List[str]:
        """Participants whose reverse path climbs through ``node_id``."""
        shard_ids: set = set()
        stack = [node_id]
        while stack:
            current = stack.pop()
            interior = self._agg_nodes.get(current)
            if interior is None:
                shard_ids.add(current)
            else:
                stack.extend(interior.child_ids)
        return sorted(
            mp_id
            for mp_id, shard in self._shard_routing.items()
            if shard.shard_id in shard_ids
        )

    def _start(self, duration: float) -> None:
        self.batcher.start(0.0)
        if self.telemetry_interval is not None:
            self.telemetry = self.runtime.attach_telemetry(self.telemetry_interval)
            if self.ordering_buffer is not None:
                # Resolved per sample: a failover swaps the OB instance.
                self.telemetry.add(
                    "ob_queue_depth", lambda: self.ordering_buffer.queue_depth
                )
            for rb in self.release_buffers:
                self.telemetry.add(
                    f"rb_queue_{rb.mp_id}", lambda rb=rb: len(rb._queue)
                )
            self.telemetry.start_all(start_time=0.0)
        for index, rb in enumerate(self.release_buffers):
            # Stagger heartbeat phases so τ-periodic sends don't synchronize.
            offset = self.runtime.uniform(0.0, self.params.tau, index, 200)
            rb.start_heartbeats(start_time=offset)
        if self._agg_publishers:
            # Tree mode: one summary per node per tick, phases staggered
            # like the RB heartbeats so ticks don't synchronize.
            period = self._agg_summary_period()
            for index, node_id in enumerate(sorted(self._agg_publishers)):
                offset = self.runtime.uniform(0.0, period, index, 300)
                self._agg_timers[node_id] = self.engine.schedule_periodic(
                    offset, period, self._agg_publishers[node_id], priority=3
                )
        if self.supervise:
            self._start_supervision(duration)

    def _start_supervision(self, duration: float) -> None:
        """Arm the failure detector + supervisor (detected-mode recovery).

        Both are pure observers of existing signals — reverse-channel
        arrivals and component odometers — so a fault-free supervised run
        releases trade-for-trade identically to an unsupervised one.
        Checks and escalations stop at ``duration``: drain-phase silence
        is the feed ending, not a failure.
        """
        policy = self.supervision_policy
        assert policy is not None
        interval = (
            policy.check_interval
            if policy.check_interval is not None
            else self.params.tau
        )
        detector = FailureDetector(self.engine, policy, check_interval=interval)
        self.detector = detector
        for mp_id in self.mp_ids:
            detector.register(f"rb:{mp_id}")
        if self.master_ob is None:
            detector.register("ob", poll=self._ob_odometer)
        else:
            for shard in self.shards:
                detector.register(
                    f"shard:{shard.shard_id}",
                    poll=lambda shard=shard: float(
                        shard.heartbeats_processed + shard.summaries_published
                    ),
                )
            for node_id in sorted(self._agg_nodes):
                node = self._agg_nodes[node_id]
                detector.register(
                    f"agg:{node_id}",
                    poll=lambda node=node: float(
                        node.summaries_published + node.trades_forwarded
                    ),
                )
        detector.register("feed", poll=lambda: float(self.ces.points_generated))
        if self.egress_gateway is not None:
            gateway = self.egress_gateway
            detector.register(
                "gateway", poll=lambda: float(gateway.messages_released)
            )
        self.supervisor = Supervisor(
            self.engine, detector, policy, self._supervised_recover
        )
        # Stagger the check phase like every other periodic plane (its
        # own substream salt), so checks never synchronize with τ ticks.
        offset = self.runtime.uniform(0.0, interval, 0, 400)
        detector.start(offset, duration)
        self.supervisor.start(duration)

    def _ob_odometer(self) -> float:
        ob = self.ordering_buffer
        assert ob is not None
        return float(ob.heartbeats_processed + ob.trades_received)

    def _supervised_recover(self, endpoint: str, now: float) -> bool:
        """Recovery-action map the supervisor fires on CONFIRM_DEAD.

        Returns ``True`` when a recovery actually ran.  ``rb:{mp}`` and
        ``feed`` confirmations are recorded but have no recovery — an
        RB's pre-crash window is gone by design and the feed is external.
        """
        try:
            if endpoint == "ob":
                if self.ordering_buffer is not None and self._ob_crashed:
                    self.promote_standby()
                    if self.detector is not None:
                        # The standby inherits the endpoint; re-arm it.
                        self.detector.resume("ob", now)
                    return True
                return False
            if endpoint.startswith("shard:"):
                shard_id = endpoint[len("shard:"):]
                if shard_id in self._crashed_shards:
                    self.retire_shard(shard_id)
                    return True
                return False
            if endpoint.startswith("agg:"):
                node_id = endpoint[len("agg:"):]
                node = self._agg_nodes.get(node_id)
                if (
                    node is not None
                    and node.failed
                    and node_id not in self._retired_aggs
                ):
                    self.recover_aggregator(node_id)
                    return True
                return False
            if endpoint == "gateway":
                gateway = self.egress_gateway
                if gateway is not None and gateway.stalled:
                    gateway.resume(now)
                    if self.detector is not None:
                        self.detector.resume("gateway", now)
                    return True
                return False
            return False
        except RuntimeError:
            # A cascading failure can make recovery impossible (e.g. no
            # surviving shard to adopt orphans).  Count it, don't crash
            # the simulation: the audit surfaces it as unrecoverable.
            return False

    # ------------------------------------------------------------------
    def _raw_arrivals(self) -> Dict[str, Dict[int, float]]:
        arrivals: Dict[str, Dict[int, float]] = {}
        for rb in self.release_buffers:
            per_point: Dict[int, float] = {}
            for batch, arrival in rb.batch_arrivals:
                for point in batch.points:
                    per_point.setdefault(point.point_id, arrival)
            arrivals[rb.mp_id] = per_point
        return arrivals

    def _delivery_times(self) -> Dict[str, Dict[int, float]]:
        return {rb.mp_id: dict(rb.delivery_times) for rb in self.release_buffers}

    def _counters(self) -> Dict[str, float]:
        counters: Dict[str, float] = {
            "rb_max_queue_depth": max(rb.max_queue_depth for rb in self.release_buffers),
            "heartbeats_sent": sum(rb.heartbeats_sent for rb in self.release_buffers),
            "heartbeats_suppressed": sum(
                rb.heartbeats_suppressed for rb in self.release_buffers
            ),
            "trades_dropped_untagged": sum(
                rb.trades_dropped_untagged for rb in self.release_buffers
            ),
            "batches_closed": self.batcher.batches_closed if self.batcher else 0,
        }
        if self.sync_target_c1 is not None:
            counters["sync_targets_met"] = sum(
                rb.targets_met for rb in self.release_buffers
            )
            counters["sync_targets_missed"] = sum(
                rb.targets_missed for rb in self.release_buffers
            )
        if self.ordering_buffer is not None:
            counters["ob_heartbeats_processed"] = self.ordering_buffer.heartbeats_processed
            counters["ob_max_queue_depth"] = self.ordering_buffer.max_queue_depth
            counters["ob_stragglers_now"] = len(self.ordering_buffer.straggler_ids())
            ob = self.ordering_buffer
            if ob.trades_lost_to_crash or self.ob_failovers:
                counters["trades_lost_to_crash"] = float(ob.trades_lost_to_crash)
            if ob.retransmits_ignored:
                counters["ob_retransmits_ignored"] = float(ob.retransmits_ignored)
            if ob.straggler_ejections:
                counters["straggler_ejections"] = float(ob.straggler_ejections)
                counters["straggler_readmissions"] = float(ob.straggler_readmissions)
        if self.ob_failovers:
            counters["ob_failovers"] = float(self.ob_failovers)
        if self.retransmit_policy is not None:
            counters["trades_retransmitted"] = float(
                sum(rb.trades_retransmitted for rb in self.release_buffers)
            )
            counters["acks_received"] = float(
                sum(rb.acks_received for rb in self.release_buffers)
            )
            counters["retransmits_abandoned"] = float(
                sum(rb.retransmits_abandoned for rb in self.release_buffers)
            )
        rb_restarts = sum(rb.restarts for rb in self.release_buffers)
        if rb_restarts:
            counters["rb_restarts"] = float(rb_restarts)
            counters["batches_dropped_crashed"] = float(
                sum(rb.batches_dropped_crashed for rb in self.release_buffers)
            )
        if self.egress_gateway is not None:
            counters["gateway_messages_buffered"] = float(
                self.egress_gateway.messages_buffered
            )
            counters["gateway_messages_released"] = float(
                self.egress_gateway.messages_released
            )
            counters["gateway_pending_at_end"] = float(self.egress_gateway.pending_count)
            counters["gateway_max_hold"] = float(self.egress_gateway.max_hold)
            if self.egress_gateway.stalls:
                counters["gateway_stalls"] = float(self.egress_gateway.stalls)
        if self.risk_gate is not None:
            counters["risk_rejections"] = float(len(self.risk_gate.rejections))
            counters["risk_passed"] = float(self.risk_gate.orders_passed)
        if self._ob_service_queues:
            counters["ob_service_max_delay"] = max(
                q.max_delay for q in self._ob_service_queues.values()
            )
            counters["ob_messages_served"] = sum(
                q.messages_served for q in self._ob_service_queues.values()
            )
        if self.master_ob is not None:
            counters["master_summaries_processed"] = self.master_ob.summaries_processed
            counters["shard_heartbeats_processed"] = sum(
                shard.heartbeats_processed for shard in self.shards
            )
            if self.topology is not None and self.topology.enabled:
                # The master's entire heartbeat-plane workload: one merge
                # per child summary.  O(tree width × ticks), not O(N) —
                # the scaling benchmark pins this against heartbeats_sent.
                counters["ob_heartbeats_processed"] = float(
                    self.master_ob.summaries_processed
                )
                counters["agg_tree_width"] = float(len(self.master_ob.child_ids))
                counters["agg_tree_nodes"] = float(
                    len(self.shards) + len(self._agg_nodes)
                )
                counters["agg_summaries_published"] = float(
                    sum(shard.summaries_published for shard in self.shards)
                    + sum(
                        node.summaries_published for node in self._agg_nodes.values()
                    )
                )
                counters["agg_trades_forwarded"] = float(
                    sum(node.trades_forwarded for node in self._agg_nodes.values())
                )
                if self.aggregator_failures:
                    counters["aggregator_failures"] = float(self.aggregator_failures)
                    counters["master_late_shard_messages"] = float(
                        self.master_ob.late_child_messages
                    )
            if self.shard_failures:
                counters["shard_failures"] = float(self.shard_failures)
                counters["trades_lost_to_crash"] = float(
                    sum(shard.trades_lost_to_crash for shard in self.shards)
                )
                counters["master_late_shard_messages"] = float(
                    self.master_ob.late_child_messages
                )
            if self.master_ob.duplicates_ignored:
                counters["master_duplicates_ignored"] = float(
                    self.master_ob.duplicates_ignored
                )
        if self.messages_dropped_dead:
            counters["messages_dropped_dead"] = float(self.messages_dropped_dead)
        if self.retransmit_policy is not None:
            warmup_resent = sum(
                rb.trades_warmup_resent for rb in self.release_buffers
            )
            if warmup_resent:
                counters["trades_warmup_resent"] = float(warmup_resent)
            components: List[Union[OrderingBuffer, MasterOB, ShardOB, None]] = [
                self.ordering_buffer, self.master_ob, *self.shards
            ]
            buffers = [component for component in components if component is not None]
            holds = sum(component.warmup_holds for component in buffers)
            if holds:
                counters["warmup_holds"] = float(holds)
                counters["warmup_markers_received"] = float(
                    sum(component.warmup_markers_received for component in buffers)
                )
            timeouts = sum(component.warmup_timeouts for component in buffers)
            if timeouts:
                counters["warmup_timeouts"] = float(timeouts)
            reforwarded = sum(shard.trades_reforwarded for shard in self.shards)
            if reforwarded:
                counters["trades_reforwarded"] = float(reforwarded)
        if self.ces.feed_hiccups:
            counters["feed_hiccups"] = float(self.ces.feed_hiccups)
        if self.detector is not None:
            counters.update(self.detector.counters())
        if self.supervisor is not None:
            counters.update(self.supervisor.counters())
        return counters
