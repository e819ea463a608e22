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

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

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
from repro.core.ordering_buffer import OrderingBuffer, ProbOrderingBuffer, ReleaseSink, WarmupHold
from repro.core.params import AggregationTopology, DBOParams, SupervisionPolicy
from repro.core.recovery import RecoveryPlaybooks
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
from repro.ordering.prob import ProbabilisticPolicy
from repro.participants.response_time import ResponseTimeModel
from repro.participants.strategies import Strategy
from repro.sim.clocks import SynchronizedClock
from repro.sim.engine import PeriodicTimer
from repro.sim.runtime import Runtime

if TYPE_CHECKING:
    from repro.exchange.messages import TradeOrder

__all__ = ["DBODeployment"]


def _batch_id(batch: MarketDataBatch) -> int:
    """Dedup key of the forward data path: batch ids are unique."""
    return batch.batch_id


class DBODeployment(BaseDeployment):
    """A runnable DBO system over a simulated cloud network.

    Parameters beyond :class:`~repro.baselines.base.BaseDeployment`:

    params:
        δ, κ, τ and the straggler threshold.
    n_ob_shards:
        1 (default) uses a single ordering buffer; >1 builds the §5.2
        hierarchy with a master merger.  At least 1, and at most the
        number of participants unless a topology is enabled (which
        clamps it, and picks one shard per ``fanout`` participants
        when left at 1).
    shard_master_latency:
        ``None`` (default): shards are threads on the master's host and
        forward by direct call.  A latency model: each shard is a
        standalone VM whose forwards ride a faultable
        ``"{shard}->master"`` channel (in tree mode: the latency of the
        ``"agg-{node}"`` edges).
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
    horizon:
        ``None`` (default): DBO's watermark rule.  A confidence hold ``h``
        in µs: the ``prob`` scheme, whose
        :class:`~repro.core.ordering_buffer.ProbOrderingBuffer` releases
        each trade ``h`` after its arrival.  Flat OB only.

    The constructor decides the ordering plane's shape (``topology`` is
    ``None`` unless enabled, ``n_ob_shards`` resolved) and so
    ``playbooks.kinds``; the build fills ``endpoints`` (endpoint name →
    component: ``ob``, ``shard:{id}``, ``agg:{id}``, ``gateway``) and
    ``ob_routing`` (participant → its buffer), the two maps every
    reader shares.

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
        seed: int = 0,
        rb_clock_drift: float = 1e-4,
        n_ob_shards: int = 1,
        shard_master_latency: Optional[LatencyModel] = None,
        topology: Optional[AggregationTopology] = None,
        disable_batching: bool = False,
        disable_pacing: bool = False,
        sync_target_c1: Optional[float] = None,
        sync_error: float = 0.0,
        ob_service_time: float = 0.0,
        retransmit_policy: Optional[RetransmitPolicy] = None,
        enable_egress_gateway: bool = False,
        supervise: bool = False,
        supervision_policy: Optional[SupervisionPolicy] = None,
        runtime: Optional[Runtime] = None,
        horizon: Optional[float] = None,
    ) -> None:
        # The ordering-plane shape is decided here, once: a depth-0
        # topology is no topology, and the shard count is resolved below.
        if topology is not None and not topology.enabled:
            topology = None
        if n_ob_shards < 1:
            raise ValueError("n_ob_shards must be at least 1")
        if horizon is not None:
            if n_ob_shards > 1:
                raise ValueError("prob supports only the flat (non-sharded) ordering buffer")
            if topology is not None:
                raise ValueError("prob does not support aggregation-tree mode")
            horizon = ProbabilisticPolicy.checked_horizon(horizon)
            self.scheme_name = "prob"
            self.ordering_guarantee = "probabilistic"
        self.horizon = horizon
        super().__init__(
            specs,
            feed_config=feed_config,
            response_time_model=response_time_model,
            strategy_factory=strategy_factory,
            execute_trades=execute_trades,
            seed=seed,
            rb_clock_drift=rb_clock_drift,
            runtime=runtime,
        )
        self.params = params if params is not None else DBOParams()
        n_participants = len(self.mp_ids)
        if topology is not None:
            if n_ob_shards == 1:
                n_ob_shards = topology.n_shards_for(n_participants)
            n_ob_shards = min(n_ob_shards, n_participants)
        elif n_ob_shards > n_participants:
            raise ValueError("more shards than participants")
        self.n_ob_shards = n_ob_shards
        self.shard_master_latency = shard_master_latency
        self.topology = topology
        # The built ordering plane, in two maps every reader shares and
        # failover or shard adoption rewrite in place: endpoint name →
        # component, and participant → the buffer it reports to.
        self.endpoints: Dict[str, Any] = {}
        self.ob_routing: Dict[str, OrderingBuffer] = {}
        # Shard plane only: every shard's and interior node's parent node
        # (re-parenting on node crash must redirect in-flight channel
        # arrivals) and, in tree mode, per-node summary timers and
        # "publish now" hooks for orphan re-reports.
        self._agg_parent: Dict[str, Union[MasterOB, ForwardingAggregator]] = {}
        self._agg_timers: Dict[str, PeriodicTimer] = {}
        self._agg_publishers: Dict[str, Callable[[], None]] = {}
        self.disable_batching = disable_batching
        self.disable_pacing = disable_pacing
        self.sync_target_c1 = sync_target_c1
        self.sync_error = sync_error
        # §5.2 bottleneck modeling: per-message OB processing time.  With
        # a flat OB one server handles every trade and heartbeat; with
        # shards each shard gets its own server and the master only sees
        # the (filtered) shard output.
        self.ob_service_time = ob_service_time
        self._ob_service_queues: Dict[str, object] = {}
        self.release_buffers: List[ReleaseBuffer] = []
        self.master_ob: Optional[MasterOB] = None
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
        # The composed release sink (ME + observers); standby
        # OBs built on failover reuse it unchanged.
        self._release_sink = None
        # Observation hooks called as (tagged, now) on every release and
        # (heartbeat, arrival) on every OB-bound heartbeat — the invariant
        # auditor taps the pipeline here without touching the data path.
        # Appending is allowed any time before run(); _build appends the
        # release acks last.
        self._release_observers: List[Callable[[TaggedTrade, float], None]] = []
        self._heartbeat_observers: List[Callable[[Heartbeat, float], None]] = []
        # ----- failure handling (§4.2.1, §5.2) ----------------------------
        # One crash/recover table keyed by endpoint name, driven by the
        # fault injector and, with ``supervise``, by the supervisor once
        # the deterministic failure detector confirms a silence.
        kinds = {"shard"} if topology is not None or n_ob_shards > 1 else {"ob"}
        if topology is not None and topology.depth >= 2:
            kinds.add("agg")
        if enable_egress_gateway:
            kinds.add("gateway")
        self.playbooks = RecoveryPlaybooks(self, frozenset(kinds))
        self.supervise = supervise
        if supervision_policy is None and supervise:
            supervision_policy = SupervisionPolicy()
        self.supervision_policy = supervision_policy
        self.detector: Optional[FailureDetector] = None
        self.supervisor: Optional[Supervisor] = None
        self.messages_dropped_dead = 0

    # ------------------------------------------------------------------
    @property
    def ordering_buffer(self) -> Optional[OrderingBuffer]:
        """The flat OB (``None`` on a shard plane); failover swaps it."""
        return self.endpoints.get("ob")

    @property
    def shards(self) -> List[ShardOB]:
        """The shard plane's leaves, in build order."""
        return [c for c in self.endpoints.values() if isinstance(c, ShardOB)]

    def _install_ob(self, ob: OrderingBuffer) -> None:
        """Make ``ob`` the flat plane's buffer in both maps."""
        if self.retransmit_policy is not None:
            ob.reack = self._send_ack
        self.endpoints["ob"] = ob
        self.ob_routing.update(dict.fromkeys(self.mp_ids, ob))

    def live_buffers(self) -> List[Tuple[str, Union[OrderingBuffer, MasterOB]]]:
        """The releasing root, then the shards not retired, by report name."""
        roots: Dict[str, Union[OrderingBuffer, MasterOB, None]] = {
            "ob": self.ordering_buffer, "master": self.master_ob
        }
        retired = self.playbooks.retired
        return [(name, root) for name, root in roots.items() if root is not None] + [
            (shard.shard_id, shard) for shard in self.shards if shard.endpoint not in retired
        ]

    def _make_ordering_buffer(self, sink: ReleaseSink) -> OrderingBuffer:
        """Construct the flat ordering buffer (also used for standbys):
        the watermark rule, or with a ``horizon`` the ``prob`` rule."""
        make: Callable[..., OrderingBuffer] = (
            OrderingBuffer
            if self.horizon is None
            else partial(ProbOrderingBuffer, engine=self.engine, horizon=self.horizon)
        )
        return make(
            participants=list(self.mp_ids),
            sink=sink,
            generation_time_of=self.ces.generation_time_of,
            straggler_threshold=self.params.straggler_threshold,
            latest_point_id=lambda: self.ces.points_generated - 1,
        )

    def _build(self) -> None:
        params = self.params
        me = self.ces.matching_engine

        def release_sink(tagged: TaggedTrade, now: float) -> None:
            me.submit(tagged.trade, forward_time=now)
            for observer in self._release_observers:
                observer(tagged, now)

        self._release_sink = release_sink

        if "ob" in self.playbooks.kinds:
            self._install_ob(self._make_ordering_buffer(release_sink))
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
            self.endpoints["gateway"] = self.egress_gateway
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

        pacing_gap = 1e-9 if self.disable_pacing else params.delta
        rb_class = ReleaseBuffer if self.sync_target_c1 is None else SyncAssistedReleaseBuffer
        for index, spec in enumerate(self.specs):
            mp_id = self.mp_ids[index]
            sync_kwargs: Dict[str, Any] = {}
            if self.sync_target_c1 is not None:
                sync_kwargs = dict(
                    sync_clock=SynchronizedClock(
                        error_bound=self.sync_error, seed=self.runtime.u64(500 + index)
                    ),
                    target_delay=self.sync_target_c1,
                )
            rb = rb_class(
                self.engine,
                mp_id=mp_id,
                pacing_gap=pacing_gap,
                heartbeat_period=params.tau,
                local_clock=self._make_rb_clock(index),
                rb_to_mp=spec.rb_to_mp,
                retransmit_policy=self.retransmit_policy,
                **sync_kwargs,
            )
            self.release_buffers.append(rb)
            self._rb_by_id[mp_id] = rb

            # Forward data path: CES batches to this RB.  Batch ids are
            # unique, so channel-level dedup makes duplicate delivery a
            # no-op for the data plane.
            forward = self._open_channel(
                index,
                "forward",
                source="ces",
                destination=mp_id,
                dedup_key=_batch_id,
                handler=rb.on_batch,
                loss_handler=rb.on_recovered_batch,
            )
            self.multicast.add_member(mp_id, forward)

            # Reverse path: trades and heartbeats share one FIFO channel
            # (that sharing is what makes a heartbeat a progress proof).
            # No channel dedup — the OB's key-dedup owns at-least-once
            # semantics here, and heartbeats are idempotent.
            reverse = self._open_channel(
                index,
                "reverse",
                source=mp_id,
                destination="ob",
                handler=self._make_ob_dispatcher(mp_id),
            )
            self.reverse_channels[mp_id] = reverse

            send = reverse.send
            rb.connect_ob(trade_sink=send, heartbeat_sink=send, marker_sink=send)

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

        # Retransmission is decided here, once.  Unarmed, a recovered
        # component starts cold.  Armed, every release is acked back to
        # its RB so it stops guarding the trade, and recovery warms up
        # from the RBs' unacked windows.
        policy = self.retransmit_policy
        if policy is None:
            return
        for mp_id, rb in self._rb_by_id.items():
            # A real message on a named channel, so burst loss and
            # partitions can eat it — which is what drives retransmission.
            # Delivery priority 5 keeps the historical ordering against
            # same-time data events.
            self._ack_channels[mp_id] = self._open_control_channel(
                f"ack-{mp_id}",
                ConstantLatency(policy.ack_latency),
                source="ob",
                destination=mp_id,
                handler=lambda key, sent, arrival, rb=rb: rb.on_ack(key),
                priority=5,
            )
        self._release_observers.append(self._send_ack)
        if self.master_ob is not None:
            self.master_ob.reack = self._send_ack
        self.playbooks.warm_up = self.playbooks.push_warm_up

    def _send_ack(self, tagged: TaggedTrade, now: float) -> None:
        """Tell ``tagged``'s RB that the releasing root has released it."""
        self._ack_channels[tagged.trade.mp_id].send(tagged.trade.key, send_time=now)

    def _build_shard_plane(
        self, release_sink: Callable[[TaggedTrade, float], None]
    ) -> None:
        """Wire shards, interior aggregators and the master (§5.2).

        RB heartbeats always arrive per participant at their leaf shard
        (the delivery-clock data path is untouched); the topology decides
        the summary plane above the shards:

        * no topology — the paper's eager two-level hierarchy:
          shards sit directly under the master and publish a summary
          after every message, over a direct call or, with
          ``shard_master_latency`` set, the ``{shard}->master`` channel;
        * ``depth ≥ 1`` — the batched tree: each node re-publishes its
          subtree-minimum watermark once per tick over its own faultable
          ``agg-{node}`` channel, so every parent — the master included —
          does O(children) heartbeat work per tick regardless of N.
        """
        topology = self.topology
        tree = topology is not None
        edge_model = self.shard_master_latency
        if tree and edge_model is None:
            edge_model = ConstantLatency(0.0)
        shard_ids = [f"shard-{index}" for index in range(self.n_ob_shards)]
        levels = plan_tree(shard_ids, topology.fanout, topology.depth) if tree else []
        master_children = [node_id for node_id, _ in levels[-1]] if levels else shard_ids
        # With shards directly under the master the children release in
        # stamp order, so the master keeps the §5.2 min2 self-exception;
        # transparent interior nodes interleave streams, so deeper trees
        # bound every release by the global minimum.
        self.master_ob = master = MasterOB(
            master_children, sink=release_sink, releasing_children=not levels
        )
        engine, parents = self.engine, self._agg_parent
        parents.update(dict.fromkeys(master_children, master))

        def open_edge(child_id: str) -> UpstreamSend:
            if edge_model is None:
                # Shards as threads on the master's host: no hop to fault,
                # and nothing in flight for a re-parenting to redirect.
                return lambda message: deliver_upstream(
                    master, child_id, message, engine.now
                )
            # Master-side key-dedup owns at-least-once semantics, so the
            # channel itself carries no dedup hook.  The parent is looked
            # up per arrival: a node crash re-parents its children, and
            # messages already in flight must land on the adopter.
            return self._open_control_channel(
                f"agg-{child_id}" if tree else f"{child_id}->master",
                edge_model,
                source=child_id,
                destination=parents[child_id].node_id if tree else "master-ob",
                handler=lambda message, send_time, arrival_time: deliver_upstream(
                    parents[child_id], child_id, message, arrival_time
                ),
            ).send

        # Top down, so that every node's parent exists when its edge opens.
        for level in reversed(levels):
            for node_id, children in level:
                node = ForwardingAggregator(node_id, children, open_edge(node_id))
                self.endpoints[node.endpoint] = node
                self._agg_publishers[node_id] = node.publish_tick
                parents.update(dict.fromkeys(children, node))
        for index, shard_id in enumerate(shard_ids):
            # Participants are dealt round-robin across the shards.
            shard = ShardOB(
                shard_id,
                self.mp_ids[index::self.n_ob_shards],
                open_edge(shard_id),
                generation_time_of=self.ces.generation_time_of,
                straggler_threshold=self.params.straggler_threshold,
                latest_point_id=lambda: self.ces.points_generated - 1,
                eager_summaries=not tree,
            )
            self.endpoints[shard.endpoint] = shard
            self.ob_routing.update(dict.fromkeys(shard.states, shard))
            if tree:
                self._agg_publishers[shard_id] = shard.publish_summary

    def _make_ob_dispatcher(
        self, mp_id: str
    ) -> Callable[[object, float, float], None]:
        """Reverse-link handler routing trades/heartbeats to the right OB.

        The target is resolved per message, not captured at build time:
        OB failover and a shard failure both rewrite ``self.ob_routing`` —
        messages already in flight must land on whoever owns the
        participant on arrival.  The routing map, the recovery table's
        down-set and the observer list are only ever mutated in place, so
        the handler holds them directly.
        """
        routing = self.ob_routing
        down = self.playbooks.down
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
            target = routing[mp_id]
            if target.endpoint in down:
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
        # Participants share their component's queue, so each queued
        # item carries its sender's handler: the detector pulse and the
        # routing lookup are per participant.
        component_id = routing[mp_id].endpoint
        if component_id not in self._ob_service_queues:
            from repro.sim.service import ServiceQueue

            self._ob_service_queues[component_id] = ServiceQueue(
                self.engine,
                self.ob_service_time,
                handler=lambda item, completion: item[0](item[1], completion, completion),
                name=f"svc-{component_id}",
            )
        queue = self._ob_service_queues[component_id]

        def dispatch(message: object, send_time: float, arrival_time: float) -> None:
            queue.submit((process, message))

        return dispatch

    def _publish_batch(self, batch: MarketDataBatch) -> None:
        now = self.engine.now
        for point in batch.points:
            self.network_send_times[point.point_id] = now
        self.multicast.broadcast(batch, send_time=now)

    def _on_ob_adoption(
        self, handoff: tuple, send_time: float, arrival_time: float
    ) -> None:
        """Deliver the crashed OB's durable state to its standby."""
        old, standby = handoff
        standby.adopt_release_log(old.released_keys)
        standby.carry_over_counters(old)

    def _start(self, duration: float) -> None:
        self.batcher.start(0.0)
        for index, rb in enumerate(self.release_buffers):
            # Stagger heartbeat phases so τ-periodic sends don't synchronize.
            offset = self.runtime.uniform(0.0, self.params.tau, index, 200)
            rb.start_heartbeats(start_time=offset)
        if self.topology is not None:
            # Tree mode: one summary per node per tick, phases staggered
            # like the RB heartbeats so ticks don't synchronize.
            period = self.params.tau
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
        detector.register("feed", poll=lambda: float(self.ces.points_generated))
        for endpoint in self.endpoints:
            # Resolved per sample: a failover swaps the OB instance.
            detector.register(endpoint, poll=lambda e=endpoint: self.endpoints[e].odometer())
        self.supervisor = Supervisor(
            self.engine, detector, policy, self.playbooks.recover
        )
        # Stagger the check phase like every other periodic plane (its
        # own substream salt), so checks never synchronize with τ ticks.
        offset = self.runtime.uniform(0.0, interval, 0, 400)
        detector.start(offset, duration)
        self.supervisor.start(duration)

    def _settled(self) -> bool:
        # An open batch window is closed by the batcher's periodic window
        # timer, which the base predicate counts as idle.
        batcher = self.batcher
        return (batcher is None or not batcher.pending_count) and super()._settled()

    def _idle_message(self, message: object) -> bool:
        """Heartbeats and upstream watermark summaries: once every trade
        is forwarded they only prove that nothing lower-stamped is still
        in flight (§4.1.3), which can release nothing more."""
        return type(message) is Heartbeat or (
            type(message) is tuple and message[0] == "summary"
        )

    # ------------------------------------------------------------------
    # The RBs' own series, handed over: a finished run records no more.
    def _raw_arrivals(self) -> Dict[str, Mapping[int, float]]:
        return {rb.mp_id: rb.raw_arrivals for rb in self.release_buffers}

    def _delivery_times(self) -> Dict[str, Mapping[int, float]]:
        return {rb.mp_id: rb.delivery_times for rb in self.release_buffers}

    def _counters(self) -> Dict[str, float]:
        recovered = self.playbooks.recovered
        counters: Dict[str, float] = {
            "rb_max_queue_depth": max(rb.max_queue_depth for rb in self.release_buffers),
            "heartbeats_sent": sum(rb.heartbeats_sent for rb in self.release_buffers),
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
        ob = self.ordering_buffer
        if ob is not None:
            counters["ob_heartbeats_processed"] = ob.heartbeats_processed
            counters["ob_max_queue_depth"] = ob.max_queue_depth
            counters["ob_stragglers_now"] = len(ob.straggler_ids())
            if ob.trades_lost_to_crash or recovered["ob"]:
                counters["trades_lost_to_crash"] = float(ob.trades_lost_to_crash)
            if ob.retransmits_ignored:
                counters["ob_retransmits_ignored"] = float(ob.retransmits_ignored)
            if ob.straggler_ejections:
                counters["straggler_ejections"] = float(ob.straggler_ejections)
                counters["straggler_readmissions"] = float(ob.straggler_readmissions)
        if recovered["ob"]:
            counters["ob_failovers"] = float(recovered["ob"])
        if self._ack_channels:  # retransmission armed at build
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
            if self.topology is not None:
                agg_nodes = [n for n in self.endpoints.values() if isinstance(n, ForwardingAggregator)]
                # The master's entire heartbeat-plane workload: one merge
                # per child summary.  O(tree width × ticks), not O(N) —
                # the scaling benchmark pins this against heartbeats_sent.
                counters["ob_heartbeats_processed"] = float(
                    self.master_ob.summaries_processed
                )
                counters["agg_tree_width"] = float(len(self.master_ob.child_ids))
                counters["agg_tree_nodes"] = float(len(self.shards) + len(agg_nodes))
                counters["agg_summaries_published"] = float(
                    sum(shard.summaries_published for shard in self.shards)
                    + sum(node.summaries_published for node in agg_nodes)
                )
                counters["agg_trades_forwarded"] = float(
                    sum(node.trades_forwarded for node in agg_nodes)
                )
                if recovered["agg"]:
                    counters["aggregator_failures"] = float(recovered["agg"])
                    counters["master_late_shard_messages"] = float(
                        self.master_ob.late_child_messages
                    )
            if recovered["shard"]:
                counters["shard_failures"] = float(recovered["shard"])
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
        if self._ack_channels:
            warmup_resent = sum(
                rb.trades_warmup_resent for rb in self.release_buffers
            )
            if warmup_resent:
                counters["trades_warmup_resent"] = float(warmup_resent)
            buffers = [c for c in (self.master_ob, *self.endpoints.values()) if isinstance(c, WarmupHold)]
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
        if isinstance(ob, ProbOrderingBuffer):
            counters["ordering_inversions"] = float(ob.ordering_inversions)
            counters["ob_trades_released"] = float(ob.trades_released)
        return counters
