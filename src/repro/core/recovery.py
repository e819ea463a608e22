"""Crash/recover playbooks: one table for the injector and the supervisor.

The paper's failure handling (§4.2.1's standby OB, §5.2's shard
hierarchy) is one idea: crash a component, then reroute around it or
promote a replacement.  :class:`RecoveryPlaybooks` holds one row per
failure-detector endpoint kind — ``ob``, ``shard:{id}``, ``agg:{id}``,
``gateway`` — each a crash half (returns the trades lost) and a recover
half.  The fault injector fires the crash and, in scripted mode, the
recovery; in detected mode the :class:`~repro.core.supervisor.Supervisor`
calls :meth:`RecoveryPlaybooks.recover` once the detector confirms the
silence.  Both modes run the same code, so they converge on one digest.
While an endpoint is down the reverse-link dispatchers drop its traffic;
its frozen odometers are the detection signal.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Any, Callable, Dict, FrozenSet, List, Set, Tuple

from repro.core.params import SupervisionPolicy

if TYPE_CHECKING:
    from repro.core.aggregation import ForwardingAggregator
    from repro.core.gateway import EgressGateway
    from repro.core.ordering_buffer import OrderingBuffer, WarmupHold
    from repro.core.sharded_ob import ShardOB
    from repro.core.system import DBODeployment

__all__ = ["RecoveryPlaybooks"]

# (component to hold, participants whose RBs resend, now) -> whether any RB resends.
WarmUp = Callable[["WarmupHold", List[str], float], bool]


class RecoveryPlaybooks:
    """The crash/recover table of one :class:`~repro.core.system.DBODeployment`.

    ``kinds`` are the endpoint kinds the deployment can crash, fixed by
    its constructor so that they are known before the build; each row
    acts on the component ``deployment.endpoints`` maps its endpoint to.
    ``down`` holds the endpoints crashed and not yet recovered; ``retired``
    the shards and interior nodes spliced out for good.  ``recovered``
    counts the recoveries run per endpoint kind.
    """

    def __init__(self, deployment: "DBODeployment", kinds: FrozenSet[str]) -> None:
        self._deployment = deployment
        self.kinds = kinds
        self.down: Set[str] = set()
        self.retired: Set[str] = set()
        self.recovered: Counter[str] = Counter()
        # Bound once at build to push_warm_up when a retransmit policy is
        # set.  Otherwise nothing is resent and a crashed queue is simply
        # gone — the unfairness §4.2.1 accepts.
        self.warm_up: WarmUp = lambda component, mp_ids, now: False
        self._rows: Dict[str, Tuple[Callable[[Any], int], Callable[[Any, float], bool]]] = {
            "ob": (self._crash_buffer, self._promote_standby),
            "shard": (self._crash_buffer, self._retire_shard),
            "agg": (self._crash_aggregator, self._recover_aggregator),
            "gateway": (self._stall_gateway, self._resume_gateway),
        }

    def _resolve(self, endpoint: str) -> Tuple[str, Any]:
        kind = endpoint.partition(":")[0]
        if kind not in self.kinds:
            raise RuntimeError(f"this deployment has no {kind!r} endpoint to fail")
        component = self._deployment.endpoints.get(endpoint)
        if component is None:
            raise KeyError(f"unknown endpoint {endpoint!r}")
        return kind, component

    # ------------------------------------------------------------------
    def crash(self, endpoint: str) -> int:
        """Fail-stop ``endpoint`` without recovering it; returns trades lost."""
        kind, component = self._resolve(endpoint)
        if endpoint in self.down or endpoint in self.retired:
            raise RuntimeError(f"{endpoint!r} is already down")
        lost = self._rows[kind][0](component)
        self.down.add(endpoint)
        return lost

    def recover(self, endpoint: str, now: float) -> bool:
        """Run ``endpoint``'s recover half: the supervisor's recovery action.

        ``False`` when none can run: the detector's ``rb:{mp}`` and
        ``feed`` have no row (an RB's pre-crash window is gone by design,
        the feed is external), or no shard survives to adopt the orphans.
        """
        if endpoint.partition(":")[0] not in self._rows:
            return False
        kind, component = self._resolve(endpoint)
        if endpoint not in self.down:
            raise RuntimeError(f"{endpoint!r} is not down")
        if not self._rows[kind][1](component, now):
            return False
        self.down.discard(endpoint)
        self.recovered[kind] += 1
        detector = self._deployment.detector
        if kind in ("shard", "agg"):
            # Spliced out for good: nothing is left to monitor.
            self.retired.add(endpoint)
            if detector is not None:
                detector.retire(endpoint)
        elif detector is not None:
            # The standby (or the resumed gateway) inherits the endpoint.
            detector.resume(endpoint, now)
        return True

    def push_warm_up(self, component: "WarmupHold", mp_ids: List[str], now: float) -> bool:
        """Hold ``component``'s releases until the live RBs among ``mp_ids``
        have resent their unacked windows; returns whether any RB resends.

        Each RB's :class:`~repro.exchange.messages.RecoveryMarker` trails
        its resends on the same FIFO reverse channel, so when the last
        marker lands the component holds every recoverable trade and
        releases resume in stamp order: zero lost trades and no old-stamp
        release after a newer one.  Markers are one-shot, so a safety
        valve lifts the hold after the policy's warm-up timeout — a
        compound fault (the reverse channel blackholed mid-recovery) must
        not hold releases forever.
        """
        deployment = self._deployment
        buffers = deployment._rb_by_id
        live = [mp_id for mp_id in mp_ids if not buffers[mp_id].crashed]
        if not live:
            return False
        component.begin_warmup(live)
        for mp_id in live:
            buffers[mp_id].resend_unacked(now)
        engine = deployment.engine
        timeout = (deployment.supervision_policy or SupervisionPolicy()).warmup_timeout
        engine.schedule_after(
            timeout, lambda: component.end_warmup(engine.now), priority=6
        )
        return True

    # ----- ob: §4.2.1's standby ----------------------------------------
    @staticmethod
    def _crash_buffer(buffer: "OrderingBuffer") -> int:
        """The flat OB or a shard fail-stops, losing its queue."""
        return buffer.crash()

    def _promote_standby(self, old: "OrderingBuffer", now: float) -> bool:
        """The standby starts with an empty queue and watermarks (rebuilt
        from the next heartbeat round) but inherits the release log: the
        matching engine is part of the durable CES platform.  The routing
        swap is immediate (dispatchers resolve per message); the durable
        hand-off rides the ``ob-adopt`` channel, ahead of same-time data.
        """
        deployment = self._deployment
        standby = deployment._make_ordering_buffer(deployment._release_sink)
        deployment._install_ob(standby)
        assert deployment._ob_adopt_channel is not None
        deployment._ob_adopt_channel.send((old, standby), send_time=now)
        self.warm_up(standby, deployment.mp_ids, now)
        return True

    # ----- shard:{id}: §5.2's hierarchy ---------------------------------
    def _retire_shard(self, dead: "ShardOB", now: float) -> bool:
        """Surviving shards adopt the orphans round-robin; the dispatchers
        pick up the new routing on the next arrival.

        Each adopter warms up over the orphans it inherited, publishing
        ``None`` summaries meanwhile, and every stored watermark on its
        path to the master freezes (:meth:`_regress_to_master`) so the
        merge cannot release above stamps that the orphans' in-flight
        trades or resends could still undercut.  The freeze runs with or
        without a retransmit policy: without one, what remains of
        §4.2.1's "will incur unfairness" is that the dead shard's queue
        is lost, not that the adopter releases out of stamp order.
        """
        deployment = self._deployment
        survivors = [
            shard for shard in deployment.shards
            if shard.endpoint not in self.down and shard.endpoint not in self.retired
        ]
        if not survivors:
            return False
        routing = deployment.ob_routing
        orphans = sorted(mp_id for mp_id, shard in routing.items() if shard is dead)
        adopted: Dict[str, List[str]] = {}
        for index, mp_id in enumerate(orphans):
            adopter = survivors[index % len(survivors)]
            adopter.add_participant(mp_id)
            routing[mp_id] = adopter
            adopted.setdefault(adopter.endpoint, []).append(mp_id)
        # Warm-up and path regression MUST precede splicing the dead
        # shard out of the merge: removing its frozen (low) watermark
        # raises the merge bound and would release queued live-shard
        # trades above stamps the orphans' resends still undercut.
        for endpoint in sorted(adopted):
            adopter = deployment.endpoints[endpoint]
            self.warm_up(adopter, adopted[endpoint], now)
            self._regress_to_master(adopter.shard_id, adopter)
        deployment._agg_parent[dead.shard_id].remove_child(dead.shard_id, now)
        self._cancel_summary_timer(dead.shard_id)
        return True

    def _regress_to_master(self, child_id: str, child: Any) -> None:
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
        parents = self._deployment._agg_parent
        while child_id != "master":
            parent = parents[child_id]
            parent.freeze_child(child_id)
            child.send_fence()
            child_id, child = parent.node_id, parent

    # ----- agg:{id}: interior aggregation-tree nodes --------------------
    def _crash_aggregator(self, node: "ForwardingAggregator") -> int:
        """The node stops merging, forwarding and publishing; a transparent
        node queues nothing, so its death loses no trades."""
        node.fail()
        self._cancel_summary_timer(node.node_id)
        return 0

    def _recover_aggregator(self, node: "ForwardingAggregator", now: float) -> bool:
        """Re-parent the dead node's children under its own parent.

        Orphans join with a ``None`` watermark, stalling the parent's
        merged minimum until each orphan's first post-failure summary —
        which, on FIFO tree edges, trails every trade the dead node had
        already forwarded.  The dead node is retired via
        :meth:`~repro.core.aggregation.HeartbeatAggregator.reassign_child`,
        so its in-flight forwards are honoured and its stale summaries
        dropped; orphans re-publish at once so the stall lasts one edge
        latency.  The crash window is healed by a master-level warm-up
        over every RB in the dead node's subtree.
        """
        deployment = self._deployment
        parents = deployment._agg_parent
        parent = parents[node.node_id]
        subtree_mps = self._subtree_mps(node)
        orphans = node.child_ids
        for child_id in orphans:
            parents[child_id] = parent
            parent.add_child(child_id)
        into_id = next(child_id for child_id in parent.child_ids if child_id != node.node_id)
        parent.reassign_child(node.node_id, into_id, now)
        for child_id in orphans:
            deployment._agg_publishers[child_id]()
        assert deployment.master_ob is not None
        self.warm_up(deployment.master_ob, subtree_mps, now)
        return True

    def _subtree_mps(self, node: "ForwardingAggregator") -> List[str]:
        """Participants whose reverse path climbs through ``node``."""
        endpoints = self._deployment.endpoints
        leaves: Set[str] = set()
        stack = list(node.child_ids)
        while stack:
            current = stack.pop()
            interior = endpoints.get(f"agg:{current}")
            if interior is None:
                leaves.add(f"shard:{current}")
            else:
                stack.extend(interior.child_ids)
        return sorted(
            mp_id
            for mp_id, shard in self._deployment.ob_routing.items()
            if shard.endpoint in leaves
        )

    def _cancel_summary_timer(self, node_id: str) -> None:
        timer = self._deployment._agg_timers.pop(node_id, None)
        if timer is not None:
            timer.cancel()

    # ----- gateway: the egress gateway ----------------------------------
    def _stall_gateway(self, gateway: "EgressGateway") -> int:
        gateway.stall()
        return 0

    def _resume_gateway(self, gateway: "EgressGateway", now: float) -> bool:
        gateway.resume(now)
        return True
