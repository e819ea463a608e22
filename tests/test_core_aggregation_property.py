"""Property-based tests for the hierarchical heartbeat aggregation tree.

The tree's contract (core/aggregation.py): folding per-child watermarks
through any tree of subtree-minimum merges is *lossless* — the root's
merged watermark equals the flat minimum over every leaf's watermark,
for arbitrary tree shapes and arbitrary (per-leaf monotone) heartbeat
interleavings.  Hypothesis drives random shapes (fanout 2–16, depth 1–4)
and interleavings; a flat single-level aggregator is the oracle.

The companion integration test pins the fault-tolerance claim: a
transparent interior node's crash (orphan re-parenting, watermark
quarantine) loses zero trades.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import HeartbeatAggregator, plan_tree
from repro.core.delivery_clock import DeliveryClockStamp


@st.composite
def tree_and_interleaving(draw):
    """A random tree shape plus a random monotone heartbeat interleaving."""
    n_leaves = draw(st.integers(1, 24))
    fanout = draw(st.integers(2, 16))
    depth = draw(st.integers(1, 4))
    leaf_ids = [f"shard-{index}" for index in range(n_leaves)]
    point = {leaf: 0 for leaf in leaf_ids}
    elapsed = {leaf: 0.0 for leaf in leaf_ids}
    events = []
    for _ in range(draw(st.integers(0, 60))):
        leaf = draw(st.sampled_from(leaf_ids))
        # Per-leaf monotone delivery-clock advance (FIFO links + a
        # monotone clock guarantee exactly this to every aggregator).
        if draw(st.booleans()):
            elapsed[leaf] += draw(st.floats(min_value=0.01, max_value=8.0))
        else:
            point[leaf] += draw(st.integers(1, 3))
            elapsed[leaf] = draw(st.floats(min_value=0.0, max_value=1.0))
        events.append((leaf, DeliveryClockStamp(point[leaf], elapsed[leaf])))
    return leaf_ids, fanout, depth, events


def build_tree(leaf_ids, fanout, depth):
    """A root + interior HeartbeatAggregators wired per plan_tree."""
    levels = plan_tree(leaf_ids, fanout, depth)
    nodes = {}
    parent_of = {}
    for level in levels:
        for node_id, children in level:
            nodes[node_id] = HeartbeatAggregator(children, node_id=node_id)
            for child in children:
                parent_of[child] = node_id
    top = [node_id for node_id, _ in levels[-1]] if levels else list(leaf_ids)
    root = HeartbeatAggregator(top, node_id="root")
    for child in top:
        parent_of[child] = "root"
    return root, nodes, parent_of


def propagate(root, nodes, parent_of, child_id, watermark):
    """Push one summary up the ancestor chain (eager re-publish)."""
    while True:
        parent_id = parent_of[child_id]
        parent = root if parent_id == "root" else nodes[parent_id]
        parent.on_child_summary(child_id, watermark, now=0.0)
        if parent is root:
            return
        child_id, watermark = parent_id, parent.subtree_watermark()


class TestMergeEqualsFlatMin:
    @given(tree_and_interleaving())
    @settings(max_examples=120, deadline=None)
    def test_eager_propagation_matches_flat_min_after_every_event(self, case):
        leaf_ids, fanout, depth, events = case
        root, nodes, parent_of = build_tree(leaf_ids, fanout, depth)
        flat = HeartbeatAggregator(leaf_ids, node_id="flat")
        for leaf, stamp in events:
            flat.on_child_summary(leaf, stamp, now=0.0)
            propagate(root, nodes, parent_of, leaf, stamp)
            assert root.subtree_watermark() == flat.subtree_watermark()

    @given(tree_and_interleaving())
    @settings(max_examples=80, deadline=None)
    def test_lagged_propagation_is_conservative_then_exact(self, case):
        # Summaries ride periodic ticks in the real system, so the root
        # may lag — but it must only ever lag *behind* (a stale merged
        # minimum stalls releases; an eager one would be unsound).
        leaf_ids, fanout, depth, events = case
        root, nodes, parent_of = build_tree(leaf_ids, fanout, depth)
        flat = HeartbeatAggregator(leaf_ids, node_id="flat")
        latest = {}
        for leaf, stamp in events:
            flat.on_child_summary(leaf, stamp, now=0.0)
            latest[leaf] = stamp
            merged = root.subtree_watermark()
            true_min = flat.subtree_watermark()
            assert merged is None or (true_min is not None and merged <= true_min)
        # One full tick everywhere: the lag closes exactly.
        for leaf, stamp in latest.items():
            propagate(root, nodes, parent_of, leaf, stamp)
        assert root.subtree_watermark() == flat.subtree_watermark()

    @given(st.integers(1, 40), st.integers(2, 16), st.integers(1, 4))
    def test_plan_tree_partitions_leaves(self, n_leaves, fanout, depth):
        leaf_ids = [f"shard-{index}" for index in range(n_leaves)]
        levels = plan_tree(leaf_ids, fanout, depth)
        below = leaf_ids
        for level in levels:
            seen = [child for _, children in level for child in children]
            # Every level covers the level below exactly once, in order.
            assert seen == below
            assert all(1 <= len(children) <= fanout for _, children in level)
            # Levels strictly shrink (degenerate 1:1 relays are pruned).
            assert len(level) < len(below)
            below = [node_id for node_id, _ in level]


def fail_aggregator(deployment, node_id):
    """Scripted recovery through the playbook table: crash, then recover."""
    endpoint = f"agg:{node_id}"
    deployment.playbooks.crash(endpoint)
    assert deployment.playbooks.recover(endpoint, deployment.engine.now)


class TestAggregatorCrashLosesNothing:
    def run_deployment(self, crash_at=None):
        from repro.baselines.base import NetworkSpec
        from repro.core.params import AggregationTopology, DBOParams
        from repro.core.system import DBODeployment
        from repro.net.latency import ConstantLatency

        specs = [
            NetworkSpec(
                forward=ConstantLatency(10.0 + i), reverse=ConstantLatency(10.0 + i)
            )
            for i in range(8)
        ]
        deployment = DBODeployment(
            specs,
            params=DBOParams(delta=20.0),
            seed=11,
            topology=AggregationTopology(fanout=2, depth=3),
        )
        if crash_at is not None:
            deployment.engine.schedule_at(
                crash_at,
                fail_aggregator,
                priority=1,
                args=(deployment, "agg1-0"),
            )
        result = deployment.run(duration=8_000.0)
        return deployment, result

    def test_interior_node_crash_loses_zero_trades(self):
        clean_deployment, clean = self.run_deployment()
        crashed_deployment, crashed = self.run_deployment(crash_at=3_000.0)
        assert crashed_deployment.playbooks.recovered["agg"] == 1
        # Zero trades lost: every submitted trade reached the matching
        # engine in both runs, and they are the same trades.
        clean_keys = sorted(
            (t.mp_id, t.trade_seq) for t in clean.trades if t.position is not None
        )
        crashed_keys = sorted(
            (t.mp_id, t.trade_seq) for t in crashed.trades if t.position is not None
        )
        assert len(clean_keys) == len(clean.trades)
        assert len(crashed_keys) == len(crashed.trades)
        assert crashed_keys == clean_keys

    def test_crash_preserves_release_safety(self):
        from repro.faults.auditor import InvariantAuditor
        from repro.baselines.base import NetworkSpec
        from repro.core.params import AggregationTopology, DBOParams
        from repro.core.system import DBODeployment
        from repro.net.latency import ConstantLatency

        specs = [
            NetworkSpec(
                forward=ConstantLatency(10.0 + i), reverse=ConstantLatency(10.0 + i)
            )
            for i in range(8)
        ]
        deployment = DBODeployment(
            specs,
            params=DBOParams(delta=20.0),
            seed=11,
            topology=AggregationTopology(fanout=2, depth=3),
        )
        auditor = InvariantAuditor()
        auditor.attach(deployment)
        deployment.engine.schedule_at(
            3_000.0, fail_aggregator, priority=1, args=(deployment, "agg1-0")
        )
        deployment.run(duration=8_000.0)
        report = auditor.report()
        assert report.ok
        assert report.safety_violations == []
