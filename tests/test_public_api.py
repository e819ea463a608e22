"""Public-API integrity: exports resolve, __all__ lists are honest."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.net",
    "repro.exchange",
    "repro.participants",
    "repro.core",
    "repro.baselines",
    "repro.metrics",
    "repro.theory",
    "repro.analysis",
    "repro.experiments",
    "repro.parallel",
    "repro.lint",
    "repro.ordering",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_entries_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} has no __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("package", PACKAGES)
def test_no_duplicate_all_entries(package):
    module = importlib.import_module(package)
    assert len(module.__all__) == len(set(module.__all__))


def test_sim_exports_one_production_scheduler():
    import repro.sim

    engines = {name for name in repro.sim.__all__ if name.endswith("Engine")}
    assert engines == {"EventEngine", "HeapEventEngine", "ReferenceHeapEngine"}
    assert repro.sim.EventEngine is repro.sim.HeapEventEngine
    for removed in ("BucketWheelEngine", "CalendarQueueEngine"):
        assert not hasattr(repro.sim, removed)


def test_core_exports_one_shard_plane():
    import inspect

    import repro.core
    import repro.core.aggregation
    import repro.core.sharded_ob

    assert repro.core.sharded_ob.__all__ == ["ShardOB"]
    assert not hasattr(repro.core, "build_sharded_ob")
    assert repro.core.MasterOB is repro.core.aggregation.MasterOB
    assert list(inspect.signature(repro.core.ShardOB.__init__).parameters)[1:] == [
        "shard_id",
        "participants",
        "parent_send",
        "generation_time_of",
        "straggler_threshold",
        "latest_point_id",
        "eager_summaries",
    ]


def test_one_recovery_playbook_table():
    import inspect

    from repro.core.system import DBODeployment
    from repro.faults.injector import PLAYBOOK_ENDPOINTS

    # The per-kind crash/recover families, their scripted compositions and
    # the supervisor's string-prefix dispatcher are one table now.
    for removed in (
        "failover_ob", "fail_shard", "fail_aggregator", "_supervised_recover",
        "crash_ob", "promote_standby", "crash_shard", "retire_shard",
        "crash_aggregator", "recover_aggregator",
    ):
        assert not hasattr(DBODeployment, removed), removed
    assert {
        endpoint.partition(":")[0] for endpoint in PLAYBOOK_ENDPOINTS.values()
    } == {"ob", "shard", "agg", "gateway"}
    # No deployment option came with it.
    assert len(inspect.signature(DBODeployment.__init__).parameters) - 1 == 21


def test_one_dbo_pipeline_one_buffer_family():
    import pathlib

    from repro.baselines.base import default_network_specs
    from repro.core.ordering_buffer import OrderingBuffer
    from repro.core.sharded_ob import ShardOB
    from repro.core.system import DBODeployment
    from repro.experiments.registry import get_builder

    # prob is a DBODeployment row, not a subclass in a module of its own.
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.ordering.deployment")
    deployment = get_builder("prob").build(default_network_specs(2))
    assert type(deployment) is DBODeployment
    assert deployment.scheme_name == "prob"
    assert deployment.ordering_guarantee == "probabilistic"
    assert deployment.horizon == 6.0
    # A shard is an OrderingBuffer, not a wrapper forwarding to one.
    assert issubclass(ShardOB, OrderingBuffer)
    shard = ShardOB("shard-0", ["mp0"], lambda message: None)
    for removed in ("_inner", "fail", "adopt_participant", "participants"):
        assert not hasattr(shard, removed), removed
    # The warm-up hold is written once.
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    definitions = sum(
        path.read_text(encoding="utf-8").count("def begin_warmup(")
        for path in src.rglob("*.py")
    )
    assert definitions == 1


def test_one_ordering_plane_table():
    from repro.baselines.base import default_network_specs
    from repro.core.aggregation import HeartbeatAggregator
    from repro.core.ordering_buffer import OrderingBuffer
    from repro.core.params import AggregationTopology
    from repro.core.system import DBODeployment

    deployment = DBODeployment(
        default_network_specs(8, seed=1), seed=1,
        topology=AggregationTopology(depth=2, fanout=2),
    )
    deployment.run(duration=500.0)
    plane = (OrderingBuffer, HeartbeatAggregator)

    def holds_plane(value):
        items = value.values() if isinstance(value, dict) else value
        return isinstance(value, (dict, list)) and any(isinstance(v, plane) for v in items)

    # The built plane lives in the endpoint table, the participant
    # routing and the child-to-parent node map, and nowhere else.
    holders = sorted(name for name, value in vars(deployment).items() if holds_plane(value))
    assert holders == ["_agg_parent", "endpoints", "ob_routing"]
    assert all(isinstance(parent, HeartbeatAggregator) for parent in deployment._agg_parent.values())
    # Components answer for their own odometers; nothing maps an id to a
    # node or polls one on its behalf.
    assert not [
        name for name in dir(DBODeployment) if "odometer" in name or name.startswith("_resolve")
    ]
    assert "ordering_buffer" not in vars(deployment)


def test_each_release_rule_exists_once():
    import inspect

    import repro.baselines
    import repro.exchange
    from repro.core.release_engine import ReleaseEngine
    from repro.ordering import DeliveryClockPolicy, OrderingPolicy, ProbabilisticPolicy

    # FCFS is PassthroughPolicy on ReleaseEngine; CloudEx builds its
    # ReleaseEngine directly.
    assert not hasattr(repro.exchange, "FCFSSequencer")
    assert "CloudExOrderingBuffer" not in repro.baselines.__all__
    # The delivery-clock rules are decision state for OrderingBuffer /
    # ProbOrderingBuffer, not a second pending store beside them.
    engine_half = (
        "admit", "pop_due", "pop_all", "pending_count", "key_of",
        "on_boundary", "on_watermark",
    )
    for policy in (DeliveryClockPolicy, ProbabilisticPolicy):
        for name in engine_half:
            assert not hasattr(policy, name), f"{policy.__name__}.{name}"
    assert not hasattr(DeliveryClockPolicy, "watermark_extremes")
    members = set(OrderingPolicy.__annotations__) | {
        name
        for name, value in vars(OrderingPolicy).items()
        if inspect.isfunction(value) and not name.startswith("_")
    }
    assert members == {
        "name", "key_of", "admit", "pop_due", "on_boundary", "pop_all",
        "pending_count",
    }
    parameters = inspect.signature(ReleaseEngine.__init__).parameters
    assert list(parameters) == ["self", "policy", "sink", "engine"]
    assert parameters["engine"].default is None


def test_one_grid_runner_one_scenario_table():
    import repro.analysis
    import repro.cli
    import repro.parallel.matrix
    from repro.experiments.scenarios import SCENARIOS

    # Grids of runs go through repro.parallel.run_cells; the analysis
    # package keeps statistics only.
    with pytest.raises(ImportError):
        importlib.import_module("repro.analysis.sweep")
    assert sorted(repro.analysis.__all__) == [
        "SampleSummary", "pooled_fairness", "summarize_samples", "wilson_interval",
    ]
    # Scenario names resolve through one map.
    for module in (repro.cli, repro.parallel.matrix):
        assert not [
            name for name, value in vars(module).items()
            if isinstance(value, dict) and value is not SCENARIOS
            and set(value) & set(SCENARIOS)
        ], module.__name__
    assert not hasattr(repro.parallel.matrix, "_scenario_builders")
    parser = repro.cli.build_parser()
    subparsers = next(
        action for action in parser._actions if action.dest == "command"
    ).choices
    for command in ("run", "compare", "sweep", "chaos", "chaos-table"):
        scenario = next(
            action for action in subparsers[command]._actions if action.dest == "scenario"
        )
        assert list(scenario.choices) == sorted(SCENARIOS), command


def test_one_object_per_message_path():
    import repro.net
    from repro.net.latency import ConstantLatency
    from repro.net.link import Link
    from repro.net.transport import Channel, Transport
    from repro.sim.engine import EventEngine

    # Loss is a channel parameter; a link is another name for a channel.
    for removed in ("LossyLink", "DeliveryRecord"):
        assert removed not in repro.net.__all__
        assert not hasattr(repro.net, removed)
    assert Link is Channel
    engine = EventEngine()
    channel = Transport().open_channel("x", engine, ConstantLatency(1.0))
    assert isinstance(channel, Channel)
    assert not hasattr(channel, "link")
    # Slotted: an unslotted channel carries ~33 attributes, past the size
    # at which CPython stops sharing instance-dict keys.
    for instance in (channel, Channel("y", engine, ConstantLatency(1.0))):
        assert not hasattr(instance, "__dict__")


def test_construction_takes_only_what_callers_set():
    import dataclasses
    import inspect

    import repro.experiments
    import repro.experiments.registry
    import repro.experiments.runner
    import repro.ordering
    import repro.sim
    import repro.sim.runtime
    from repro.core.batcher import Batcher
    from repro.core.params import AggregationTopology
    from repro.core.release_buffer import ReleaseBuffer
    from repro.exchange.ces import CentralExchangeServer
    from repro.net.latency import ConstantLatency
    from repro.net.transport import Channel
    from repro.sim.engine import EventEngine
    from repro.sim.runtime import Runtime
    from repro.sim.service import ServiceQueue

    # A Runtime is engine + seed (+ substreams); scheduling goes to the
    # engine itself.
    for removed in ("as_runtime",):
        assert not hasattr(repro.sim, removed)
        assert not hasattr(repro.sim.runtime, removed)
    assert list(inspect.signature(Runtime.__init__).parameters) == [
        "self", "engine", "seed",
    ]
    assert list(inspect.signature(Runtime.create).parameters) == [
        "seed", "engine", "start_time",
    ]
    for removed in ("params", "now", "schedule_at", "schedule_after",
                    "schedule_periodic", "cancel", "run"):
        assert not hasattr(Runtime, removed), removed
    # Components take the engine they schedule on and store it directly.
    engine = EventEngine()
    components = (
        Channel("link", engine, ConstantLatency(1.0)),
        ServiceQueue(engine, 1.0),
        CentralExchangeServer(engine),
        ReleaseBuffer(engine, "mp0", pacing_gap=10.0, heartbeat_period=20.0),
        Batcher(engine, batch_span=12.0),
    )
    for component in components:
        assert component.engine is engine
        assert not hasattr(component, "runtime"), type(component).__name__
    # The scheme table is a dict behind three functions.
    for removed in ("SchemeRegistry", "REGISTRY"):
        assert not hasattr(repro.experiments, removed)
        assert not hasattr(repro.experiments.registry, removed)
    assert not hasattr(repro.experiments, "SCHEMES")
    assert not hasattr(repro.experiments.runner, "SCHEMES")
    # Libra runs the batch auction's policy; there is no renamed copy.
    assert not hasattr(repro.ordering, "RandomizedWindowPolicy")
    with pytest.raises(ImportError):
        importlib.import_module("repro.ordering.libra")
    # A tree is a fanout and a depth.
    assert [field.name for field in dataclasses.fields(AggregationTopology)] == [
        "fanout", "depth",
    ]


def test_one_key_and_one_record_per_trade():
    from repro.core.release_buffer import ReleaseBuffer
    from repro.exchange.matching import MatchingEngine
    from repro.exchange.messages import TradeOrder

    # A release buffer records each point's first arrival once, in
    # ``raw_arrivals``; the per-batch arrival log is gone.
    assert "raw_arrivals" in ReleaseBuffer.__slots__
    assert "batch_arrivals" not in ReleaseBuffer.__slots__
    assert not hasattr(ReleaseBuffer, "batch_arrivals")
    # The key is a field filled once, not a property.
    assert "key" in TradeOrder.__slots__
    assert not isinstance(TradeOrder.__dict__["key"], property)
    # The matching engine keeps one index.
    engine = MatchingEngine(execute=False)
    for removed in ("_positions", "_forward_times"):
        assert not hasattr(engine, removed), removed


def test_only_what_a_user_path_reaches():
    import inspect

    import repro.exchange
    import repro.experiments
    import repro.experiments.chaos
    import repro.metrics
    import repro.metrics.fairness
    import repro.metrics.report
    import repro.metrics.serialization
    import repro.net
    import repro.net.latency
    import repro.participants
    import repro.participants.strategies
    import repro.sim
    import repro.sim.clocks
    import repro.sim.randomness
    from repro.baselines.base import BaseDeployment
    from repro.core.params import DBOParams
    from repro.core.release_buffer import ReleaseBuffer
    from repro.core.sync_delivery import SyncAssistedReleaseBuffer
    from repro.core.system import DBODeployment
    from repro.exchange.ces import CentralExchangeServer
    from repro.exchange.feed import MarketDataFeed
    from repro.exchange.matching import MatchingEngine
    from repro.net.latency import LatencyModel
    from repro.net.multicast import MulticastGroup
    from repro.sim.runtime import Runtime

    # No CLI command, example, scenario or benchmark set the pre-trade
    # risk gate, the execution-report feed or heartbeat piggybacking.
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.exchange.risk")
    for name in ("RiskGate", "RiskLimits", "Rejection"):
        assert not hasattr(repro.exchange, name), name
    for module in (repro.experiments, repro.experiments.chaos):
        assert not hasattr(module, "audit_all_schemes")
    for module in (repro.metrics, repro.metrics.fairness):
        assert not hasattr(module, "fairness_by_rt_bucket")
    assert not hasattr(MulticastGroup, "remove_member")
    assert not hasattr(MatchingEngine, "on_execution")
    assert not hasattr(CentralExchangeServer, "_on_execution")
    removed = {
        DBODeployment: ("risk_limits", "publish_executions", "piggyback_suppression"),
        BaseDeployment: ("publish_executions",),
        CentralExchangeServer: ("publish_executions",),
        MatchingEngine: ("on_execution",),
        ReleaseBuffer: ("piggyback_suppression",),
        SyncAssistedReleaseBuffer: ("piggyback_suppression",),
    }
    for cls, names in removed.items():
        parameters = inspect.signature(cls.__init__).parameters
        for name in names:
            assert name not in parameters, f"{cls.__name__}({name}=)"
    for name in ("piggyback_suppression", "_last_trade_sent_at", "heartbeats_suppressed"):
        assert name not in ReleaseBuffer.__slots__, name
    # Nor the telemetry sampler, the RunResult loader, the latency-model
    # algebra or a handful of helpers only tests called.
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.sim.telemetry")
    for name in ("Probe", "TelemetryRecorder", "make_clock", "stable_normal"):
        assert not hasattr(repro.sim, name), name
    assert not hasattr(repro.sim.clocks, "make_clock")
    assert not hasattr(repro.sim.randomness, "stable_normal")
    assert "telemetry_interval" not in inspect.signature(DBODeployment.__init__).parameters
    assert "telemetry" not in inspect.signature(Runtime.__init__).parameters
    assert Runtime.__slots__ == ("engine", "seed", "_substreams")
    assert not hasattr(Runtime, "attach_telemetry")
    for module in (repro.metrics, repro.metrics.serialization):
        for name in ("run_result_from_dict", "load_run_result"):
            assert not hasattr(module, name), name
    assert not hasattr(repro.metrics.serialization, "_point_key")
    for module in (repro.metrics, repro.metrics.report):
        assert not hasattr(module, "cdf_points")
    for module in (repro.net, repro.net.latency):
        for name in ("ShiftedLatency", "ScaledLatency"):
            assert not hasattr(module, name), name
    for cls in vars(repro.net.latency).values():
        if isinstance(cls, type) and issubclass(cls, LatencyModel):
            for name in ("mean_estimate", "shifted", "scaled", "degraded"):
                assert not hasattr(cls, name), f"{cls.__name__}.{name}"
    for module in (repro.participants, repro.participants.strategies):
        assert not hasattr(module, "MomentumTaker")
    assert not hasattr(MarketDataFeed, "points_until")
    for name in ("pacing_gap", "drain_rate", "worst_case_added_latency"):
        assert not hasattr(DBOParams, name), name
    group = MulticastGroup()
    for name in ("member_ids", "messages_published", "_published"):
        assert not hasattr(group, name), name
    # Nor a second path for four jobs: the link class beside the channel,
    # the pre-build latency wrapping, the VM-hop shard edge and the lint
    # baseline.
    import pathlib

    import repro.faults.plan
    import repro.lint
    import repro.lint.findings
    import repro.lint.report
    import repro.lint.runner
    import repro.net.link
    import repro.net.multicast
    import repro.net.transport
    from repro.cli import build_parser
    from repro.faults.injector import FaultInjector

    assert repro.net.link.Link is repro.net.transport.Channel
    assert [
        name for name, value in vars(repro.net.transport).items()
        if isinstance(value, type) and value.__module__ == "repro.net.transport"
    ] == ["Channel", "Transport"]
    for name in ("send", "connect"):
        assert name in vars(repro.net.transport.Channel), name
    for name in ("packets_delivered", "arrival_time_for", "_delivered", "_deliver_once"):
        assert not hasattr(repro.net.transport.Channel, name), name
    assert "_delivered" not in repro.net.transport.Channel.__slots__
    assert not hasattr(MulticastGroup, "link_for")
    for module in (repro.net, repro.net.multicast):
        assert not hasattr(module, "Sendable")
    assert "Link" not in repro.net.__all__
    for name in ("_wrap_latency_models", "_degraded"):
        assert not hasattr(FaultInjector, name), name
        assert not hasattr(FaultInjector(repro.faults.plan.FaultSchedule.of()), name), name
    assert "shard_master_latency" not in inspect.signature(DBODeployment.__init__).parameters
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.lint.baseline")
    for name in ("DEFAULT_BASELINE_NAME", "load_baseline", "build_baseline",
                 "write_baseline", "apply_baseline"):
        assert not hasattr(repro.lint, name), name
    for name in ("fingerprint", "baseline_key", "baselined"):
        assert not hasattr(repro.lint.findings.Finding, name), name
    assert "baselined" not in {
        field.name for field in repro.lint.findings.Finding.__dataclass_fields__.values()
    }
    assert "baselined" not in repro.lint.runner.LintRun.__dataclass_fields__
    assert "baseline" not in inspect.signature(repro.lint.runner.lint_paths).parameters
    for render in (repro.lint.report.render_text, repro.lint.report.render_json):
        assert "show_baselined" not in inspect.signature(render).parameters
    parser = build_parser()
    lint_parser = next(
        action for action in parser._actions if action.dest == "command"
    ).choices["lint"]
    flags = {flag for action in lint_parser._actions for flag in action.option_strings}
    for flag in ("--baseline", "--no-baseline", "--write-baseline", "--show-baselined"):
        assert flag not in flags, flag
    assert {"--select", "--root", "--json", "--list-rules"} <= flags
    repo = pathlib.Path(__file__).resolve().parent.parent
    assert not (repo / "lint-baseline.json").exists()
    assert len(inspect.signature(DBODeployment.__init__).parameters) - 1 == 21


def test_one_engine_deployment():
    import repro
    import repro.baselines
    from repro.baselines.base import BaseDeployment, default_network_specs
    from repro.baselines.engine import EngineDeployment
    from repro.exchange.ces import CentralExchangeServer
    from repro.experiments.registry import available_schemes, get_builder
    from repro.sim.engine import EventEngine

    # Direct, FBA and Libra are rows of one deployment, not three classes.
    for module in ("direct", "fba", "libra"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.baselines.{module}")
    for name in ("DirectDeployment", "FBADeployment", "LibraDeployment"):
        assert not hasattr(repro.baselines, name), name
        assert not hasattr(repro, name), name
    specs = default_network_specs(2)
    for scheme in ("direct", "fba", "libra"):
        deployment = get_builder(scheme).build(specs)
        assert type(deployment) is EngineDeployment
        assert deployment.scheme_name == scheme
    # The unicast wiring lives with its only user.
    base = BaseDeployment(specs)
    for name in ("_build_unicast_legs", "_arrivals", "_publish_points"):
        assert not hasattr(base, name), name
    # No user path set the CES keepalive.
    ces = CentralExchangeServer(EventEngine())
    for name in ("keepalive_interval", "_keepalive", "_keepalive_timer",
                 "keepalives_published", "_last_emit_time"):
        assert not hasattr(ces, name), name
    assert available_schemes() == ["cloudex", "dbo", "direct", "fba", "libra", "prob"]


def test_top_level_quickstart_surface():
    import repro

    for name in [
        "DBODeployment",
        "DBOParams",
        "NetworkSpec",
        "run_scheme",
        "summarize",
        "cloud_specs",
        "evaluate_fairness",
        "RaceResponseTime",
    ]:
        assert hasattr(repro, name)


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(part.isdigit() for part in parts)


def test_cli_module_entry_point():
    from repro.cli import main

    assert callable(main)
