"""Command-line interface: run schemes, compare them, regenerate figures.

Examples
--------
Run DBO on the cloud scenario and print the digest::

    python -m repro run --scheme dbo --scenario cloud --participants 10 \
        --duration 50000

Compare every scheme on one network::

    python -m repro compare --scenario cloud --participants 6 --duration 30000

Regenerate a paper table or figure::

    python -m repro table 3
    python -m repro figure 10
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Dict, Optional, Sequence

from repro.baselines.engine import batch_interval_for
from repro.core.params import AggregationTopology, DBOParams, SupervisionPolicy
from repro.core.release_buffer import RetransmitPolicy
from repro.exchange.feed import FeedConfig
from repro.experiments.registry import available_schemes, get_builder
from repro.experiments.runner import build_deployment, comparison_table, summarize
from repro.metrics.serialization import summary_to_dict, trade_ordering_digest
from repro.sim.engine import ENGINE_FACTORIES
from repro.experiments.chaos import CHAOS_PLANS, chaos_kwargs, make_plan, run_chaos
from repro.experiments.chaos_tables import chaos_table
from repro.experiments.scenarios import SCENARIOS
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultSchedule
from repro.lint.cli import add_lint_arguments, run_lint
from repro.experiments import figures as figures_mod
from repro.experiments import tables as tables_mod
from repro.metrics.report import render_table
from repro.metrics.serialization import save_run_result
from repro.parallel import CellSpec, run_cells
from repro.participants.response_time import RaceResponseTime, UniformResponseTime

__all__ = ["main", "build_parser"]

TABLES = {
    "2": tables_mod.table2_baremetal,
    "3": tables_mod.table3_cloud,
    "4": tables_mod.table4_slow_responders,
}

FIGURES = {
    "2": figures_mod.figure2_cloudex_spike,
    "7": figures_mod.figure7_pacing_drain,
    "10": figures_mod.figure10_latency_cdfs,
    "11": figures_mod.figure11_network_trace,
    "12": figures_mod.figure12_scaling,
    "13": figures_mod.figure13_cloudex_vs_dbo,
}


def _scheme_help() -> str:
    """One line per registered scheme, straight from the registry."""
    return "; ".join(
        f"{name}: {get_builder(name).description}" for name in available_schemes()
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DBO (SIGCOMM 2023) reproduction: fairness for cloud-hosted exchanges",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scheme and print its digest")
    _add_common(run_p)
    run_p.add_argument(
        "--scheme", choices=available_schemes(), default="dbo", help=_scheme_help()
    )
    run_p.add_argument("--save", metavar="PATH", help="save the RunResult as JSON")
    run_p.add_argument(
        "--json", action="store_true", help="emit the digest as JSON on stdout"
    )
    _add_scheme_knobs(run_p)

    cmp_p = sub.add_parser("compare", help="run several schemes on one network")
    _add_common(cmp_p)
    cmp_p.add_argument(
        "--schemes",
        nargs="+",
        choices=available_schemes(),
        default=["direct", "dbo"],
        help=_scheme_help(),
    )
    cmp_p.add_argument(
        "--json", action="store_true", help="emit the comparison as JSON on stdout"
    )
    _add_scheme_knobs(cmp_p)

    table_p = sub.add_parser("table", help="regenerate a paper table")
    table_p.add_argument("number", choices=sorted(TABLES))
    table_p.add_argument("--duration", type=float, default=None, help="µs of market data")

    fig_p = sub.add_parser("figure", help="regenerate a paper figure")
    fig_p.add_argument("number", choices=sorted(FIGURES))
    fig_p.add_argument("--duration", type=float, default=None, help="µs of market data")

    sweep_p = sub.add_parser("sweep", help="sweep a DBO parameter (δ or τ)")
    _add_common(sweep_p)
    sweep_p.add_argument("--param", choices=["delta", "tau"], default="delta")
    sweep_p.add_argument(
        "--values", nargs="+", type=float, default=[10.0, 20.0, 45.0]
    )

    chaos_p = sub.add_parser(
        "chaos", help="run a fault plan against a scheme, audit, and diff vs a clean twin"
    )
    _add_common(chaos_p)
    chaos_p.add_argument(
        "--scheme", choices=available_schemes(), default="dbo", help=_scheme_help()
    )
    chaos_p.add_argument(
        "--plan",
        choices=sorted(CHAOS_PLANS),
        default="link-flaky",
        help="named fault plan (scaled to --duration)",
    )
    chaos_p.add_argument(
        "--faults",
        metavar="PATH",
        default=None,
        help="JSON fault plan file (overrides --plan)",
    )
    chaos_p.add_argument(
        "--fail-on-violation",
        action="store_true",
        help="exit 1 if the auditor records any safety violation",
    )
    chaos_p.add_argument(
        "--json", action="store_true", help="emit the full chaos report as JSON"
    )
    _add_scheme_knobs(chaos_p)

    ct_p = sub.add_parser(
        "chaos-table",
        help='the "Table 5" the paper never had: schemes × fault plans '
             "degradation matrix with multi-seed Wilson CIs",
    )
    ct_p.add_argument("--scenario", choices=sorted(SCENARIOS), default="cloud")
    ct_p.add_argument("--participants", type=int, default=4)
    ct_p.add_argument("--duration", type=float, default=6_000.0, help="µs per run")
    ct_p.add_argument("--seed", type=int, default=0, help="base seed of the substreams")
    ct_p.add_argument(
        "--engine", choices=sorted(ENGINE_FACTORIES), default="heap",
        help="event-engine implementation backing every run",
    )
    ct_p.add_argument(
        "--schemes", nargs="+", choices=available_schemes(), default=None,
        help="schemes to degrade (default: all registered)",
    )
    ct_p.add_argument(
        "--plans", nargs="+", choices=sorted(CHAOS_PLANS), default=None,
        help="named fault plans (default: all)",
    )
    ct_p.add_argument(
        "--seeds", type=int, default=3, metavar="K",
        help="independent seed substreams per (scheme, plan) cell",
    )
    ct_p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (1 = serial; results are identical either way)",
    )
    ct_p.add_argument(
        "--json", action="store_true", help="emit the full table document as JSON"
    )

    lint_p = sub.add_parser(
        "lint",
        help="determinism & simulation-purity static analysis (DBO1xx rules)",
    )
    add_lint_arguments(lint_p)

    repro_p = sub.add_parser(
        "reproduce", help="regenerate every paper table and figure into a directory"
    )
    repro_p.add_argument("--out", default="reproduction", help="output directory")
    repro_p.add_argument(
        "--quick",
        action="store_true",
        help="scale run durations down ~10x (CI-friendly smoke reproduction)",
    )

    return parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", choices=sorted(SCENARIOS), default="cloud")
    p.add_argument("--participants", type=int, default=10)
    p.add_argument("--duration", type=float, default=50_000.0, help="µs of market data")
    p.add_argument(
        "--drain",
        type=float,
        default=None,
        help="µs of drain after the feed stops (default: max(20000, 5%% of duration))",
    )
    p.add_argument("--seed", type=int, default=12)
    p.add_argument(
        "--engine",
        choices=sorted(ENGINE_FACTORIES),
        default="heap",
        help="event-engine implementation backing the simulation",
    )
    p.add_argument("--interval", type=float, default=40.0, help="data interval (µs)")
    p.add_argument("--rt-low", type=float, default=5.0)
    p.add_argument("--rt-high", type=float, default=20.0)
    p.add_argument(
        "--race-gap",
        type=float,
        default=None,
        help="competing response margins (µs); omit for independent draws",
    )


def _add_scheme_knobs(p: argparse.ArgumentParser) -> None:
    # Knobs left unset keep the library's defaults (DBOParams, the
    # deployments, the `prob` registry row, SupervisionPolicy).
    p.add_argument("--delta", type=float, default=None, help="DBO horizon δ (µs)")
    p.add_argument("--kappa", type=float, default=None, help="DBO batch factor κ")
    p.add_argument("--tau", type=float, default=None, help="DBO heartbeat period τ (µs)")
    p.add_argument("--straggler-threshold", type=float, default=None)
    p.add_argument(
        "--ob-shards", type=int, default=None,
        help="OB shards (default: 1, or what the chaos plan needs)",
    )
    p.add_argument(
        "--agg-depth", type=int, default=0,
        help="heartbeat aggregation tree depth (0 = flat/eager default)",
    )
    p.add_argument(
        "--agg-fanout", type=int, default=8,
        help="children per aggregation-tree node (with --agg-depth > 0)",
    )
    p.add_argument("--sync-c1", type=float, default=None,
                   help="enable §4.2.6 sync-assisted delivery with this target")
    p.add_argument(
        "--supervise", action="store_true",
        help="arm the failure detector + supervised automatic recovery",
    )
    p.add_argument(
        "--detector-window", type=int, default=None,
        help="inter-pulse gap history per endpoint (with --supervise)",
    )
    p.add_argument(
        "--confirm-after", type=int, default=None,
        help="failed probes before a suspect is confirmed dead (with --supervise)",
    )
    p.add_argument(
        "--retransmit", action="store_true",
        help="arm the RB ack/retransmit protocol (implied by --supervise)",
    )
    p.add_argument(
        "--horizon", type=float, default=None,
        help="prob confidence horizon h (µs); trades release h after arrival",
    )
    p.add_argument("--c1", type=float, default=None, help="CloudEx data threshold (µs)")
    p.add_argument("--c2", type=float, default=None, help="CloudEx trade threshold (µs)")
    p.add_argument(
        "--batch-interval", type=float, default=None,
        help="FBA period (µs; default: an eighth of --duration)",
    )
    p.add_argument("--window", type=float, default=None, help="Libra window (µs)")


def _build_specs(args) -> list:
    return SCENARIOS[args.scenario](args.participants, seed=args.seed)


def _build_rt_model(args):
    if args.race_gap is not None:
        return RaceResponseTime(
            args.participants,
            low=args.rt_low,
            high=args.rt_high,
            gap=args.race_gap,
            seed=args.seed + 1,
        )
    return UniformResponseTime(low=args.rt_low, high=args.rt_high, seed=args.seed + 1)


def _given(args, *names: str) -> dict:
    """``{name: value}`` for the options among ``names`` the user gave."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _scheme_kwargs(scheme: str, args) -> dict:
    if scheme in ("dbo", "prob"):
        kwargs = dict(
            params=DBOParams(**_given(args, "delta", "kappa", "tau", "straggler_threshold")),
        )
        if scheme == "prob":
            # The same deployment with the horizon release rule; it
            # rejects shards and trees itself.
            kwargs.update(_given(args, "horizon"))
        if args.ob_shards is not None:
            # Unset leaves the default, or the shards a chaos plan needs.
            kwargs["n_ob_shards"] = args.ob_shards
        if args.agg_depth > 0:
            kwargs["topology"] = AggregationTopology(
                fanout=args.agg_fanout, depth=args.agg_depth
            )
        if args.sync_c1 is not None:
            kwargs["sync_target_c1"] = args.sync_c1
        if args.supervise:
            kwargs["supervise"] = True
            kwargs["supervision_policy"] = SupervisionPolicy(
                **_given(args, "detector_window", "confirm_after")
            )
        if args.retransmit or args.supervise:
            kwargs["retransmit_policy"] = RetransmitPolicy()
        return kwargs
    if scheme == "cloudex":
        return _given(args, "c1", "c2")
    if scheme == "fba":
        # Unset scales to the run, as chaos-table does; a set interval
        # too long for the run is still a usage error.
        interval = args.batch_interval
        if interval is None:
            interval = batch_interval_for(args.duration)
        return {"batch_interval": interval}
    if scheme == "libra":
        return _given(args, "window")
    return {}


def _build_one(scheme: str, args, kwargs: Optional[dict] = None):
    """Construct (not run) ``scheme`` from the command's options."""
    return build_deployment(
        scheme,
        _build_specs(args),
        feed_config=FeedConfig(interval=args.interval),
        response_time_model=_build_rt_model(args),
        seed=args.seed,
        engine=args.engine,
        **(_scheme_kwargs(scheme, args) if kwargs is None else kwargs),
    )


def _build_error(error: Exception) -> int:
    """Report options the deployment rejects in one line, argparse-style."""
    print(f"repro: error: {error}", file=sys.stderr)
    return 2


def _run_context(args) -> dict:
    return {
        "scenario": args.scenario,
        "participants": args.participants,
        "duration": args.duration,
        "seed": args.seed,
        "engine": args.engine,
    }


def cmd_run(args) -> int:
    try:
        deployment = _build_one(args.scheme, args)
        deployment.check_horizon(args.duration, args.drain)
    except ValueError as error:
        return _build_error(error)
    result = deployment.run(duration=args.duration, drain=args.drain)
    summary = summarize(result, with_bound=(args.scheme == "dbo"))
    if args.save:
        save_run_result(result, args.save)
    if args.json:
        doc = dict(_run_context(args))
        doc["summary"] = summary_to_dict(summary)
        doc["trade_ordering_digest"] = trade_ordering_digest(result)
        if args.save:
            doc["saved_to"] = args.save
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(comparison_table([summary], title=f"{args.scheme} on {args.scenario} "
                                            f"({args.participants} MPs, {args.duration:.0f} µs)"))
    print()
    print(f"fairness: {summary.fairness}")
    completion = f"{100 * summary.completion:.2f} %" if result.trades else "n/a (no trades)"
    print(f"completion: {completion}")
    if summary.counters:
        interesting = {k: v for k, v in sorted(summary.counters.items())}
        print(f"counters: {interesting}")
    if args.save:
        print(f"saved run result to {args.save}")
    return 0


def cmd_compare(args) -> int:
    try:
        deployments = [_build_one(scheme, args) for scheme in args.schemes]
        for deployment in deployments:
            deployment.check_horizon(args.duration, args.drain)
    except ValueError as error:
        return _build_error(error)
    summaries = []
    digests: Dict[str, str] = {}
    for scheme, deployment in zip(args.schemes, deployments):
        result = deployment.run(duration=args.duration, drain=args.drain)
        summaries.append(summarize(result, with_bound=(scheme == "dbo")))
        digests[scheme] = trade_ordering_digest(result)
    if args.json:
        doc = dict(_run_context(args))
        doc["summaries"] = [summary_to_dict(s) for s in summaries]
        doc["trade_ordering_digests"] = digests
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(
        comparison_table(
            summaries,
            title=f"{', '.join(args.schemes)} on {args.scenario} "
                  f"({args.participants} MPs)",
        )
    )
    return 0


def cmd_chaos(args) -> int:
    try:
        if args.faults:
            plan = FaultSchedule.load(args.faults)
        else:
            plan = make_plan(args.plan, args.duration, args.participants)
        # Build (not run) one twin and arm the plan on it up front, so
        # options the deployment or the plan rejects end in a usage
        # error, not a traceback.
        kwargs = _scheme_kwargs(args.scheme, args)
        twin = _build_one(args.scheme, args, chaos_kwargs(args.scheme, plan, kwargs))
        twin.check_horizon(args.duration, args.drain)
        recovery = "detected" if kwargs.get("supervise") else "scripted"
        FaultInjector(plan, recovery=recovery).arm(twin)
    except (OSError, ValueError) as error:
        return _build_error(error)
    report = run_chaos(
        args.scheme,
        lambda: _build_specs(args),
        duration=args.duration,
        plan=plan,
        seed=args.seed,
        feed_config=FeedConfig(interval=args.interval),
        response_time_model=_build_rt_model(args),
        engine=args.engine,
        drain=args.drain,
        **kwargs,
    )
    violated = not report.safe
    if args.json:
        doc = dict(_run_context(args))
        doc["chaos"] = report.to_dict()
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        deg = report.degradation
        print(
            f"chaos plan {plan.name!r} on {args.scheme} / {args.scenario} "
            f"({args.participants} MPs, {args.duration:.0f} µs)"
        )
        for entry in report.injector_summary["log"]:
            target = f" {entry['target']}" if entry["target"] else ""
            print(f"  t={entry['time']:>10.1f}  {entry['action']:<7} {entry['kind']}{target}")
        print(f"clean twin : fairness {deg.clean_fairness_pct:6.2f} %  "
              f"p99 {deg.clean_p99:8.1f} µs  completion {100 * deg.clean_completion:6.2f} %")
        print(f"faulted    : fairness {deg.faulted_fairness_pct:6.2f} %  "
              f"p99 {deg.faulted_p99:8.1f} µs  completion {100 * deg.faulted_completion:6.2f} %")
        print(f"degradation: fairness -{deg.fairness_drop_pct:.2f} pp, "
              f"p99 x{deg.p99_inflation:.2f}, completion -{100 * deg.completion_drop:.2f} pp")
        if deg.fault_counters:
            print(f"fault counters: {dict(sorted(deg.fault_counters.items()))}")
        for label, audit in (("clean", report.clean_audit), ("faulted", report.faulted_audit)):
            counts = audit.counts()
            verdict = "ok" if audit.ok else f"SAFETY VIOLATIONS {counts}"
            extra = f" (liveness: {counts})" if audit.ok and counts else ""
            print(f"audit [{label:>7}]: {verdict}{extra} — "
                  f"{audit.releases_checked} releases, {audit.heartbeats_checked} heartbeats checked")
        print(f"digest [  clean]: {report.clean_digest}")
        print(f"digest [faulted]: {report.faulted_digest}")
    if args.fail_on_violation and violated:
        print("chaos: safety violations detected", file=sys.stderr)
        return 1
    return 0


def cmd_chaos_table(args) -> int:
    try:
        table = chaos_table(
            schemes=args.schemes,
            plans=args.plans,
            n_seeds=args.seeds,
            base_seed=args.seed,
            scenario=args.scenario,
            participants=args.participants,
            duration=args.duration,
            engine=args.engine,
            jobs=args.jobs,
        )
    except ValueError as error:
        return _build_error(error)
    if args.json:
        print(json.dumps(table.to_dict(), indent=2, sort_keys=True))
        return 0
    print(table.render())
    skipped = [e for e in table.entries if not e.applicable]
    if skipped:
        print()
        print("n/a cells (fault plan inapplicable to the scheme):")
        for entry in skipped:
            print(f"  {entry.scheme} × {entry.plan}: {entry.error}")
    print()
    print(f"table digest: {table.digest()}")
    return 0


def cmd_lint(args) -> int:
    return run_lint(args)


def _artifact_duration(args) -> dict:
    """``{"duration": ...}`` for a table or figure given ``--duration``;
    ``ValueError`` for one that is not positive and finite, or for the
    one artifact that replays a fixed trace (figure 11)."""
    if args.duration is None:
        return {}
    if args.command == "figure" and args.number == "11":
        raise ValueError("figure 11 replays a fixed trace and takes no --duration")
    if not 0.0 < args.duration < math.inf:
        raise ValueError("duration must be positive and finite")
    return {"duration": args.duration}


def cmd_table(args) -> int:
    try:
        kwargs = _artifact_duration(args)
    except ValueError as error:
        return _build_error(error)
    print(TABLES[args.number](**kwargs).text)
    return 0


def cmd_sweep(args) -> int:
    try:
        cells = [
            CellSpec(
                scheme="dbo",
                seed=args.seed,
                scenario=args.scenario,
                participants=args.participants,
                duration=args.duration,
                engine=args.engine,
                feed_interval=args.interval,
                drain=args.drain,
                scheme_kwargs={
                    "params": DBOParams(**{args.param: value}),
                    "response_time_model": _build_rt_model(args),
                },
            )
            for value in args.values
        ]
    except ValueError as error:
        return _build_error(error)
    results = run_cells(cells)
    failed = next((result for result in results if not result.ok), None)
    if failed is not None:
        print(f"repro: error: {failed.error}", file=sys.stderr)
        return 2
    rows = [
        [str(value), s["fairness"]["percent"], s["latency"]["avg"], s["latency"]["p99"]]
        for value, s in zip(args.values, (result.summary for result in results))
    ]
    print(
        render_table(
            [args.param, "fairness %", "avg latency", "p99 latency"],
            rows,
            title=f"DBO {args.param} sweep on {args.scenario} "
                  f"({args.participants} MPs)",
        )
    )
    return 0


def cmd_figure(args) -> int:
    try:
        kwargs = _artifact_duration(args)
    except ValueError as error:
        return _build_error(error)
    print(FIGURES[args.number](**kwargs).text)
    return 0


# Default and --quick durations (µs) per artifact for `reproduce`.
_REPRODUCE_PLAN = [
    ("table2", TABLES["2"], 100_000.0, 10_000.0),
    ("table3", TABLES["3"], 100_000.0, 10_000.0),
    ("table4", TABLES["4"], 60_000.0, 8_000.0),
    ("figure2", FIGURES["2"], 40_000.0, 25_000.0),
    ("figure7", FIGURES["7"], 60_000.0, 40_000.0),
    ("figure10", FIGURES["10"], 100_000.0, 15_000.0),
    ("figure11", FIGURES["11"], None, None),
    ("figure12", FIGURES["12"], 8_000.0, 3_000.0),
    ("figure13", FIGURES["13"], 15_000.0, 6_000.0),
]


def cmd_reproduce(args) -> int:
    import os

    os.makedirs(args.out, exist_ok=True)
    for name, fn, duration, quick_duration in _REPRODUCE_PLAN:
        chosen = quick_duration if args.quick else duration
        result = fn() if chosen is None else fn(duration=chosen)
        path = os.path.join(args.out, f"{name}.txt")
        with open(path, "w") as handle:
            handle.write(result.text + "\n")
            if hasattr(result, "render_ascii"):
                try:
                    handle.write("\n" + result.render_ascii() + "\n")
                except ValueError:
                    pass
        print(f"[reproduce] wrote {path}")
    print(f"[reproduce] done — compare against EXPERIMENTS.md")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": cmd_run,
        "compare": cmd_compare,
        "chaos": cmd_chaos,
        "chaos-table": cmd_chaos_table,
        "lint": cmd_lint,
        "table": cmd_table,
        "figure": cmd_figure,
        "sweep": cmd_sweep,
        "reproduce": cmd_reproduce,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
