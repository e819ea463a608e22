"""Experiment harness: scenarios, runner, and table/figure regeneration."""

from repro.experiments.chaos import (
    CHAOS_PLANS,
    ChaosRunReport,
    make_plan,
    run_chaos,
)
from repro.experiments.chaos_tables import (
    ChaosTable,
    ChaosTableEntry,
    build_cells,
    chaos_table,
)
from repro.experiments.figures import (
    FigureResult,
    figure2_cloudex_spike,
    figure7_pacing_drain,
    figure10_latency_cdfs,
    figure11_network_trace,
    figure12_scaling,
    figure13_cloudex_vs_dbo,
)
from repro.experiments.registry import (
    SchemeBuilder,
    UnknownSchemeError,
    available_schemes,
    get_builder,
    register_scheme,
)
from repro.experiments.runner import (
    SchemeSummary,
    build_deployment,
    comparison_table,
    run_scheme,
    summarize,
)
from repro.experiments.scenarios import (
    baremetal_specs,
    cloud_specs,
    congested_specs,
    figure11_trace,
    multizone_specs,
    sim_trace,
    trace_specs,
)
from repro.experiments.tables import (
    TableResult,
    table2_baremetal,
    table3_cloud,
    table4_slow_responders,
)

__all__ = [
    "CHAOS_PLANS",
    "ChaosRunReport",
    "make_plan",
    "run_chaos",
    "ChaosTable",
    "ChaosTableEntry",
    "build_cells",
    "chaos_table",
    "FigureResult",
    "figure2_cloudex_spike",
    "figure7_pacing_drain",
    "figure10_latency_cdfs",
    "figure11_network_trace",
    "figure12_scaling",
    "figure13_cloudex_vs_dbo",
    "SchemeBuilder",
    "UnknownSchemeError",
    "available_schemes",
    "get_builder",
    "register_scheme",
    "SchemeSummary",
    "build_deployment",
    "comparison_table",
    "run_scheme",
    "summarize",
    "baremetal_specs",
    "cloud_specs",
    "congested_specs",
    "figure11_trace",
    "multizone_specs",
    "sim_trace",
    "trace_specs",
    "TableResult",
    "table2_baremetal",
    "table3_cloud",
    "table4_slow_responders",
]
