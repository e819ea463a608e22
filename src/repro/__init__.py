"""repro — a full reproduction of *DBO: Fairness for Cloud-Hosted
Financial Exchanges* (SIGCOMM 2023).

Public API tour
---------------
Core mechanism (the paper's contribution):

* :class:`repro.core.DeliveryClock` / :class:`repro.core.DeliveryClockStamp`
  — the delivery-based logical clock (§4.1.1).
* :class:`repro.core.ReleaseBuffer`, :class:`repro.core.OrderingBuffer`,
  :class:`repro.core.Batcher` — batching, pacing, tagging and
  heartbeat-gated release (§4.1.2-§4.1.3).
* :class:`repro.core.DBODeployment` — a runnable DBO system over a
  simulated cloud network.
* :class:`repro.core.DBOParams` — δ, κ, τ with the paper's defaults.

Baselines: :class:`repro.baselines.EngineDeployment` runs Direct, FBA
and Libra, one :class:`repro.baselines.EngineRow` each;
:class:`repro.baselines.CloudExDeployment` runs CloudEx.  Build any
scheme by name with :func:`repro.experiments.build_deployment`.

Harness: :func:`repro.experiments.run_scheme`,
:func:`repro.experiments.summarize`, plus one function per paper
table/figure in :mod:`repro.experiments.tables` and
:mod:`repro.experiments.figures`.

Quick start
-----------
>>> from repro import run_scheme, summarize, cloud_specs, DBOParams
>>> result = run_scheme("dbo", cloud_specs(4), duration=4_000.0,
...                     params=DBOParams(delta=20.0))
>>> summarize(result).fairness.ratio
1.0
"""

from repro.baselines import (
    CloudExDeployment,
    NetworkSpec,
    default_network_specs,
)
from repro.core import (
    Batcher,
    DBODeployment,
    DBOParams,
    DeliveryClock,
    DeliveryClockStamp,
    EgressGateway,
    OrderingBuffer,
    ReleaseBuffer,
)
from repro.experiments import (
    baremetal_specs,
    cloud_specs,
    comparison_table,
    run_scheme,
    summarize,
    trace_specs,
)
from repro.participants import RaceResponseTime, UniformResponseTime
from repro.metrics import (
    FairnessReport,
    LatencyStats,
    RunResult,
    TradeRecord,
    evaluate_fairness,
    latency_stats,
    max_rtt_stats,
)

__version__ = "1.0.0"

__all__ = [
    "CloudExDeployment",
    "NetworkSpec",
    "default_network_specs",
    "Batcher",
    "DBODeployment",
    "DBOParams",
    "DeliveryClock",
    "DeliveryClockStamp",
    "EgressGateway",
    "OrderingBuffer",
    "ReleaseBuffer",
    "baremetal_specs",
    "cloud_specs",
    "comparison_table",
    "run_scheme",
    "summarize",
    "trace_specs",
    "FairnessReport",
    "LatencyStats",
    "RunResult",
    "TradeRecord",
    "evaluate_fairness",
    "latency_stats",
    "max_rtt_stats",
    "RaceResponseTime",
    "UniformResponseTime",
    "__version__",
]
