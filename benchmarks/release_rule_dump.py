"""Behaviour dump for refactors of the release rules (PR 16).

Prints digest, ``RunResult.counters``, per-channel odometers and audit
counts for 49 cells as canonical JSON, one cell per line.  Run it at two
commits and ``cmp`` the outputs::

    PYTHONPATH=src python benchmarks/release_rule_dump.py > change.jsonl
    (cd <parent checkout> && PYTHONPATH=src python <this file>) > parent.jsonl
    cmp parent.jsonl change.jsonl

Cells: the six schemes clean at N=6, ``prob`` with a straggler
threshold, ``dbo`` / ``prob`` x ``ob-failover`` / ``ob-crash`` /
``link-flaky`` x plain / ``RetransmitPolicy()`` / ``supervise=True``
through ``run_chaos`` at N=8, the target-addressed ``partition``
plan on all six schemes (the injector's former link-addressing path),
the six schemes at N=6 with Appendix D loss and recovery on the
even participants' legs, forward+reverse and reverse-only, and the
``dup-delivery`` plan on all six schemes through ``run_chaos`` at N=8
(the channels' dedup logs and the releasers' key dedup).
Uses only the public experiment API, so the same file runs unchanged on
either side of the refactor.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Iterator, Tuple

from repro.baselines.base import default_network_specs
from repro.core.params import DBOParams
from repro.core.release_buffer import RetransmitPolicy
from repro.experiments.chaos import make_plan, run_chaos
from repro.experiments.runner import build_deployment
from repro.faults.auditor import InvariantAuditor
from repro.metrics.serialization import trade_ordering_digest

SCHEMES = ("direct", "cloudex", "fba", "libra", "dbo", "prob")
CLEAN_KWARGS: Dict[str, Dict[str, Any]] = {"fba": {"batch_interval": 1000.0}}
PLANS = ("ob-failover", "ob-crash", "link-flaky")
MODES: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("plain", {}),
    ("retransmit", {"retransmit_policy": RetransmitPolicy()}),
    ("supervised", {"supervise": True}),
)


def _run_doc(result: Any, audit: Any) -> Dict[str, Any]:
    return {
        "digest": trade_ordering_digest(result),
        "counters": result.counters,
        "channels": result.channels,
        "audit": audit.to_dict(),
    }


# Loss on the even participants' legs: forward+reverse, and reverse only.
LOSSES: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("fwd+rev", {"loss_probability": 0.05}),
    ("rev-only", {"loss_probability": 0.0, "reverse_loss_probability": 0.08}),
)


def _lossy_specs(loss: Dict[str, Any]) -> list:
    return [
        dataclasses.replace(spec, recovery_delay=300.0, **loss) if index % 2 == 0 else spec
        for index, spec in enumerate(default_network_specs(6, seed=5))
    ]


def _clean(scheme: str, specs: Any = None, **kwargs: Any) -> Dict[str, Any]:
    deployment = build_deployment(
        scheme, specs or default_network_specs(6, seed=5), seed=5, **kwargs
    )
    auditor = InvariantAuditor()
    auditor.attach(deployment)
    result = deployment.run(duration=5000.0)
    return _run_doc(result, auditor.report())


def _chaos(scheme: str, plan_name: str, **kwargs: Any) -> Dict[str, Any]:
    report = run_chaos(
        scheme,
        lambda: default_network_specs(8, seed=3),
        6000.0,
        make_plan(plan_name, 6000.0, 8),
        seed=3,
        **kwargs,
    )
    return {
        "clean": _run_doc(report.clean, report.clean_audit),
        "faulted": _run_doc(report.faulted, report.faulted_audit),
        "injector": report.injector_summary,
    }


def cells() -> Iterator[Tuple[str, Dict[str, Any]]]:
    for scheme in SCHEMES:
        yield f"clean/{scheme}", _clean(scheme, **CLEAN_KWARGS.get(scheme, {}))
    yield "clean/prob+straggler", _clean(
        "prob", params=DBOParams(straggler_threshold=30.0)
    )
    for scheme in ("dbo", "prob"):
        for plan_name in PLANS:
            for mode, kwargs in MODES:
                yield f"chaos/{scheme}/{plan_name}/{mode}", _chaos(
                    scheme, plan_name, **kwargs
                )
    for scheme in SCHEMES:
        yield f"chaos/{scheme}/partition/plain", _chaos(
            scheme, "partition", **CLEAN_KWARGS.get(scheme, {})
        )
    for scheme in SCHEMES:
        for label, loss in LOSSES:
            yield f"lossy/{scheme}/{label}", _clean(
                scheme, _lossy_specs(loss), **CLEAN_KWARGS.get(scheme, {})
            )
    for scheme in SCHEMES:
        yield f"dup/{scheme}", _chaos(scheme, "dup-delivery", **CLEAN_KWARGS.get(scheme, {}))


if __name__ == "__main__":
    for name, doc in cells():
        print(json.dumps({"cell": name, **doc}, sort_keys=True, default=repr))
