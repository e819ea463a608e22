"""Persist run results to JSON for offline analysis.

A :class:`~repro.metrics.records.RunResult` holds one non-serializable
member — the ``reverse_latency_at`` accessor used by the Max-RTT bound.
To keep saved results self-contained, the serializer *materializes* the
bound per trade before writing (when the accessor is present), so a
loaded result can still report every paper metric.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from itertools import islice
from typing import Any, Dict, List, Optional

from repro.metrics.latency import max_rtt_bound_per_trade
from repro.metrics.records import RunResult, TradeRecord

__all__ = [
    "run_result_to_dict",
    "run_result_from_dict",
    "save_run_result",
    "load_run_result",
    "trade_ordering_digest",
    "summary_to_dict",
]

_FORMAT_VERSION = 1

# Trades per hashed chunk of :func:`trade_ordering_digest`'s payload.
_DIGEST_CHUNK = 4096


def _point_key(item) -> int:
    """Numeric sort for JSON-stringified point-id keys ("10" after "2")."""
    return int(item[0])


def run_result_to_dict(result: RunResult) -> Dict[str, Any]:
    """A JSON-safe dict capturing the full run (bounds materialized)."""
    bounds: Optional[List[float]] = None
    if result.reverse_latency_at is not None:
        bounds = max_rtt_bound_per_trade(result)
    return {
        "format_version": _FORMAT_VERSION,
        "scheme": result.scheme,
        "duration": result.duration,
        "counters": dict(result.counters),
        "channels": {name: dict(c) for name, c in sorted(result.channels.items())},
        "trades": [
            {
                "mp_id": t.mp_id,
                "trade_seq": t.trade_seq,
                "trigger_point": t.trigger_point,
                "response_time": t.response_time,
                "submission_time": t.submission_time,
                "forward_time": t.forward_time,
                "position": t.position,
            }
            for t in result.trades
        ],
        # JSON objects have string keys; convert back on load.  Sorted
        # iteration everywhere: the on-disk key order must not depend on
        # dict insertion history (DBO103).
        "generation_times": {
            str(k): v for k, v in sorted(result.generation_times.items())
        },
        "network_send_times": {
            str(k): v for k, v in sorted(result.network_send_times.items())
        },
        "raw_arrivals": {
            mp: {str(k): v for k, v in sorted(points.items())}
            for mp, points in sorted(result.raw_arrivals.items())
        },
        "delivery_times": {
            mp: {str(k): v for k, v in sorted(points.items())}
            for mp, points in sorted(result.delivery_times.items())
        },
        "max_rtt_bounds": bounds,
    }


def run_result_from_dict(data: Dict[str, Any]) -> RunResult:
    """Rebuild a :class:`RunResult` saved by :func:`run_result_to_dict`.

    The ``reverse_latency_at`` accessor cannot be restored; the
    materialized Max-RTT bounds are attached as
    ``result.counters['_max_rtt_bounds']``-adjacent extra (returned via
    the dict's ``max_rtt_bounds`` key — use :func:`load_run_result` which
    returns both).
    """
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported run-result format version: {version!r}")
    trades = [
        TradeRecord(
            mp_id=t["mp_id"],
            trade_seq=t["trade_seq"],
            trigger_point=t["trigger_point"],
            response_time=t["response_time"],
            submission_time=t["submission_time"],
            forward_time=t["forward_time"],
            position=t["position"],
        )
        for t in data["trades"]
    ]
    return RunResult(
        scheme=data["scheme"],
        trades=trades,
        generation_times={
            int(k): v
            for k, v in sorted(data["generation_times"].items(), key=_point_key)
        },
        network_send_times={
            int(k): v
            for k, v in sorted(data["network_send_times"].items(), key=_point_key)
        },
        raw_arrivals={
            mp: {int(k): v for k, v in sorted(points.items(), key=_point_key)}
            for mp, points in sorted(data["raw_arrivals"].items())
        },
        delivery_times={
            mp: {int(k): v for k, v in sorted(points.items(), key=_point_key)}
            for mp, points in sorted(data["delivery_times"].items())
        },
        reverse_latency_at=None,
        duration=data["duration"],
        counters=dict(data["counters"]),
        # Lenient: results saved before the message plane existed load fine.
        channels={
            name: dict(c) for name, c in sorted(data.get("channels", {}).items())
        },
    )


def trade_ordering_digest(result: RunResult) -> str:
    """SHA-256 digest of the run's matching-engine trade ordering.

    Covers every trade that reached the matching engine (``position`` not
    ``None``), in position order — the determinism invariant the engine
    refactors must preserve: identical seeds ⇒ identical digest.  Robust
    to sub-µs timestamp jitter because only the *ordering* is hashed.

    The payload is ``"{mp_id}:{trade_seq}:{position};"`` per trade, fed to
    the hash :data:`_DIGEST_CHUNK` trades at a time rather than joined
    whole: the same bytes, so the same digest, without a payload string
    as large as the run.
    """
    ordered = sorted(
        (t for t in result.trades if t.position is not None),
        key=lambda t: t.position,
    )
    entries = (f"{t.mp_id}:{t.trade_seq}:{t.position};" for t in ordered)
    digest = hashlib.sha256()
    while True:
        chunk = "".join(islice(entries, _DIGEST_CHUNK))
        if not chunk:
            return digest.hexdigest()
        digest.update(chunk.encode("ascii"))


def summary_to_dict(summary: Any) -> Dict[str, Any]:
    """JSON-safe dict of a :class:`~repro.experiments.runner.SchemeSummary`.

    Accepted duck-typed (any object with scheme/fairness/latency/max_rtt/
    completion/counters) so this metrics-layer module does not import the
    experiments layer.
    """
    fairness = dataclasses.asdict(summary.fairness)
    fairness["ratio"] = summary.fairness.ratio
    fairness["percent"] = summary.fairness.percent
    return {
        "scheme": summary.scheme,
        "fairness": fairness,
        "latency": dataclasses.asdict(summary.latency),
        "max_rtt": (
            dataclasses.asdict(summary.max_rtt) if summary.max_rtt is not None else None
        ),
        "completion": summary.completion,
        "counters": dict(summary.counters),
        # Per-channel message-plane odometers; older summaries lack them.
        "channels": {
            name: dict(c)
            for name, c in sorted((getattr(summary, "channels", {}) or {}).items())
        },
    }


def save_run_result(result: RunResult, path: str) -> None:
    """Write a run result as JSON."""
    with open(path, "w") as handle:
        json.dump(run_result_to_dict(result), handle)


def load_run_result(path: str):
    """Load a saved run: returns ``(RunResult, max_rtt_bounds or None)``."""
    with open(path) as handle:
        data = json.load(handle)
    return run_result_from_dict(data), data.get("max_rtt_bounds")
