"""Persist run results to JSON for offline analysis.

A :class:`~repro.metrics.records.RunResult` holds one non-serializable
member — the ``reverse_latency_at`` accessor used by the Max-RTT bound.
To keep saved results self-contained, the serializer *materializes* the
bound per trade before writing (when the accessor is present), so the
file alone can still report every paper metric.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from itertools import islice
from typing import Any, Dict, List, Optional

from repro.metrics.latency import max_rtt_bound_per_trade
from repro.metrics.records import UNFORWARDED, RunResult, TradeTable

__all__ = [
    "run_result_to_dict",
    "save_run_result",
    "trade_ordering_digest",
    "summary_to_dict",
]

_FORMAT_VERSION = 1

# Trades per hashed chunk of :func:`trade_ordering_digest`'s payload.
_DIGEST_CHUNK = 4096


def _trades_to_dicts(trades: TradeTable) -> List[Dict[str, Any]]:
    """One dict per row, ``None`` where the trade never reached the ME."""
    mp_ids = trades.mp_ids
    return [
        {
            "mp_id": mp_ids[slot],
            "trade_seq": trade_seq,
            "trigger_point": trigger_point,
            "response_time": response_time,
            "submission_time": submission_time,
            "forward_time": None if math.isnan(forward_time) else forward_time,
            "position": None if position == UNFORWARDED else position,
        }
        for slot, trade_seq, trigger_point, response_time, submission_time, forward_time, position
        in zip(
            trades.mp_slots, trades.trade_seqs, trades.trigger_points, trades.response_times,
            trades.submission_times, trades.forward_times, trades.positions,
        )
    ]


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
        "trades": _trades_to_dicts(result.trades),
        # JSON objects have string keys.  Sorted iteration everywhere:
        # the on-disk key order must not depend on dict insertion history
        # (DBO103).
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


def trade_ordering_digest(result: RunResult) -> str:
    """SHA-256 digest of the run's matching-engine trade ordering.

    Covers every trade that reached the matching engine (``position`` not
    ``None``), in position order (the table's ``intake``, so no sort) — the
    determinism invariant the engine
    refactors must preserve: identical seeds ⇒ identical digest.  Robust
    to sub-µs timestamp jitter because only the *ordering* is hashed.

    The payload is ``"{mp_id}:{trade_seq}:{position};"`` per trade, fed to
    the hash :data:`_DIGEST_CHUNK` trades at a time rather than joined
    whole: the same bytes, so the same digest, without a payload string
    as large as the run.
    """
    trades = result.trades
    mp_ids, slots, seqs, positions = (
        trades.mp_ids, trades.mp_slots, trades.trade_seqs, trades.positions
    )
    entries = (f"{mp_ids[slots[row]]}:{seqs[row]}:{positions[row]};" for row in trades.intake)
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
