"""Declarative fault plans.

A :class:`FaultSpec` names one fault: its kind, trigger time, target,
and (for transient faults) duration.  A :class:`FaultSchedule` is an
ordered collection of specs, loadable from a JSON document so chaos
scenarios can live next to experiment configs instead of in code.

Supported kinds
---------------
``link_burst_loss``
    The target participant's link drops each packet with probability
    ``magnitude`` for ``duration`` µs (congestion collapse; no
    out-of-band recovery, unlike the steady-state Appendix D losses).
``latency_degradation``
    The target's link latency becomes ``factor·base + magnitude`` for
    ``duration`` µs (``None`` = rest of the run) — a slow zone or an
    overloaded NIC.
``partition``
    The target's link blackholes every packet for ``duration`` µs.
``rb_crash``
    The target participant's release buffer fail-stops at ``at``; with a
    ``duration`` it restarts afterwards and its delivery clock re-anchors
    on the next fresh batch (§4.2.1's RB/MP failure scenario).
``ob_failover``
    The ordering buffer crashes, losing its queue, and a cold standby
    that inherits the release log takes over (flat OB only).
``shard_failure``
    The named OB shard fail-stops; the master stops waiting on it and
    surviving shards adopt its participants (§5.2 hierarchy).
``gateway_stall``
    The egress gateway stops draining for ``duration`` µs (process
    hang): outbound data waits, nothing leaks early.
``duplicate_delivery``
    The addressed channel turns at-least-once for ``duration`` µs: each
    message is delivered twice with probability ``magnitude`` (retry
    storms, misbehaving middleboxes).  Receivers must dedup — the OB by
    trade key, data channels by point/batch identity.
``aggregator_failure``
    The named interior aggregation-tree node fail-stops; its children
    are re-parented under the dead node's parent (tree mode only).
``ces_hiccup``
    The market-data feed hangs for ``duration`` µs (the CES tick chain
    pauses); generation resumes one cadence gap after the heal.
``clock_drift``
    The target participant's RB local clock suddenly drifts faster
    (positive ``magnitude``) or slower (negative) by that rate — an NTP
    step or thermal event.  The clock reading stays continuous; the RB's
    heartbeat cadence follows the skewed clock.  With a ``duration`` the
    original drift rate is restored afterwards.  DBO only consumes clock
    *intervals*, so drift must never break safety — the claim the
    ``drift-storm`` chaos plan stresses.

Addressing
----------
A link kind (and ``duplicate_delivery``) addresses a participant's legs
via ``target`` + ``direction``, which name its ``fwd-{mp}`` and/or
``rev-{mp}`` channels, or names message-plane channels directly via
``channel`` — e.g. ``"ack-mp3"``, ``"agg-shard-0"``, ``"egress"`` —
reaching control paths that have no participant leg.  Either way the
fault acts on channels, resolved when it fires.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.net.trace import NetworkTrace

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultSchedule"]

FAULT_KINDS = frozenset(
    {
        "link_burst_loss",
        "latency_degradation",
        "partition",
        "rb_crash",
        "ob_failover",
        "shard_failure",
        "gateway_stall",
        "duplicate_delivery",
        "clock_drift",
        "aggregator_failure",
        "ces_hiccup",
    }
)

# Kinds that act on one participant's network leg (need target+direction).
_LINK_KINDS = frozenset({"link_burst_loss", "latency_degradation", "partition"})
# Kinds that may address a message-plane channel by name instead.
_CHANNEL_KINDS = _LINK_KINDS | {"duplicate_delivery"}
# Kinds whose duration is mandatory (a permanent variant is meaningless
# or would trivially stall the run).
_DURATION_REQUIRED = frozenset(
    {"link_burst_loss", "partition", "gateway_stall", "duplicate_delivery",
     "ces_hiccup"}
)
_DIRECTIONS = ("forward", "reverse", "both")


@dataclass(frozen=True)
class FaultSpec:
    """One fault: what, when, against whom, and for how long.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    at:
        Trigger time (µs since run start).
    target:
        Participant id for link/RB faults, shard id for
        ``shard_failure``; unused for ``ob_failover``/``gateway_stall``.
    duration:
        How long the fault lasts; ``None`` means permanent (where the
        kind allows it).
    magnitude:
        Loss probability (``link_burst_loss``) or additive extra latency
        in µs (``latency_degradation``).
    factor:
        Multiplicative latency factor (``latency_degradation`` only).
    direction:
        Which leg a link fault hits: ``forward`` (market data),
        ``reverse`` (trades/heartbeats), or ``both``.
    seed:
        Per-fault randomness salt (burst-loss / duplication draws).
    channel:
        Message-plane channel name (e.g. ``"ack-mp0"``); an alternative
        address for link kinds and the only address for
        ``duplicate_delivery`` control-path faults.
    """

    kind: str
    at: float
    target: Optional[str] = None
    duration: Optional[float] = None
    magnitude: float = 0.0
    factor: float = 1.0
    direction: str = "forward"
    seed: int = 0
    channel: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {sorted(FAULT_KINDS)}"
            )
        # Written ``not lo <= x < inf`` so that NaN, for which every
        # comparison is false, is rejected with infinity.
        if not 0 <= self.at < math.inf:
            raise ValueError(f"fault trigger time must be non-negative and finite, got {self.at}")
        if self.duration is not None and not 0 < self.duration < math.inf:
            raise ValueError(f"fault duration must be positive and finite when given, got {self.duration}")
        if not -math.inf < self.magnitude < math.inf:
            raise ValueError(f"fault magnitude must be finite, got {self.magnitude}")
        if not 0 < self.factor < math.inf:
            raise ValueError(f"fault factor must be positive and finite, got {self.factor}")
        if self.kind in _DURATION_REQUIRED and self.duration is None:
            raise ValueError(f"{self.kind} requires a duration")
        if (
            self.kind in {"ob_failover", "shard_failure", "aggregator_failure"}
            and self.duration is not None
        ):
            raise ValueError(f"{self.kind} is instantaneous; it takes no duration")
        if self.channel is not None and self.kind not in _CHANNEL_KINDS:
            raise ValueError(f"{self.kind} does not address a channel")
        if self.channel is not None and self.target is not None:
            raise ValueError("give either a channel or a target, not both")
        if self.kind in _CHANNEL_KINDS:
            if not self.target and not self.channel:
                raise ValueError(f"{self.kind} requires a target or a channel")
        elif self.kind in {
            "rb_crash", "shard_failure", "clock_drift", "aggregator_failure"
        }:
            if not self.target:
                raise ValueError(f"{self.kind} requires a target")
        elif self.kind == "ces_hiccup" and self.target is not None:
            raise ValueError("ces_hiccup is global; it takes no target")
        if self.kind in _CHANNEL_KINDS and self.direction not in _DIRECTIONS:
            raise ValueError(f"direction must be one of {_DIRECTIONS}")
        if self.kind == "link_burst_loss" and not 0.0 < self.magnitude <= 1.0:
            raise ValueError("link_burst_loss needs magnitude in (0, 1]")
        if self.kind == "duplicate_delivery" and not 0.0 < self.magnitude <= 1.0:
            raise ValueError("duplicate_delivery needs magnitude in (0, 1]")
        if self.kind == "clock_drift":
            if self.magnitude <= -1.0:
                raise ValueError("clock_drift magnitude must exceed -1 (the "
                                 "clock cannot run backwards)")
            if self.magnitude == 0.0:
                raise ValueError("clock_drift must change the drift rate")
        if self.kind == "latency_degradation":
            if self.magnitude < 0:
                raise ValueError("latency_degradation magnitude (extra µs) must be >= 0")
            if self.magnitude == 0 and self.factor == 1.0:
                raise ValueError("latency_degradation must change something")

    @property
    def ends_at(self) -> Optional[float]:
        """Recovery time, or ``None`` for permanent faults."""
        if self.duration is None:
            return None
        return self.at + self.duration

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind, "at": self.at}
        if self.target is not None:
            out["target"] = self.target
        if self.duration is not None:
            out["duration"] = self.duration
        if self.magnitude:
            out["magnitude"] = self.magnitude
        if self.factor != 1.0:
            out["factor"] = self.factor
        if self.direction != "forward":
            out["direction"] = self.direction
        if self.seed:
            out["seed"] = self.seed
        if self.channel is not None:
            out["channel"] = self.channel
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSpec":
        allowed = {
            "kind", "at", "target", "duration", "magnitude", "factor",
            "direction", "seed", "channel",
        }
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(f"unknown fault fields: {sorted(unknown)}")
        if "kind" not in data or "at" not in data:
            raise ValueError("a fault needs at least 'kind' and 'at'")
        try:
            return cls(**data)
        except TypeError as error:  # e.g. a string where a number goes
            raise ValueError(f"malformed fault {data!r}: {error}") from None


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered fault plan (sorted by trigger time, stable on input order)."""

    faults: Tuple[FaultSpec, ...] = ()
    name: str = "chaos"

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(enumerate(self.faults), key=lambda pair: (pair[1].at, pair[0]))
        )
        object.__setattr__(self, "faults", tuple(spec for _, spec in ordered))

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    @property
    def kinds(self) -> List[str]:
        return [fault.kind for fault in self.faults]

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "faults": [fault.to_dict() for fault in self.faults]}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultSchedule":
        if not isinstance(data, dict) or "faults" not in data:
            raise ValueError("a fault plan is a dict with a 'faults' list")
        faults = tuple(FaultSpec.from_dict(entry) for entry in data["faults"])
        return cls(faults=faults, name=data.get("name", "chaos"))

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "FaultSchedule":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    @classmethod
    def of(cls, *faults: FaultSpec, name: str = "chaos") -> "FaultSchedule":
        return cls(faults=tuple(faults), name=name)

    @classmethod
    def from_trace(
        cls,
        trace: "NetworkTrace",
        threshold: Optional[float] = None,
        target: Optional[str] = None,
        channel: Optional[str] = None,
        direction: str = "forward",
        scale: float = 1.0,
        name: str = "trace",
    ) -> "FaultSchedule":
        """Derive ``latency_degradation`` windows from a measured RTT trace.

        The §6.4 methodology in reverse: where
        :func:`repro.net.trace.generate_figure11_trace` synthesizes the
        paper's cloud RTT timeseries, this turns such a trace back into a
        replayable fault plan.  Every excursion of the trace above
        ``threshold`` (default: its 95th percentile) becomes one
        ``latency_degradation`` window ``[start, end)`` whose extra
        one-way latency is ``scale · (peak − threshold) / 2`` — half,
        because the trace measures round trips.

        Address the faults at a participant leg (``target`` +
        ``direction``) or a named channel (``channel``), exactly like a
        hand-written spec.
        """
        if (target is None) == (channel is None):
            raise ValueError("give exactly one of target or channel")
        if threshold is None:
            threshold = trace.percentile(95.0)
        samples = list(zip(trace.times, trace.values))
        if not samples:
            raise ValueError("empty trace")
        faults: List[FaultSpec] = []
        start: Optional[float] = None
        peak = 0.0

        def close(end: float) -> None:
            assert start is not None
            duration = end - start
            if duration <= 0:
                # A one-sample spike at the trace edge: give it one
                # sampling interval of effect.
                gap = samples[1][0] - samples[0][0] if len(samples) > 1 else 1.0
                duration = gap
            faults.append(
                FaultSpec(
                    kind="latency_degradation",
                    at=start,
                    duration=duration,
                    magnitude=scale * (peak - threshold) / 2.0,
                    target=target,
                    channel=channel,
                    direction=direction,
                )
            )

        for time, value in samples:
            if value > threshold:
                if start is None:
                    start = time
                    peak = value
                else:
                    peak = max(peak, value)
            elif start is not None:
                close(time)
                start = None
        if start is not None:
            close(samples[-1][0])
        return cls(faults=tuple(faults), name=name)
