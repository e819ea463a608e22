"""DBO configuration parameters and their paper defaults.

The three knobs (§4.2.1):

``delta`` (δ)
    The fairness horizon: DBO guarantees LRTF for trades whose response
    time is below δ.  Also the minimum inter-batch delivery gap enforced
    by release-buffer pacing.  Larger δ ⇒ wider guarantee, more latency.
    Paper default for cloud experiments: 20 µs.

``kappa`` (κ)
    Batch-span multiplier: the CES closes a batch every ``(1 + κ)·δ``.
    Because batches are *generated* every ``(1+κ)·δ`` but may be
    *delivered* as fast as one per δ, a release-buffer queue built up by a
    latency spike drains at rate ``1 + κ`` (slope κ/(1+κ) in Figure 7).
    Larger κ ⇒ faster drain after spikes, more batching delay.
    Paper default: 0.25.

``tau`` (τ)
    Heartbeat period.  The ordering buffer can wait up to τ extra before
    it can prove no lower-ordered trade is in flight.  Paper default:
    20 µs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = ["DBOParams", "AggregationTopology", "SupervisionPolicy"]


@dataclass(frozen=True)
class DBOParams:
    """Parameters of a DBO deployment (all times in microseconds)."""

    delta: float = 20.0
    kappa: float = 0.25
    tau: float = 20.0
    # Straggler mitigation (§4.2.1): the OB stops waiting for a
    # participant whose observed round-trip lag exceeds this threshold,
    # and resumes once it recovers.  ``None`` disables mitigation.
    straggler_threshold: float | None = None

    def __post_init__(self) -> None:
        # ``not 0 < x < math.inf`` also rejects NaN.
        if not 0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")
        if not 0 < self.kappa < math.inf:
            raise ValueError("kappa must be positive and finite (batch rate must be "
                             "slower than the pacing dequeue rate)")
        if not 0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")
        if self.straggler_threshold is not None and not 0 < self.straggler_threshold < math.inf:
            raise ValueError("straggler_threshold must be positive and finite when set")

    @property
    def batch_span(self) -> float:
        """Batch generation period ``(1 + κ)·δ`` (µs)."""
        return (1.0 + self.kappa) * self.delta

    @property
    def pacing_gap(self) -> float:
        """Minimum inter-batch delivery gap at the RB: δ (µs)."""
        return self.delta

    @property
    def drain_rate(self) -> float:
        """Queue drain rate after a spike: batch_span / pacing_gap = 1 + κ."""
        return 1.0 + self.kappa

    @property
    def worst_case_added_latency(self) -> float:
        """§4.2.1: at most ``(1 + κ)·δ + τ`` over the latency bound when
        the network is well behaved."""
        return self.batch_span + self.tau

    def with_horizon(self, delta: float, batch_span: float | None = None) -> "DBOParams":
        """A copy with a new horizon; the paper's DBO(x, y) notation sets
        δ = x and batch span (1+κ)δ = y."""
        if batch_span is None:
            return replace(self, delta=delta)
        if batch_span <= delta:
            raise ValueError("batch_span must exceed delta (kappa > 0)")
        return replace(self, delta=delta, kappa=batch_span / delta - 1.0)


@dataclass(frozen=True)
class AggregationTopology:
    """Shape of the hierarchical heartbeat aggregation tree.

    ``depth = 0`` (the default everywhere) is the flat OB, or — when
    ``n_ob_shards > 1`` — the eager two-level §5.2 hierarchy: the same
    shard plane with no interior level and a summary per message.
    ``depth ≥ 1`` switches the heartbeat plane to
    batched tree mode: shard summaries ride per-node
    :class:`~repro.sim.engine.PeriodicTimer` ticks through ``depth - 1``
    levels of transparent forwarding aggregators into the master, making
    the master's per-tick heartbeat work O(tree width) instead of O(N).

    Frozen and hashable so it travels through the scheme registry and
    pickles into :class:`~repro.parallel.matrix.CellSpec` workers.
    """

    fanout: int = 8
    depth: int = 0

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ValueError("depth must be non-negative")
        if self.fanout < 2:
            raise ValueError("fanout must be at least 2")

    @property
    def enabled(self) -> bool:
        return self.depth > 0

    def n_shards_for(self, n_participants: int) -> int:
        """Leaf count when the deployment did not pin ``n_ob_shards``:
        one shard per ``fanout`` participants."""
        return max(1, (n_participants + self.fanout - 1) // self.fanout)


@dataclass(frozen=True)
class SupervisionPolicy:
    """Failure-detection and supervised-recovery knobs.

    The :class:`~repro.faults.detector.FailureDetector` scores each
    monitored endpoint with a phi-accrual-style suspicion: the time since
    the endpoint's last observed pulse, divided by the windowed mean of
    its recent inter-pulse gaps.  The :class:`~repro.core.supervisor.Supervisor`
    escalates SUSPECT endpoints through deterministic probes before it
    confirms death and drives a recovery protocol.

    Frozen and hashable so it travels through the scheme registry and
    pickles into :class:`~repro.parallel.matrix.CellSpec` workers.
    """

    # Inter-pulse gap history per endpoint (sliding window length).
    detector_window: int = 8
    # Detector poll cadence in µs; ``None`` inherits the deployment's
    # heartbeat period τ.
    check_interval: float | None = None
    # SUSPECT once (now - last_pulse) exceeds this many expected gaps.
    suspect_after: float = 3.0
    # CONFIRM_DEAD after this many consecutive failed probes.
    confirm_after: int = 2
    # Probe k waits ``check_interval * probe_backoff**k`` before the next.
    probe_backoff: float = 2.0
    # Safety valve: a warm-up hold is force-lifted after this many µs if
    # a recovery marker was itself lost to a compound fault.
    warmup_timeout: float = 10_000.0

    def __post_init__(self) -> None:
        if self.detector_window < 2:
            raise ValueError("detector_window must be at least 2")
        if self.check_interval is not None and not 0 < self.check_interval < math.inf:
            raise ValueError("check_interval must be positive and finite when set")
        if not 1.0 < self.suspect_after < math.inf:
            raise ValueError("suspect_after must exceed 1 expected gap and be finite")
        if self.confirm_after < 1:
            raise ValueError("confirm_after must be at least 1")
        if not 1.0 <= self.probe_backoff < math.inf:
            raise ValueError("probe_backoff must be at least 1.0 and finite")
        if not 0 < self.warmup_timeout < math.inf:
            raise ValueError("warmup_timeout must be positive and finite")
