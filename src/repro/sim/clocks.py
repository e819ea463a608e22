"""Clock substrate: drifting local clocks and (im)perfect synchronization.

The paper's threat model (§3, "Assumptions") is precise about clocks:

* **No synchronization is assumed.**  DBO never compares absolute
  timestamps from different machines; it only measures *intervals* locally
  at each release buffer.
* **Clock-drift rate is negligible** (< 0.02 % in practice, citing
  Sundial), so intervals measured locally are accurate to first order.
* CloudEx, by contrast, *requires* synchronized clocks, and §6.4 evaluates
  it assuming perfect synchronization.

This module models exactly that spectrum:

``DriftingClock``
    ``local = offset + (1 + drift) * true_time``.  DBO components use these
    to show the guarantees hold with arbitrary offsets and realistic drift.

``SynchronizedClock``
    A drifting clock plus a bounded, time-varying synchronization *error*,
    used to study CloudEx's sensitivity to imperfect sync.  With
    ``error_bound=0`` it degenerates to a perfect clock (the paper's §6.4
    assumption).
"""

from __future__ import annotations

import math
from repro.sim.randomness import stable_unit

__all__ = ["Clock", "DriftingClock", "SynchronizedClock", "PerfectClock"]


class Clock:
    """Interface: map true simulated time to this component's local time."""

    def now(self, true_time: float) -> float:
        """Local reading when the true (simulated) time is ``true_time``."""
        raise NotImplementedError

    def elapsed(self, true_start: float, true_end: float) -> float:
        """Locally-measured interval between two true times."""
        return self.now(true_end) - self.now(true_start)

    def interval_to_true(self, local_interval: float) -> float:
        """True-time duration corresponding to a locally measured interval.

        Used by components that enforce local timing constraints (e.g.
        release-buffer pacing enforces a ≥ δ gap *as measured locally*).
        The default assumes no rate error.
        """
        return local_interval


class DriftingClock(Clock):
    """A free-running local clock with offset and constant drift rate.

    Parameters
    ----------
    offset:
        Reading of this clock at true time 0 (microseconds).  Arbitrary —
        DBO must be insensitive to it.
    drift_rate:
        Fractional frequency error: local time advances ``(1 + drift_rate)``
        per unit of true time.  Typical datacenter values are below 2e-4
        (Sundial [16]); DBO's interval measurements inherit only this
        second-order error.
    """

    def __init__(self, offset: float = 0.0, drift_rate: float = 0.0) -> None:
        if drift_rate <= -1.0:
            raise ValueError("drift_rate must be > -1 (clock must advance)")
        self.offset = float(offset)
        self.drift_rate = float(drift_rate)

    def now(self, true_time: float) -> float:
        return self.offset + (1.0 + self.drift_rate) * true_time

    def invert(self, local_time: float) -> float:
        """True time at which this clock reads ``local_time``."""
        return (local_time - self.offset) / (1.0 + self.drift_rate)

    def interval_to_true(self, local_interval: float) -> float:
        return local_interval / (1.0 + self.drift_rate)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DriftingClock(offset={self.offset}, drift_rate={self.drift_rate})"


class PerfectClock(Clock):
    """A clock that reads true time exactly.  Used for ideal baselines."""

    def now(self, true_time: float) -> float:
        return true_time


class SynchronizedClock(Clock):
    """A clock disciplined by a synchronization protocol with bounded error.

    The local reading is ``true_time + e(t)`` where ``|e(t)| <= error_bound``
    and ``e`` wanders smoothly (a deterministic, seeded low-frequency
    waveform), modelling residual error after PTP-style sync.  The paper's
    impossibility discussion (§2.1) notes that with unbounded network
    latency the error is unbounded; here the bound is an *input* so
    experiments can sweep it.

    Parameters
    ----------
    error_bound:
        Maximum absolute synchronization error, microseconds.
    seed:
        Seeds the error waveform so distinct components err differently.
    wander_period:
        Characteristic period of the error waveform, microseconds.
    """

    def __init__(
        self,
        error_bound: float = 0.0,
        seed: int = 0,
        wander_period: float = 1_000_000.0,
    ) -> None:
        if error_bound < 0:
            raise ValueError("error_bound must be non-negative")
        if wander_period <= 0:
            raise ValueError("wander_period must be positive")
        self.error_bound = float(error_bound)
        self.seed = int(seed)
        self.wander_period = float(wander_period)
        # Deterministic phase/mix in [0, 1): each seed gets its own waveform.
        self._phase = stable_unit(seed, 0) * 2.0 * math.pi
        self._mix = stable_unit(seed, 1)

    def error_at(self, true_time: float) -> float:
        """Synchronization error at ``true_time`` (bounded, smooth)."""
        if self.error_bound == 0.0:
            return 0.0
        w = 2.0 * math.pi * true_time / self.wander_period
        raw = (1.0 - self._mix) * math.sin(w + self._phase) + self._mix * math.sin(
            0.37 * w + 2.0 * self._phase
        )
        # raw is in [-1, 1] by construction of the convex mix.
        return self.error_bound * raw

    def now(self, true_time: float) -> float:
        return true_time + self.error_at(true_time)
