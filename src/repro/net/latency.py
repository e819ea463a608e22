"""Time-indexed network latency models.

The paper's problem setting is a network whose latency is *unpredictable
and unbounded* (§1-§3).  Its cloud measurements (Figure 11) show a
characteristic shape: a stable base latency with small jitter, punctuated
by rare spikes up to ~20x the base that decay over hundreds of
microseconds, plus strong *temporal correlation* over short horizons
(§4.1.1 Remark, §6.3.2).

Every model here implements ``latency_at(t)`` — the one-way latency a
packet *sent at true time t* experiences — as a deterministic function of
``(seed, t)``.  Determinism buys two things:

1. Reproducible experiments (same seed, same run).
2. The Max-RTT bound of Theorem 3 can be evaluated for *hypothetical*
   packets (the paper computes the bound from the same trace as the DBO
   run; we do the equivalent by re-querying the model).

FIFO (in-order) delivery is *not* a property of these models; it is
enforced by :class:`repro.net.link.Link`, matching the paper's in-order
delivery assumption (§3).
"""

from __future__ import annotations

import bisect
import math
from typing import List, Sequence, Tuple

from repro.sim.randomness import (
    _GOLDEN,
    _MASK64,
    splitmix64,
    stable_exponential,
    stable_u64,
    stable_unit,
)

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "UniformJitterLatency",
    "NormalJitterLatency",
    "SpikeSchedule",
    "CloudLatencyModel",
    "TraceLatency",
    "CompositeLatency",
    "StepLatency",
    "DegradedLatency",
]


class LatencyModel:
    """Interface: one-way latency for a packet sent at true time ``t``."""

    def latency_at(self, t: float) -> float:
        """Latency (microseconds) experienced by a packet sent at ``t``."""
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Fixed latency — the idealized equal-latency on-premise network."""

    def __init__(self, latency: float) -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.latency = float(latency)

    def latency_at(self, t: float) -> float:
        return self.latency


class UniformJitterLatency(LatencyModel):
    """Base latency plus uniform jitter in ``[0, jitter)``.

    Jitter is sampled per *microsecond-resolution send slot* so that two
    packets sent very close together see correlated latency (preserving
    the FIFO-friendliness of real networks), while packets sent far apart
    are independent.
    """

    def __init__(
        self,
        base: float,
        jitter: float,
        seed: int = 0,
        slot: float = 1.0,
    ) -> None:
        if base < 0 or jitter < 0:
            raise ValueError("base and jitter must be non-negative")
        if slot <= 0:
            raise ValueError("slot must be positive")
        self.base = float(base)
        self.jitter = float(jitter)
        self.seed = int(seed)
        self.slot = float(slot)
        # The first SplitMix64 round of stable_unit(seed, index) depends
        # only on the seed; hoist it so the per-call cost is one round.
        self._state0 = splitmix64(self.seed & _MASK64)
        # One-slot memo: packets sent within the same send slot share the
        # draw (by construction), so cache the last (index, value) pair.
        self._memo_index: int = -1
        self._memo_value: float = self.base + self.jitter * stable_unit(self.seed, -1)

    def latency_at(self, t: float) -> float:
        index = math.floor(t / self.slot)  # an int: math.floor of a float
        if index == self._memo_index:
            return self._memo_value
        # Inline splitmix64((state0 ^ index) & MASK) / 2**64 — identical
        # arithmetic to stable_unit(self.seed, index).
        z = ((self._state0 ^ (index & _MASK64)) + _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z = (z ^ (z >> 31)) & _MASK64
        value = self.base + self.jitter * (z / 18446744073709551616.0)
        self._memo_index = index
        self._memo_value = value
        return value


class NormalJitterLatency(LatencyModel):
    """Base latency plus half-normal jitter (never below ``base``).

    Matches the right-skewed body of datacenter latency distributions; the
    half-normal keeps the minimum pinned at the propagation delay.
    """

    def __init__(
        self,
        base: float,
        sigma: float,
        seed: int = 0,
        slot: float = 1.0,
    ) -> None:
        if base < 0 or sigma < 0:
            raise ValueError("base and sigma must be non-negative")
        self.base = float(base)
        self.sigma = float(sigma)
        self.seed = int(seed)
        self.slot = float(slot)

    def latency_at(self, t: float) -> float:
        index = int(math.floor(t / self.slot))
        u1 = max(stable_unit(self.seed, index, 0), 1e-12)
        u2 = stable_unit(self.seed, index, 1)
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        return self.base + self.sigma * abs(z)


class SpikeSchedule:
    """Deterministic schedule of latency spikes with exponential decay.

    Spike arrivals form a Poisson process (inter-arrival times drawn with
    the stable RNG, materialized lazily per horizon window), each spike
    has an amplitude and decays with time constant ``decay``.  The
    contribution at time ``t`` is the sum over recent spikes of
    ``amplitude * exp(-(t - start) / decay)`` — reproducing the sawtooth
    spikes of Figure 11.
    """

    def __init__(
        self,
        rate_per_second: float,
        amplitude_mean: float,
        decay: float,
        seed: int = 0,
        amplitude_max_factor: float = 3.0,
    ) -> None:
        if rate_per_second < 0:
            raise ValueError("rate must be non-negative")
        if decay <= 0:
            raise ValueError("decay must be positive")
        self.rate_per_second = float(rate_per_second)
        self.amplitude_mean = float(amplitude_mean)
        self.decay = float(decay)
        self.seed = int(seed)
        self.amplitude_max_factor = float(amplitude_max_factor)
        self._spikes: List[Tuple[float, float]] = []  # (start, amplitude)
        # Every spike starting at or before this time is in `_spikes`
        # (spikes start at t >= 1, so the empty list covers t = 0).
        self._materialized_until = 0.0
        # The quiet window: contribution_at(t) is exactly 0.0 for
        # quiet_from <= t < quiet_until.  Left by the last query that
        # found no spike in range (empty until then).
        self.quiet_from = math.inf
        self.quiet_until = -math.inf

    def _materialize(self, until: float) -> None:
        """Extend the spike list past ``until + 4·decay`` deterministically.

        Records the horizon actually covered — the last spike's start
        minus ``4·decay``, beyond ``until`` — so queries up to it never
        come back here: each call appends at least one spike.
        """
        if self.rate_per_second == 0.0:
            self._materialized_until = math.inf
            return
        mean_gap = 1e6 / self.rate_per_second  # microseconds between spikes
        index = len(self._spikes)
        t = self._spikes[-1][0] if self._spikes else 0.0
        while t <= until + 4.0 * self.decay:
            gap = stable_exponential(mean_gap, self.seed, index, 0)
            t += max(gap, 1.0)
            amplitude = stable_exponential(self.amplitude_mean, self.seed, index, 1)
            amplitude = min(amplitude, self.amplitude_max_factor * self.amplitude_mean)
            self._spikes.append((t, amplitude))
            index += 1
        # Spikes are generated in start order, so any spike still missing
        # starts after t, past every query up to t - 4·decay.
        self._materialized_until = t - 4.0 * self.decay

    def contribution_at(self, t: float) -> float:
        """Total spike-induced extra latency at time ``t``."""
        if t < 0:
            return 0.0
        if t > self._materialized_until:
            self._materialize(t)
        spikes = self._spikes
        decay = self.decay
        total = 0.0
        # Only spikes within ~12 decay constants matter (exp(-12) ≈ 6e-6).
        index = bisect.bisect_left(spikes, (t - 12.0 * decay, -1.0))
        end = len(spikes)
        if index == end or spikes[index][0] > t:
            # No spike in range, and none enters it before the next one
            # starts (the range's lower edge only moves up with t).
            self.quiet_from = t
            self.quiet_until = spikes[index][0] if index < end else math.inf
            return total
        while index < end:
            spike_start, amplitude = spikes[index]
            if spike_start > t:
                break
            total += amplitude * math.exp(-(t - spike_start) / decay)
            index += 1
        return total


class CloudLatencyModel(LatencyModel):
    """The cloud network of Figure 11: base + jitter + decaying spikes.

    Defaults are calibrated to the paper's Azure measurements: ~27 µs
    one-way base (Table 3 Direct p50 ≈ 27.5 µs is one data-delivery plus
    one trade leg), small jitter, and rare spikes reaching several hundred
    microseconds that drain over ~10 ms (Figure 11 shows ~600 µs peaks
    roughly every 250 ms).
    """

    def __init__(
        self,
        base: float = 13.5,
        jitter: float = 1.5,
        spike_rate_per_second: float = 4.0,
        spike_amplitude_mean: float = 150.0,
        spike_decay: float = 8000.0,
        seed: int = 0,
        slot: float = 1.0,
    ) -> None:
        self.base_model = UniformJitterLatency(base, jitter, seed=seed, slot=slot)
        self.spikes = SpikeSchedule(
            rate_per_second=spike_rate_per_second,
            amplitude_mean=spike_amplitude_mean,
            decay=spike_decay,
            seed=stable_u64(seed, 0xC10D),
        )

    def latency_at(self, t: float) -> float:
        latency = self.base_model.latency_at(t)
        spikes = self.spikes
        if spikes.quiet_from <= t < spikes.quiet_until:
            # The spike term is exactly 0.0 here, and latency + 0.0 is
            # latency (never -0.0): skip the call.
            return latency
        return latency + spikes.contribution_at(t)


class TraceLatency(LatencyModel):
    """Latency replayed from a recorded (or synthesized) trace.

    This is the paper's §6.4 methodology: "We use a network trace of round
    trip times ... The one-way latencies between CES and each RB are
    calculated by taking random slices of the network trace and halving
    the RTTs."  ``offset`` implements the random slice; ``scale=0.5``
    implements the halving.  The trace wraps around cyclically.

    Parameters
    ----------
    times:
        Monotonically increasing sample times, microseconds.
    values:
        Latency at each sample time, microseconds.
    offset:
        Slice offset into the trace (the packet sent at ``t`` sees the
        trace at ``offset + t``).
    scale:
        Multiplier applied to trace values (0.5 turns RTT into one-way).
    """

    def __init__(
        self,
        times: Sequence[float],
        values: Sequence[float],
        offset: float = 0.0,
        scale: float = 1.0,
    ) -> None:
        if len(times) != len(values):
            raise ValueError("times and values must have equal length")
        if len(times) < 2:
            raise ValueError("a trace needs at least two samples")
        for earlier, later in zip(times, times[1:]):
            if later <= earlier:
                raise ValueError("trace times must be strictly increasing")
        self.times = [float(x) for x in times]
        self.values = [float(x) for x in values]
        self.offset = float(offset)
        self.scale = float(scale)
        self._span = self.times[-1] - self.times[0]

    def latency_at(self, t: float) -> float:
        position = self.times[0] + ((t + self.offset - self.times[0]) % self._span)
        index = bisect.bisect_right(self.times, position) - 1
        index = max(0, min(index, len(self.times) - 2))
        t0, t1 = self.times[index], self.times[index + 1]
        v0, v1 = self.values[index], self.values[index + 1]
        fraction = (position - t0) / (t1 - t0)
        return self.scale * (v0 + fraction * (v1 - v0))


class CompositeLatency(LatencyModel):
    """Sum of several latency models (base path + cross-traffic + spikes)."""

    def __init__(self, components: Sequence[LatencyModel]) -> None:
        if not components:
            raise ValueError("need at least one component")
        self.components = list(components)

    def latency_at(self, t: float) -> float:
        return sum(component.latency_at(t) for component in self.components)


class DegradedLatency(LatencyModel):
    """A mutable wrapper for mid-run latency degradation (fault injection).

    Unlike every other model — pure functions of ``(seed, t)`` — this one
    carries *mutable* degradation state so a fault injector can worsen a
    path while the simulation runs and heal it later.  While degraded, the
    wrapped latency is multiplied by ``factor`` and offset by ``extra``
    microseconds; healed (the default), it is a transparent pass-through,
    so a wrapped clean run is bit-identical to an unwrapped one.

    Determinism is preserved as long as the mutations themselves are
    driven by deterministic events (the injector schedules them on the
    event engine).

    Examples
    --------
    >>> model = DegradedLatency(ConstantLatency(10.0))
    >>> model.latency_at(0.0)
    10.0
    >>> model.set_degradation(extra=90.0, factor=2.0)
    >>> model.latency_at(0.0)
    110.0
    >>> model.clear()
    >>> model.latency_at(0.0)
    10.0
    """

    def __init__(self, inner: LatencyModel) -> None:
        self.inner = inner
        self.extra = 0.0
        self.factor = 1.0
        self.degradations_applied = 0

    def set_degradation(self, extra: float = 0.0, factor: float = 1.0) -> None:
        """Worsen the path: ``latency ← factor · latency + extra``."""
        if extra < 0:
            raise ValueError("extra must be non-negative")
        if factor <= 0:
            raise ValueError("factor must be positive")
        self.extra = float(extra)
        self.factor = float(factor)
        self.degradations_applied += 1

    def clear(self) -> None:
        """Heal the path back to the wrapped model."""
        self.extra = 0.0
        self.factor = 1.0

    def latency_at(self, t: float) -> float:
        base = self.inner.latency_at(t)
        if self.extra == 0.0 and self.factor == 1.0:
            return base
        return self.factor * base + self.extra


class StepLatency(LatencyModel):
    """Piecewise-constant latency — precise control for unit tests.

    ``steps`` is a list of ``(start_time, latency)`` pairs sorted by start
    time; the latency before the first start is the first value.
    """

    def __init__(self, steps: Sequence[Tuple[float, float]]) -> None:
        if not steps:
            raise ValueError("need at least one step")
        starts = [s for s, _ in steps]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("step starts must be strictly increasing")
        self.steps = [(float(s), float(v)) for s, v in steps]

    def latency_at(self, t: float) -> float:
        index = bisect.bisect_right(self.steps, (t, float("inf"))) - 1
        index = max(index, 0)
        return self.steps[index][1]
