"""Deterministic, coordinate-indexed randomness.

Latency models in this reproduction must be *pure functions of time* (see
DESIGN.md §5.2): the Max-RTT latency bound of Theorem 3 is computed by
asking "what latency *would* a packet sent at time t have seen?" for
hypothetical packets that are never actually sent.  Ordinary sequential
RNGs cannot answer that without perturbing the stream, so we build
counter-based randomness: a stable 64-bit mix of ``(seed, *coordinates)``
mapped to floats.

The mixer is SplitMix64, a well-studied finalizer with full avalanche;
chaining it over the coordinates gives independent-looking values for
neighbouring indices while remaining exactly reproducible across runs,
platforms and Python versions (no reliance on ``hash()``, which is salted).
"""

from __future__ import annotations

import math
from typing import Iterator, Tuple

__all__ = [
    "splitmix64",
    "stable_u64",
    "stable_unit",
    "stable_uniform",
    "stable_exponential",
    "stable_normal",
    "stable_bool",
    "stable_token",
    "substream_seed",
    "SubstreamCounter",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer: one round of avalanche mixing on a 64-bit int."""
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def stable_u64(seed: int, *coordinates: int) -> int:
    """A reproducible 64-bit value for an integer coordinate tuple."""
    state = splitmix64(seed & _MASK64)
    for coordinate in coordinates:
        state = splitmix64((state ^ (coordinate & _MASK64)) & _MASK64)
    return state


def stable_unit(seed: int, *coordinates: int) -> float:
    """A reproducible float in ``[0, 1)`` for a coordinate tuple."""
    return stable_u64(seed, *coordinates) / float(1 << 64)


def stable_uniform(low: float, high: float, seed: int, *coordinates: int) -> float:
    """A reproducible uniform draw in ``[low, high)``."""
    return low + (high - low) * stable_unit(seed, *coordinates)


def stable_exponential(mean: float, seed: int, *coordinates: int) -> float:
    """A reproducible exponential draw with the given mean."""
    u = stable_unit(seed, *coordinates)
    # Guard against log(0); u is in [0, 1).
    return -mean * math.log(1.0 - u) if u < 1.0 else 0.0


def stable_normal(mean: float, std: float, seed: int, *coordinates: int) -> float:
    """A reproducible normal draw (Box-Muller on two stable units)."""
    u1 = stable_unit(seed, *coordinates, 0)
    u2 = stable_unit(seed, *coordinates, 1)
    u1 = max(u1, 1e-12)
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    return mean + std * z


def stable_bool(probability: float, seed: int, *coordinates: int) -> bool:
    """A reproducible Bernoulli draw with the given success probability."""
    return stable_unit(seed, *coordinates) < probability


def stable_token(text: str) -> int:
    """A reproducible 64-bit coordinate for a string label.

    Experiment matrices are indexed by *names* (scheme, scenario, plan);
    this folds the UTF-8 bytes through the same SplitMix64 avalanche used
    for integer coordinates, so string-labelled cells can derive seed
    substreams via :func:`stable_u64`/:func:`substream_seed` without
    relying on salted ``hash()``.
    """
    data = text.encode("utf-8")
    state = splitmix64(len(data))
    for byte in data:
        state = splitmix64((state ^ byte) & _MASK64)
    return state


def substream_seed(seed: int, *labels: object) -> int:
    """Derive an independent child seed from string/int labels.

    The workhorse of the process-parallel matrix runner: every
    (scheme, scenario, plan, seed-index) cell gets its own seed, fully
    determined by the base seed and the labels — independent of worker
    count, scheduling, or execution order.
    """
    coordinates = tuple(
        label if isinstance(label, int) else stable_token(str(label))
        for label in labels
    )
    return stable_u64(seed, *coordinates)


class SubstreamCounter:
    """Sequential substream built on the stable mixer.

    Useful where a component needs a conventional "next value" stream that
    must still be independent of every other component's stream.  Two
    counters with different ``(seed, stream_id)`` never collide.
    """

    def __init__(self, seed: int, stream_id: int = 0) -> None:
        self._seed = seed
        self._stream_id = stream_id
        self._counter = 0
        # stable_u64(seed, stream_id, counter) with the rounds that do not
        # depend on the counter done once, here.
        self._prefix = stable_u64(seed, stream_id)

    def next_unit(self) -> float:
        """Next float in ``[0, 1)``: ``stable_unit(seed, stream_id, counter)``."""
        counter = self._counter
        self._counter = counter + 1
        return splitmix64(self._prefix ^ (counter & _MASK64)) / 18446744073709551616.0

    def next_uniform(self, low: float, high: float) -> float:
        """Next uniform draw in ``[low, high)``."""
        return low + (high - low) * self.next_unit()

    def next_exponential(self, mean: float) -> float:
        """Next exponential draw with the given mean."""
        u = self.next_unit()
        return -mean * math.log(1.0 - u) if u < 1.0 else 0.0

    def next_int(self, low: int, high: int) -> int:
        """Next integer in ``[low, high]`` inclusive."""
        if high < low:
            raise ValueError("high must be >= low")
        span = high - low + 1
        return low + int(self.next_unit() * span) % span

    def units(self) -> Iterator[float]:
        """Infinite iterator of units (consumes the stream)."""
        while True:
            yield self.next_unit()

    @property
    def state(self) -> Tuple[int, int, int]:
        """(seed, stream_id, counter) — for debugging reproducibility."""
        return (self._seed, self._stream_id, self._counter)
