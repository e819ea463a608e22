"""Response-time models for market participants.

The paper's methodology (§6.1): each MP "busy-waits for a pre-configured
response time duration before generating a trade", with response times
drawn "between 5 and 20 µs" (§6.1, §6.4) — known to the harness so the
expected fair ordering is computable.  Table 4 uses narrow buckets
([10,15), [15,20), … [35,40) µs) to study trades slower than the horizon.

All models draw deterministically from ``(seed, mp_index, point_id)`` so
two schemes run on the *same workload*: the same MP responds to the same
point with the same response time under DBO, Direct, and CloudEx — the
only thing that differs is the network and the ordering mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.sim.randomness import _MASK64, splitmix64, stable_uniform

__all__ = [
    "ResponseTimeModel",
    "UniformResponseTime",
    "FixedResponseTime",
    "SpeedTieredResponseTime",
    "RaceResponseTime",
]


class ResponseTimeModel:
    """Interface: response time of MP ``mp_index`` to point ``point_id``."""

    def response_time(self, mp_index: int, point_id: int) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class UniformResponseTime(ResponseTimeModel):
    """RT ~ Uniform[low, high) independently per (participant, point).

    The paper's main workload uses ``low=5, high=20`` so every response is
    within the δ=20 µs horizon; Table 4 sweeps higher buckets.
    """

    low: float = 5.0
    high: float = 20.0
    seed: int = 42

    def __post_init__(self) -> None:
        if self.low < 0 or self.high <= self.low:
            raise ValueError("need 0 <= low < high")
        # The seed's SplitMix64 round, hoisted (not a field: equality,
        # hashing and repr are unchanged).
        object.__setattr__(self, "_state0", splitmix64(self.seed & _MASK64))

    def response_time(self, mp_index: int, point_id: int) -> float:
        """``stable_uniform(low, high, seed, mp_index, point_id)``, with
        the seed round hoisted."""
        state = splitmix64(self._state0 ^ (mp_index & _MASK64))  # type: ignore[attr-defined]
        unit = splitmix64(state ^ (point_id & _MASK64)) / 18446744073709551616.0
        return self.low + (self.high - self.low) * unit


@dataclass(frozen=True)
class FixedResponseTime(ResponseTimeModel):
    """Every trade takes exactly ``value`` µs — for exact-ordering tests."""

    value: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("value must be non-negative")

    def response_time(self, mp_index: int, point_id: int) -> float:
        return self.value


@dataclass(frozen=True)
class SpeedTieredResponseTime(ResponseTimeModel):
    """Participants have distinct speed tiers plus small per-trade jitter.

    Models the real HFT field: some firms are consistently faster.  MP
    ``k`` draws RT ~ base + k·tier_gap + Uniform[0, jitter).  Useful for
    checking that a consistently faster participant actually wins races
    under each scheme.
    """

    base: float = 5.0
    tier_gap: float = 1.0
    jitter: float = 0.5
    seed: int = 43

    def __post_init__(self) -> None:
        if self.base < 0 or self.tier_gap < 0 or self.jitter < 0:
            raise ValueError("base, tier_gap and jitter must be non-negative")

    def response_time(self, mp_index: int, point_id: int) -> float:
        jitter = stable_uniform(0.0, self.jitter, self.seed, mp_index, point_id) if self.jitter else 0.0
        return self.base + mp_index * self.tier_gap + jitter


@dataclass(frozen=True)
class RaceResponseTime(ResponseTimeModel):
    """Speed-race response times: tight per-race margins (the HFT regime).

    Real speed races are decided by sub-microsecond margins — the paper's
    motivation cites "minor differences in latency (sub-microsecond
    level)" deciding outcomes, and its Table 4 shows Direct delivery
    ordering barely better than a coin flip, which is only possible when
    competing response times are far closer together than the network's
    latency skew.

    This model captures that: every participant racing on point ``x``
    shares a race base time drawn from ``Uniform[low, high)``; the
    competitors finish ``gap`` apart in a per-race random permutation:

        ``RT(i, x) = base(x) + gap * rank_i(x)``

    ``rank_i(x)`` is participant ``i``'s position in the race-``x``
    permutation of ``0..n-1``.  With ``gap`` well below the network's
    latency asymmetry, arrival order at the CES says almost nothing about
    response order — the regime DBO is built for.

    Parameters
    ----------
    n_participants:
        Number of racers (needed to build per-race permutations).
    low, high:
        Race base range (paper: 5-20 µs).
    gap:
        Finishing-margin between consecutively ranked racers (µs).
    seed:
        Seeds both the base draw and the permutations.
    """

    n_participants: int
    low: float = 5.0
    high: float = 20.0
    gap: float = 0.5
    seed: int = 44

    def __post_init__(self) -> None:
        if self.n_participants <= 0:
            raise ValueError("n_participants must be positive")
        if self.low < 0 or self.high <= self.low:
            raise ValueError("need 0 <= low < high")
        if self.gap <= 0:
            raise ValueError("gap must be positive")

    def rank(self, mp_index: int, point_id: int) -> int:
        """Participant's finishing rank in the race on ``point_id``."""
        if not 0 <= mp_index < self.n_participants:
            raise ValueError(f"mp_index {mp_index} out of range")
        own_key = stable_uniform(0.0, 1.0, self.seed, point_id, mp_index)
        rank = 0
        for other in range(self.n_participants):
            if other == mp_index:
                continue
            other_key = stable_uniform(0.0, 1.0, self.seed, point_id, other)
            # Deterministic total order; exact float ties are broken by index.
            if other_key < own_key or (other_key == own_key and other < mp_index):
                rank += 1
        return rank

    def response_time(self, mp_index: int, point_id: int) -> float:
        base = stable_uniform(self.low, self.high, self.seed, point_id, -1)
        return base + self.gap * self.rank(mp_index, point_id)
