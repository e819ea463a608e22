"""Executable versions of the paper's theorems (§3.1, §4.2, Appendices A-C).

Nothing here is a proof — the appendices carry those — but each result is
made *checkable*:

* :func:`lemma2_counterexample` constructs the Appendix A scenario
  showing that unequal inter-delivery times force contradictory
  orderings, so no system can achieve response-time fairness when
  trigger points are unknown (Theorem 1).
* :func:`corollary1_condition_holds` checks the necessary condition for
  LRTF on a concrete delivery schedule — batching + pacing must satisfy
  it, direct delivery generally must not.
* :func:`theorem3_lmin` evaluates the latency lower bound.
* :func:`theorem4_pair_guaranteed` is the C3 predicate for non-colocated
  release buffers.
* :func:`prob_ordering_bound` is *not* from the paper: it bounds the
  inversion rate of the horizon-based probabilistic ordering scheme this
  repo adds as a sixth comparison point (``repro.ordering.prob``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

__all__ = [
    "Lemma2Scenario",
    "lemma2_counterexample",
    "corollary1_condition_holds",
    "theorem3_lmin",
    "theorem4_pair_guaranteed",
    "prob_ordering_bound",
]


@dataclass(frozen=True)
class Lemma2Scenario:
    """The Appendix A construction.

    Two participants i, j receive points x and x+1 with unequal
    inter-delivery gaps (c1 < c2).  Trades are chosen with offsets
    c3 > c4 and c1 + c3 < c2 + c4, making the required orderings of the
    two indistinguishable trigger cases contradictory.
    """

    c1: float
    c2: float
    c3: float
    c4: float

    @property
    def case1_requires_i_after_j(self) -> bool:
        """Trigger = x+1: relative times are c3 vs c4; c3 > c4 ⇒ i slower."""
        return self.c3 > self.c4

    @property
    def case2_requires_i_before_j(self) -> bool:
        """Trigger = x: relative times are c1+c3 vs c2+c4."""
        return self.c1 + self.c3 < self.c2 + self.c4

    @property
    def is_contradiction(self) -> bool:
        """Both cases demand opposite orderings of the same two trades."""
        return self.case1_requires_i_after_j and self.case2_requires_i_before_j


def lemma2_counterexample(c1: float = 10.0, c2: float = 14.0) -> Lemma2Scenario:
    """Build a valid counterexample for any inter-delivery gap pair c1 < c2.

    Choosing ``c4 = (c2 - c1) / 4`` and ``c3 = c4 + (c2 - c1) / 2`` always
    satisfies ``c3 > c4`` and ``c1 + c3 < c2 + c4``.
    """
    if not c1 < c2:
        raise ValueError("the construction needs c1 < c2")
    gap = c2 - c1
    c4 = gap / 4.0
    c3 = c4 + gap / 2.0
    scenario = Lemma2Scenario(c1=c1, c2=c2, c3=c3, c4=c4)
    assert scenario.is_contradiction
    return scenario


def corollary1_condition_holds(
    deliveries: Dict[str, Dict[int, float]],
    delta: float,
    tolerance: float = 1e-6,
) -> bool:
    """Check Corollary 1's necessary condition on a delivery schedule.

    For every pair of points (x, y) and every participant i with
    ``|D(i,y) - D(i,x)| < δ``, the inter-delivery time must be equal for
    all other participants (within ``tolerance``).

    ``deliveries`` maps participant → point id → delivery time.  Only
    points delivered to *all* participants are considered.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    participants = list(deliveries)
    if len(participants) < 2:
        return True
    common = set(deliveries[participants[0]])
    for mp_id in participants[1:]:
        common &= set(deliveries[mp_id])
    points = sorted(common)
    for idx_x in range(len(points)):
        for idx_y in range(idx_x + 1, len(points)):
            x, y = points[idx_x], points[idx_y]
            gaps = [deliveries[mp][y] - deliveries[mp][x] for mp in participants]
            if any(gap < delta - tolerance for gap in gaps):
                # Constraint active: all gaps must be equal.
                if max(gaps) - min(gaps) > tolerance:
                    return False
    return True


def theorem3_lmin(rtts: Sequence[float]) -> float:
    """Theorem 3: ``L_min = max_j RTT(j, x, RT)`` over all participants."""
    if not rtts:
        raise ValueError("need at least one participant RTT")
    return max(rtts)


def theorem4_pair_guaranteed(
    rt_fast: float,
    rt_slow: float,
    delta: float,
    bh_fast: float,
    bl_slow: float,
) -> bool:
    """Theorem 4 (C3): is this pair's fair ordering guaranteed?

    With round-trip RB↔MP latency of the faster participant bounded above
    by ``bh_fast`` and the slower's bounded below by ``bl_slow``, DBO
    guarantees the ordering when

        ``rt_fast < rt_slow - (bh_fast - bl_slow)``  and
        ``rt_fast < delta - bh_fast``.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if bh_fast < 0 or bl_slow < 0:
        raise ValueError("latency bounds must be non-negative")
    return rt_fast < rt_slow - (bh_fast - bl_slow) and rt_fast < delta - bh_fast


def prob_ordering_bound(
    horizon: float, spread: float, competitors: int = 1
) -> float:
    """Inversion-probability bound for horizon-based release (``prob``).

    The probabilistic ordering buffer
    (:class:`repro.core.ordering_buffer.ProbOrderingBuffer`) releases a
    trade ``h = horizon`` µs after its arrival, in stamp order among
    queued trades.  A released trade is *inverted* when a smaller-stamped
    rival arrives only after the release — i.e. when the rival's arrival
    lag (true arrival minus stamp-implied send) exceeds this trade's lag
    by more than ``h``.

    Model: pairwise arrival lags i.i.d. uniform on ``[0, spread]`` (the
    network's arrival-lag spread ``S``).  For one rival,

        ``P[L_rival − L_self > h] = ((S − h) / S)² / 2``   for 0 ≤ h < S

    (the tail of the triangular difference distribution), and exactly 0
    for ``h ≥ S`` — a horizon covering the whole spread reproduces the
    deterministic order.  With ``competitors`` simultaneous rivals the
    union bound multiplies the pairwise tail, capped at 1.

    Returns the per-release inversion-probability bound ε.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    if spread <= 0:
        raise ValueError("spread must be positive")
    if competitors < 1:
        raise ValueError("competitors must be at least 1")
    if horizon >= spread:
        return 0.0
    tail = ((spread - horizon) / spread) ** 2 / 2.0
    return min(1.0, competitors * tail)
