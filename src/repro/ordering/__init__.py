"""Release rules — the ordering decision as a first-class layer.

Every scheme in the repository answers the same three questions about a
trade arriving at the exchange boundary: *may it go to the matching
engine right now* (the hold predicate), *when does the hold lift* (a
timer, a batch boundary, or a watermark proof), and *in what order do
held trades leave* (stamp order, shuffled, arrival order).  Each rule
has one implementation, in one module of this package, driven by the
one engine its workloads run:

========== ==================================== ===========================
rule       hold predicate                       release order
========== ==================================== ===========================
direct     never holds                          arrival order (FCFS)
cloudex    until ``S + C2`` on the sync clock   submission-stamp order
fba        until the next auction boundary      uniform random shuffle
libra      until the window closes              uniform random shuffle
---------- ------------------------------------ ---------------------------
dbo        until every watermark passes         delivery-clock stamp order
prob       until ``arrival + h`` (confidence)   stamp order, w.h.p. correct
========== ==================================== ===========================

The first four are :class:`OrderingPolicy` implementations — the policy
owns its pending store — on
:class:`repro.core.release_engine.ReleaseEngine`; libra runs fba's
:class:`BatchAuctionPolicy` over shorter windows.  direct, fba and libra
are rows of one deployment,
:class:`repro.baselines.engine.EngineDeployment`; cloudex has its own.  The two
delivery-clock rules are *decision state* (:class:`DeliveryClockPolicy`:
watermarks, extremes heap, stragglers; :class:`ProbabilisticPolicy`: due
times, released maximum, inversion count) consulted by the recoverable
:class:`repro.core.ordering_buffer.OrderingBuffer` and its
:class:`~repro.core.ordering_buffer.ProbOrderingBuffer` subclass, which
own the heap, dedup, warm-up and crash machinery.  Both run in one
deployment, :class:`repro.core.system.DBODeployment`; the ``prob``
scheme is its registry row with a ``horizon``.
"""

from __future__ import annotations

from repro.ordering.cloudex import SyncDeadlinePolicy
from repro.ordering.dbo import DeliveryClockPolicy
from repro.ordering.direct import PassthroughPolicy
from repro.ordering.fba import BatchAuctionPolicy
from repro.ordering.policy import HOLD, RELEASE_NOW, Admission, OrderingPolicy
from repro.ordering.prob import ProbabilisticPolicy

__all__ = [
    "Admission",
    "BatchAuctionPolicy",
    "DeliveryClockPolicy",
    "HOLD",
    "OrderingPolicy",
    "PassthroughPolicy",
    "ProbabilisticPolicy",
    "RELEASE_NOW",
    "SyncDeadlinePolicy",
]
