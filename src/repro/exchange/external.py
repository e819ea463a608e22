"""External data streams and the super-stream merger (§4.2.6).

The paper notes that speed races can be triggered by data the exchange
does not produce — news wires, competing exchanges' feeds.  Existing
exchanges give no simultaneity guarantees for such streams; DBO can do
better by *serializing* them with the market data: the CES assigns each
external event the next data-point id, after which batching, pacing and
delivery clocks give it exactly the LRTF guarantee native ticks enjoy.

Components:

``ExternalSource``
    Generates external events (deterministic Poisson arrivals) and sends
    them toward the CES over an ordinary (possibly jittery) link — the
    internet leg, with ms-scale variability per the paper.

``StreamMerger``
    The CES-side termination: receives external events and injects them
    into the feed via :meth:`CentralExchangeServer.inject_external`.

Note on batching: the CES cannot predict external arrivals, so an event
can land in a window whose batch was already emitted (the batcher closes
a batch once no *native* point can extend it).  The event then simply
opens/joins the next window — delivery is at most one batch span later,
and all guarantees hold because they depend only on batch atomicity and
pacing, never on which window an event "should" have been in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.exchange.ces import CentralExchangeServer
from repro.exchange.messages import MarketDataPoint
from repro.net.transport import Channel
from repro.sim.engine import EventEngine
from repro.sim.randomness import SubstreamCounter

__all__ = ["ExternalEvent", "ExternalSource", "StreamMerger"]


@dataclass(frozen=True)
class ExternalEvent:
    """One external event (a news item, a foreign-exchange tick)."""

    source: str
    sequence: int
    emitted_at: float
    payload: Any = None


class StreamMerger:
    """Terminates external streams at the CES and serializes them.

    Attach as the receive handler of the external source's link:
    ``link.connect(merger.on_event)``.
    """

    def __init__(self, ces: CentralExchangeServer) -> None:
        self.ces = ces
        self.merged: List[MarketDataPoint] = []

    def on_event(self, event: ExternalEvent, send_time: float, arrival_time: float) -> None:
        point = self.ces.inject_external(payload=event)
        self.merged.append(point)

    @property
    def events_merged(self) -> int:
        return len(self.merged)


class ExternalSource:
    """A deterministic-Poisson external event source.

    Parameters
    ----------
    engine:
        Event engine.
    name:
        Source label (embedded in events).
    link:
        Channel from the source to the CES (internet-grade latency
        models welcome: ms-scale jitter is the paper's stated expectation).
    mean_interval:
        Mean inter-event time in µs.
    seed:
        Seeds the arrival process.
    """

    def __init__(
        self,
        engine: EventEngine,
        name: str,
        link: Channel,
        mean_interval: float,
        seed: int = 0,
        payload_factory: Optional[Callable[[int], Any]] = None,
    ) -> None:
        if mean_interval <= 0:
            raise ValueError("mean_interval must be positive")
        self.engine = engine
        self.name = name
        self.link = link
        self.mean_interval = float(mean_interval)
        self.payload_factory = payload_factory
        self._stream = SubstreamCounter(seed, stream_id=90)
        self._sequence = 0
        self._stop_time: Optional[float] = None
        self.events_emitted = 0

    def start(self, start_time: float = 0.0, stop_time: Optional[float] = None) -> None:
        """Begin emitting events; stops at ``stop_time``."""
        self._stop_time = stop_time
        first = start_time + self._stream.next_exponential(self.mean_interval)
        self.engine.schedule_at(first, self._emit)

    def _emit(self) -> None:
        now = self.engine.now
        if self._stop_time is not None and now >= self._stop_time:
            return
        payload = (
            self.payload_factory(self._sequence) if self.payload_factory else None
        )
        event = ExternalEvent(
            source=self.name,
            sequence=self._sequence,
            emitted_at=now,
            payload=payload,
        )
        self._sequence += 1
        self.events_emitted += 1
        self.link.send(event)
        gap = self._stream.next_exponential(self.mean_interval)
        self.engine.schedule_after(max(gap, 1e-6), self._emit)
