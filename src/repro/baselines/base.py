"""Shared deployment scaffolding for every scheme.

A *deployment* wires the substrates into a runnable system: one CES, one
network spec per participant (forward and reverse latency models, loss
parameters, optional RB↔MP models), the participant agents, and the
scheme-specific delivery/ordering pipeline.  All schemes share this base
so they run the *same workload over the same network processes*: the
response-time draws, price path, and latency samples are functions of the
same seeds regardless of scheme.

Concrete schemes (`DBODeployment` in :mod:`repro.core.system`,
`CloudExDeployment` and `EngineDeployment` here in
:mod:`repro.baselines`) implement :meth:`BaseDeployment._build` to
construct their pipeline, :meth:`BaseDeployment._start` to kick off
timers, and the two per-point recorders the result reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exchange.ces import CentralExchangeServer
from repro.exchange.feed import FeedConfig
from repro.exchange.messages import TradeOrder
from repro.metrics.records import RunResult, TradeRecord
from repro.net.latency import LatencyModel, UniformJitterLatency
from repro.net.multicast import MulticastGroup
from repro.net.transport import Channel, DeliveryHandler, MessageKey, Transport
from repro.participants.mp import MarketParticipant
from repro.participants.response_time import ResponseTimeModel, UniformResponseTime
from repro.participants.strategies import SpeedRacer, Strategy
from repro.sim.clocks import Clock, DriftingClock
from repro.sim.randomness import stable_u64, stable_uniform
from repro.sim.runtime import Runtime

__all__ = ["NetworkSpec", "BaseDeployment", "default_network_specs", "DRAIN_CHECKPOINTS"]

# :meth:`BaseDeployment.run` cuts the drain into this many equal slices
# and ends the run at the first slice boundary where it has settled, so
# a settled run simulates at most ``drain / DRAIN_CHECKPOINTS`` of idle
# time past the point where nothing could change any more.
DRAIN_CHECKPOINTS = 32


@dataclass
class NetworkSpec:
    """The network as seen by one participant.

    Attributes
    ----------
    forward:
        CES→participant one-way latency model (market data path).
    reverse:
        participant→CES one-way latency model (trade path).
    loss_probability:
        Per-packet loss probability on the forward (market data) path
        (Appendix D).
    reverse_loss_probability:
        Loss probability on the reverse (trade/heartbeat) path; ``None``
        (default) mirrors ``loss_probability``.
    recovery_delay:
        Extra delay of the out-of-band retransmission path (µs).
    rb_to_mp:
        Optional RB→MP latency (non-colocated RB, §4.2.3); ``None`` means
        colocated (zero).
    mp_to_rb:
        Optional MP→RB latency for the trade intercept leg.
    """

    forward: LatencyModel
    reverse: LatencyModel
    loss_probability: float = 0.0
    reverse_loss_probability: Optional[float] = None
    recovery_delay: float = 1000.0
    rb_to_mp: Optional[LatencyModel] = None
    mp_to_rb: Optional[LatencyModel] = None

    def loss_for(self, direction: str) -> float:
        """Loss probability for ``"forward"`` or ``"reverse"``."""
        if direction == "reverse" and self.reverse_loss_probability is not None:
            return self.reverse_loss_probability
        return self.loss_probability


def default_network_specs(
    n_participants: int,
    base_low: float = 10.0,
    base_high: float = 17.0,
    jitter: float = 2.0,
    seed: int = 1,
) -> List[NetworkSpec]:
    """Heterogeneous one-way latencies: the cloud's non-equidistant paths.

    Each participant gets its own base latency in ``[base_low, base_high)``
    per direction plus jitter — the static skew + dynamic noise that makes
    Direct delivery unfair.
    """
    specs: List[NetworkSpec] = []
    for index in range(n_participants):
        fwd_base = stable_uniform(base_low, base_high, seed, index, 0)
        rev_base = stable_uniform(base_low, base_high, seed, index, 1)
        specs.append(
            NetworkSpec(
                forward=UniformJitterLatency(
                    fwd_base, jitter, seed=stable_u64(seed, index, 2)
                ),
                reverse=UniformJitterLatency(
                    rev_base, jitter, seed=stable_u64(seed, index, 3)
                ),
            )
        )
    return specs


class BaseDeployment:
    """Common wiring: engine, CES, participants, record assembly.

    Parameters
    ----------
    specs:
        One :class:`NetworkSpec` per participant.
    feed_config:
        Market-data cadence and price process (paper default: 40 µs).
    response_time_model:
        Shared RT model (draws are per participant-index anyway).
    strategy_factory:
        ``index -> Strategy``; defaults to the speed-racer workload.
    execute_trades:
        Whether the matching engine crosses orders on a real book.
    seed:
        Seeds clock offsets/drifts and scheme-internal randomness.
        Ignored when ``runtime`` is given (the runtime's seed wins).
    rb_clock_drift:
        Magnitude of RB clock drift-rate draws (paper cites < 2e-4).
        RB clocks also get large random offsets — schemes must not care.
    runtime:
        Optional pre-built :class:`~repro.sim.runtime.Runtime` carrying
        the engine and seed.  ``None`` creates a fresh one.
    """

    scheme_name = "base"
    # What the scheme promises about its release order.  The fault
    # auditor keys off this: a "deterministic" scheme treats a
    # stamp-order regression as a safety violation, a "probabilistic"
    # one (DBODeployment with a horizon, scheme ``prob``) reports it as a
    # measured — and theory-bounded — unfairness event instead.
    ordering_guarantee = "deterministic"

    def __init__(
        self,
        specs: Sequence[NetworkSpec],
        feed_config: Optional[FeedConfig] = None,
        response_time_model: Optional[ResponseTimeModel] = None,
        strategy_factory: Optional[Callable[[int], Strategy]] = None,
        execute_trades: bool = False,
        seed: int = 0,
        rb_clock_drift: float = 1e-4,
        runtime: Optional[Runtime] = None,
    ) -> None:
        if not specs:
            raise ValueError("deployment needs at least one participant")
        self.specs = list(specs)
        self.runtime = runtime if runtime is not None else Runtime.create(seed=seed)
        self.seed = self.runtime.seed
        self.rb_clock_drift = rb_clock_drift
        self.engine = self.runtime.engine
        self.ces = CentralExchangeServer(
            self.engine,
            feed_config=feed_config,
            execute_trades=execute_trades,
        )
        self.response_time_model = (
            response_time_model if response_time_model is not None else UniformResponseTime()
        )
        strategy_factory = strategy_factory or (lambda index: SpeedRacer(seed=index))
        self.mp_ids = [f"mp{index}" for index in range(len(self.specs))]
        self.participants: List[MarketParticipant] = [
            MarketParticipant(
                self.engine,
                mp_id=self.mp_ids[index],
                mp_index=index,
                response_time_model=self.response_time_model,
                strategy=strategy_factory(index),
            )
            for index in range(len(self.specs))
        ]
        # Per-point network send times: stamped when a point (or the batch
        # carrying it) enters the network.
        self.network_send_times: Dict[int, float] = {}
        # Forward-path fan-out; deployments join data legs via _open_leg.
        self.multicast = MulticastGroup()
        # External stream configs: (name, latency_model, mean_interval, seed).
        self._external_configs: List[tuple] = []
        self.external_sources: List = []
        self.stream_merger = None
        # The message plane: every point-to-point path (and the link
        # under it) is a named channel here, addressable by the fault
        # injector, summed for loss accounting and reported per run.
        self.transport = Transport()
        # Fault injectors armed against this deployment (they register
        # themselves): a fault that holds for the rest of the run keeps
        # the full drain.
        self.fault_injectors: List[Any] = []
        self._built = False

    # ------------------------------------------------------------------
    # External streams (§4.2.6): serialized into the market-data stream.
    # ------------------------------------------------------------------
    def add_external_source(
        self,
        name: str,
        latency_model: LatencyModel,
        mean_interval: float,
        seed: int = 0,
    ) -> None:
        """Register an external event stream (news, foreign feed).

        Events travel to the CES over ``latency_model`` and are serialized
        into the market-data super stream, inheriting the scheme's
        fairness treatment.  Call before :meth:`run`.
        """
        if self._built:
            raise RuntimeError("add external sources before run()")
        self._external_configs.append((name, latency_model, mean_interval, seed))

    def _wire_external_sources(self, duration: float) -> None:
        if not self._external_configs:
            return
        from repro.exchange.external import ExternalSource, StreamMerger

        self.stream_merger = StreamMerger(self.ces)
        for name, model, mean_interval, seed in self._external_configs:
            channel = self._open_control_channel(
                f"ext-{name}",
                model,
                source=name,
                destination="ces",
                handler=self.stream_merger.on_event,
            )
            source = ExternalSource(
                self.engine, name, channel, mean_interval=mean_interval, seed=seed
            )
            source.start(start_time=0.0, stop_time=duration)
            self.external_sources.append(source)

    # ------------------------------------------------------------------
    # Hooks for concrete schemes
    # ------------------------------------------------------------------
    def _build(self) -> None:
        """Construct the scheme's delivery and ordering pipeline."""
        raise NotImplementedError

    def _start(self, duration: float) -> None:
        """Start scheme timers (heartbeats etc.).  Default: nothing."""

    # Per-participant raw network arrival time per point, and ``D(i, x)``
    # after any scheme hold: each scheme hands over its recorders' maps.
    _raw_arrivals: Callable[[], Dict[str, Mapping[int, float]]]
    _delivery_times: Callable[[], Dict[str, Mapping[int, float]]]

    def _counters(self) -> Dict[str, float]:
        """Scheme-specific odometers merged into the result."""
        return {}

    def _idle_message(self, message: Any) -> bool:
        """Whether a pending delivery of ``message`` could change no trade,
        digest, audit violation or liveness event once every trade is
        forwarded (see :meth:`_settled`).  Default: no message is idle."""
        return False

    def _link_counters(self) -> Dict[str, float]:
        """Network loss odometers, shared by every scheme.

        ``packets_lost`` is reported whenever any leg is lossy (even when
        zero packets happened to drop); the fault-injection counters only
        appear when a fault actually consumed packets.
        """
        counters: Dict[str, float] = {}
        links = list(self.transport)
        if any(link.loss_probability for link in links):
            counters["packets_lost"] = float(sum(link.packets_lost for link in links))
        blackholed = sum(link.packets_blackholed for link in links)
        if blackholed:
            counters["packets_blackholed"] = float(blackholed)
        burst = sum(link.packets_dropped_in_burst for link in links)
        if burst:
            counters["packets_dropped_in_burst"] = float(burst)
        duplicated = sum(channel.messages_duplicated for channel in self.transport)
        if duplicated:
            counters["messages_duplicated"] = float(duplicated)
        deduped = sum(channel.messages_deduped for channel in self.transport)
        if deduped:
            counters["messages_deduped"] = float(deduped)
        return counters

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _make_rb_clock(self, index: int) -> Clock:
        """A local clock with an arbitrary offset and small drift.

        Deliberately *not* synchronized: correct schemes must only use
        intervals of these clocks.
        """
        offset = self.runtime.uniform(0.0, 1e9, index, 100)
        drift = self.runtime.uniform(-self.rb_clock_drift, self.rb_clock_drift, index, 101)
        return DriftingClock(offset=offset, drift_rate=drift)

    def _open_channel(self, index: int, direction: str, **options: Any) -> Channel:
        """Participant ``index``'s ``"forward"`` (``fwd-{mp}``, data) or
        ``"reverse"`` (``rev-{mp}``, trades) leg, lossy (with out-of-band
        recovery) when its spec gives that leg a loss rate.  ``options``
        go to :meth:`Transport.open_channel`."""
        spec = self.specs[index]
        forward = direction == "forward"
        return self.transport.open_channel(
            f"{'fwd' if forward else 'rev'}-{self.mp_ids[index]}",
            self.engine,
            getattr(spec, direction),
            loss_probability=spec.loss_for(direction),
            recovery_delay=spec.recovery_delay,
            seed=self.runtime.u64(2 * index if forward else 2 * index + 1),
            **options,
        )

    def _open_control_channel(self, name: str, model: LatencyModel, **options: Any) -> Channel:
        """A named, loss-free control channel.

        Control traffic (acks, shard hops, adoption, egress) has no
        :class:`NetworkSpec` leg of its own: it rides a plain FIFO channel
        with the given latency model, and partition/burst faults on it
        are accounted like any participant leg's.
        """
        return self.transport.open_channel(name, self.engine, model, **options)

    def _open_leg(
        self, index: int, direction: str, dedup_key: MessageKey, handler: DeliveryHandler
    ) -> Channel:
        """Participant ``index``'s ``"forward"`` (data) or ``"reverse"``
        (trade) leg: a dedup'd channel with out-of-band loss recovery.
        Data legs join ``self.multicast``."""
        mp_id = self.mp_ids[index]
        forward = direction == "forward"
        source, destination = ("ces", mp_id) if forward else (mp_id, "ces")
        channel = self._open_channel(
            index,
            direction,
            source=source,
            destination=destination,
            dedup_key=dedup_key,
            handler=handler,
            loss_handler=handler,
        )
        if forward:
            self.multicast.add_member(mp_id, channel)
        return channel

    def _wire_mp_submitter(self, index: int, rb_intercept: Callable[[TradeOrder], None]) -> None:
        """Connect an MP's trade output to its RB, honouring mp_to_rb delay."""
        spec = self.specs[index]
        if spec.mp_to_rb is None:
            self.participants[index].connect(rb_intercept)
            return

        model = spec.mp_to_rb

        def delayed_submit(order: TradeOrder) -> None:
            now = self.engine.now
            at = now + model.latency_at(now)
            self.engine.schedule_at(at, rb_intercept, priority=1, args=(order,))

        self.participants[index].connect(delayed_submit)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, duration: float, drain: Optional[float] = None) -> RunResult:
        """Generate data for ``duration`` µs, drain in-flight trades,
        and assemble the :class:`RunResult`.

        ``drain`` is an upper bound: a generous window by default (covers
        spike-scale latencies).  The run checks before each of
        :data:`DRAIN_CHECKPOINTS` equal slices of it whether it has
        settled (:meth:`_settled`) and stops at the first checkpoint where
        it has, so heartbeat-only time after the last trade is not
        simulated.  Trades still unfinished after the whole drain are
        reported incomplete rather than waited for indefinitely.  The
        result's ``counters["settled_at"]`` is the simulated end time;
        ``duration + drain`` means the cap was hit.
        """
        drain = self.check_horizon(duration, drain)
        if not self._built:
            self._build()
            self._built = True
        self.ces.start(start_time=0.0, stop_time=duration)
        self._wire_external_sources(duration)
        self._start(duration)
        engine = self.engine
        # run(until=a) then run(until=b) processes exactly the events
        # run(until=b) does, so slicing alone changes nothing.
        engine.run(until=duration)
        for checkpoint in range(1, DRAIN_CHECKPOINTS + 1):
            if self._settled():
                break
            engine.run(until=duration + drain * checkpoint / DRAIN_CHECKPOINTS)
        return self._assemble(duration)

    def check_horizon(self, duration: float, drain: Optional[float] = None) -> float:
        """The drain a ``run(duration, drain)`` would use, or ``ValueError``
        for a run that could never end or whose result could only be
        vacuous: a duration that is not positive and finite, a drain that
        is not non-negative and finite, or a first trade release
        (:meth:`_first_release`) after ``duration + drain``."""
        if not 0.0 < duration < math.inf:
            raise ValueError("duration must be positive and finite")
        if drain is None:
            drain = max(20_000.0, 0.05 * duration)
        elif not 0.0 <= drain < math.inf:
            raise ValueError("drain must be non-negative and finite")
        first = self._first_release()
        if first is not None and first[0] > duration + drain:
            at, rule = first
            raise ValueError(
                f"{self.scheme_name} releases its first trade at {at:g} µs ({rule}), "
                f"after the run ends at {duration + drain:g} µs (duration + drain)"
            )
        return drain

    def _first_release(self) -> Optional[Tuple[float, str]]:
        """``(time, rule)``: the earliest a scheme that releases trades only
        at periodic boundaries can release one, and the knob behind it;
        ``None`` for schemes that release as trades arrive."""
        return None

    def _settled(self) -> bool:
        """Whether the rest of the drain could change no trade, digest,
        audit violation or liveness event.

        True only when every trade a participant decided on has been
        forwarded, every pending one-shot event is a channel delivery of
        an idle message (:meth:`_idle_message`; periodic timers are
        idle), no channel has Appendix D loss (a recovered message lands
        late and out of order) and no injected fault holds for the rest of
        the run.  A lost or dropped trade is never forwarded, so such a
        run keeps the full drain.  A scheme that holds work for one of its
        periodic timers to release extends this with that condition.
        """
        forwarded = len(self.ces.matching_engine.forwarded)
        if forwarded != sum(len(mp.submitted) for mp in self.participants):
            return False
        if any(injector.holding for injector in self.fault_injectors):
            return False
        if any(channel.loss_probability for channel in self.transport):
            return False
        for callback, args in self.engine.pending_calls():
            channel = getattr(callback, "__self__", None)
            if not (
                isinstance(channel, Channel)
                and callback == channel._deliver
                and self._idle_message(args[0])
            ):
                return False
        return True

    def _assemble(self, duration: float) -> RunResult:
        me = self.ces.matching_engine
        trades: List[TradeRecord] = []
        for mp in self.participants:
            for order in mp.submitted:
                trades.append(
                    TradeRecord(
                        mp_id=order.mp_id,
                        trade_seq=order.trade_seq,
                        trigger_point=order.trigger_point,
                        response_time=order.response_time,
                        submission_time=order.submission_time,
                        forward_time=me.forward_time_of(order.key),
                        position=me.position_of(order.key),
                    )
                )
        generation_times = {
            point.point_id: point.generation_time for point in self.ces.feed.generated
        }
        reverse_models = {
            self.mp_ids[index]: self.specs[index].reverse for index in range(len(self.specs))
        }

        def reverse_latency_at(mp_id: str, t: float) -> float:
            return reverse_models[mp_id].latency_at(t)

        counters = dict(self._counters())
        counters.update(self._link_counters())
        counters["settled_at"] = self.engine.now
        return RunResult(
            scheme=self.scheme_name,
            trades=trades,
            generation_times=generation_times,
            network_send_times=self.network_send_times,
            raw_arrivals=self._raw_arrivals(),
            delivery_times=self._delivery_times(),
            reverse_latency_at=reverse_latency_at,
            duration=duration,
            counters=counters,
            channels=self.transport.counters(),
        )
