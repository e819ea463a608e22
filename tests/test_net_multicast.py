"""Unit tests for the multicast fan-out."""

import pytest

from repro.net.latency import ConstantLatency
from repro.net.transport import Channel
from repro.net.multicast import MulticastGroup
from repro.sim.engine import EventEngine


def build_group(engine, latencies):
    group = MulticastGroup()
    inboxes = {}
    for member_id, latency in latencies.items():
        inbox = []
        inboxes[member_id] = inbox
        link = Channel(
            "link",
            engine,
            ConstantLatency(latency),
            handler=lambda m, s, a, inbox=inbox: inbox.append((m, a)),
        )
        group.add_member(member_id, link)
    return group, inboxes


def test_publish_reaches_every_member():
    engine = EventEngine()
    group, inboxes = build_group(engine, {"a": 1.0, "b": 2.0})
    group.publish("tick")
    engine.run()
    assert inboxes["a"] == [("tick", 1.0)]
    assert inboxes["b"] == [("tick", 2.0)]


def test_publish_returns_arrival_times():
    engine = EventEngine()
    group, _ = build_group(engine, {"a": 1.0, "b": 2.0})
    arrivals = group.publish("tick")
    assert arrivals == {"a": 1.0, "b": 2.0}


def test_duplicate_member_rejected():
    engine = EventEngine()
    group, _ = build_group(engine, {"a": 1.0})
    with pytest.raises(ValueError):
        group.add_member("a", Channel("link", engine, ConstantLatency(1.0), handler=lambda *a: None))


def test_publish_without_members_raises():
    group = MulticastGroup()
    with pytest.raises(RuntimeError):
        group.publish("tick")
