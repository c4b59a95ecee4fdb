"""The wire path decides each thing once: the receiver as a property, the route as a count.

* A reliable channel's sequence window is its only duplicate filter: driven
  with an arbitrary arrival sequence (duplicates, reordering, omissions, the
  bounded receive queue refusing at chosen steps) it delivers every sequence
  at most once and in order, acks exactly the arrivals it did not refuse,
  and counts every repeat.
* A packet's route is evaluated once, on the packet itself: each firewall
  is asked once per delivered packet, and the public reachability queries
  build no packet and count nothing.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.jxta.advertisement import PipeAdvertisement
from repro.jxta.message import Message
from repro.jxta.pipes import PipeKind
from repro.jxta.platform import JxtaNetworkBuilder
from repro.net.firewall import Direction, Firewall
from repro.net.packet import Packet
from repro.net.transport import TransportKind


@settings(max_examples=60, deadline=None)
@given(
    arrivals=st.lists(
        st.tuples(st.integers(min_value=1, max_value=8), st.booleans()), max_size=30
    )
)
def test_property_reliable_receiver_window(reliable_arrival, arrivals):
    """``arrivals`` is a list of (sequence, receive queue is full at this step)."""
    builder = JxtaNetworkBuilder(seed=7)
    sender = builder.add_peer("sender", connect_rendezvous=False)
    receiver = builder.add_peer("receiver", connect_rendezvous=False)
    advertisement = PipeAdvertisement(name="window", pipe_kind=PipeKind.WIRE.value)
    pipe_urn = advertisement.pipe_id.to_urn()
    wire = receiver.world_group.wire
    delivered = []
    wire.create_input_pipe(advertisement, lambda m, s: delivered.append(int(m.get_text("body"))))
    acked = []
    wire._send_ack = lambda source, urn, wire_id: acked.append(wire_id)
    roomy = dataclasses.replace(wire.cost_model, receive_queue_limit=1000)
    full = dataclasses.replace(wire.cost_model, receive_queue_limit=0)

    def counter(name):
        return receiver.metrics.counters().get(name, 0)

    taken = set()  # sequences with an arrival that was not refused
    repeats = 0
    for seq, queue_full in arrivals:
        wire.cost_model = full if queue_full else roomy
        refused_before, acks_before = counter("wire_messages_dropped"), len(acked)
        wire._on_wire_envelope(*reliable_arrival(sender, receiver, pipe_urn, seq))
        # Only the in-sequence arrival touches the queue, so only it can be
        # refused; the queue's own counter says whether it was.
        refused = counter("wire_messages_dropped") > refused_before
        assert acked[acks_before:] == ([] if refused else [f"test/c1/w{seq}"])
        if not refused:
            repeats += seq in taken
            taken.add(seq)
    # No virtual time has passed, so no gap was abandoned yet: every repeat
    # was recognised by the window alone.
    assert counter("wire_duplicates_suppressed") + counter("wire_stale_retransmits") == repeats
    # Drain: held messages behind a gap that never fills are released when
    # the gap is abandoned.  Each taken sequence arrives once, in order.
    wire.cost_model = roomy
    builder.settle(rounds=32)
    assert delivered == sorted(taken)


class _CountingFirewall(Firewall):
    """Records every packet put to it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.asked = []

    def permits(self, packet, direction):
        self.asked.append((id(packet), direction))
        return super().permits(packet, direction)


def test_each_firewall_decides_once_per_delivered_packet():
    builder = JxtaNetworkBuilder(seed=7)
    out_wall, in_wall = _CountingFirewall(), _CountingFirewall()
    alpha = builder.add_peer("alpha", connect_rendezvous=False, firewall=out_wall)
    beta = builder.add_peer("beta", connect_rendezvous=False, firewall=in_wall)
    builder.settle(rounds=2)
    alpha.endpoint.learn_address(beta.peer_id, beta.node.address)
    received = []
    beta.endpoint.register_listener("svc", "", lambda envelope, message: received.append(message))
    del out_wall.asked[:], in_wall.asked[:]
    assert alpha.endpoint.send(beta.peer_id, Message(), "svc")
    (out_ask,), (in_ask,) = out_wall.asked, in_wall.asked
    assert (out_ask[1], in_ask[1]) == (Direction.OUTBOUND, Direction.INBOUND)
    assert out_ask[0] == in_ask[0]  # the same, real packet
    builder.settle(rounds=1)
    assert len(received) == 1


def test_reachability_queries_build_no_packet_and_count_nothing(monkeypatch):
    builder = JxtaNetworkBuilder(seed=7)
    guarded = Firewall.corporate_default()  # refuses inbound TCP
    alpha = builder.add_peer("alpha", connect_rendezvous=False)
    beta = builder.add_peer("beta", connect_rendezvous=False, firewall=guarded)
    builder.settle(rounds=2)
    alpha.endpoint.learn_address(beta.peer_id, beta.node.address)
    guarded.blocked_count = 0
    counters_before = builder.network.metrics.counters()
    built = []
    init = Packet.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Packet, "__init__", counting_init)
    network = builder.network
    assert not network.reachable(alpha.node.address, beta.node.address, TransportKind.TCP)
    assert network.reachable(alpha.node.address, beta.node.address, TransportKind.HTTP)
    route = alpha.world_group.router.find_route(beta.peer_id)
    assert route.direct and route.transport == TransportKind.HTTP
    assert built == []
    assert guarded.blocked_count == 0
    assert network.metrics.counters() == counters_before
