"""Tests for pipes, the Pipe Binding Protocol and the WIRE service."""

from __future__ import annotations

import pytest

from repro.jxta.advertisement import PipeAdvertisement
from repro.jxta.errors import PipeError
from repro.jxta.message import Message
from repro.jxta.pipes import PipeKind
from repro.jxta.wire import (
    WIRE_ACK_REQ_ELEMENT,
    WIRE_MSG_ID_ELEMENT,
    WIRE_SRC_ELEMENT,
    WireService,
)
from repro.net.faults import FaultPlan


def _pipe_adv(name="test-pipe", kind=PipeKind.UNICAST):
    return PipeAdvertisement(name=name, pipe_kind=kind.value)


def _message(text="x"):
    message = Message()
    message.add("body", text)
    return message


class TestPipeBinding:
    def test_input_pipe_binding_announced_and_resolved(self, two_peers):
        alpha, beta, builder = two_peers
        advertisement = _pipe_adv()
        received = []
        beta.world_group.pipe_service.create_input_pipe(
            advertisement, lambda m, src: received.append((m, src))
        )
        builder.settle(rounds=2)
        output = alpha.world_group.pipe_service.create_output_pipe(advertisement)
        builder.settle(rounds=2)
        assert output.resolved_peers() == [beta.peer_id]
        output.send(_message("hello"))
        builder.settle(rounds=2)
        assert len(received) == 1
        assert received[0][0].get_text("body") == "hello"
        assert received[0][1] == alpha.peer_id

    def test_output_pipe_resolution_query_finds_existing_binding(self, two_peers):
        alpha, beta, builder = two_peers
        advertisement = _pipe_adv()
        # The input pipe is created while alpha is not listening for
        # announcements (no output pipe yet)...
        beta.world_group.pipe_service.create_input_pipe(advertisement, announce=False)
        builder.settle(rounds=2)
        # ...so the output pipe's explicit PBP resolve query must find it.
        output = alpha.world_group.pipe_service.create_output_pipe(advertisement)
        builder.settle(rounds=2)
        assert output.resolved_peers() == [beta.peer_id]

    def test_unicast_send_without_binding_raises(self, two_peers):
        alpha, _beta, builder = two_peers
        output = alpha.world_group.pipe_service.create_output_pipe(_pipe_adv())
        builder.settle(rounds=2)
        with pytest.raises(PipeError):
            output.send(_message())

    def test_unicast_targets_single_peer(self, lan):
        builder = lan
        sender = builder.peer_named("peer-0")
        receivers = [builder.peer_named("peer-1"), builder.peer_named("peer-2")]
        advertisement = _pipe_adv(kind=PipeKind.UNICAST)
        inboxes = []
        for receiver in receivers:
            inbox = []
            receiver.world_group.pipe_service.create_input_pipe(
                advertisement, lambda m, s, inbox=inbox: inbox.append(m)
            )
            inboxes.append(inbox)
        builder.settle(rounds=2)
        output = sender.world_group.pipe_service.create_output_pipe(advertisement)
        builder.settle(rounds=2)
        sent = output.send(_message())
        builder.settle(rounds=2)
        assert sent == 1
        assert sum(len(inbox) for inbox in inboxes) == 1

    def test_propagate_pipe_reaches_all_bound_peers(self, lan):
        builder = lan
        sender = builder.peer_named("peer-0")
        receivers = [builder.peer_named("peer-1"), builder.peer_named("peer-2")]
        advertisement = _pipe_adv(kind=PipeKind.PROPAGATE)
        inboxes = []
        for receiver in receivers:
            inbox = []
            receiver.world_group.pipe_service.create_input_pipe(
                advertisement, lambda m, s, inbox=inbox: inbox.append(m)
            )
            inboxes.append(inbox)
        builder.settle(rounds=2)
        output = sender.world_group.pipe_service.create_output_pipe(advertisement)
        builder.settle(rounds=2)
        assert output.send(_message()) == 2
        builder.settle(rounds=2)
        assert all(len(inbox) == 1 for inbox in inboxes)

    def test_closing_input_pipe_unbinds(self, two_peers):
        alpha, beta, builder = two_peers
        advertisement = _pipe_adv()
        pipe = beta.world_group.pipe_service.create_input_pipe(advertisement)
        builder.settle(rounds=2)
        output = alpha.world_group.pipe_service.create_output_pipe(advertisement)
        builder.settle(rounds=2)
        assert output.resolved_peers()
        pipe.close()
        builder.settle(rounds=2)
        assert output.resolved_peers() == []
        assert pipe.closed
        with pytest.raises(PipeError):
            pipe.add_listener(lambda m, s: None)

    def test_closed_output_pipe_refuses_send(self, two_peers):
        alpha, _beta, _builder = two_peers
        output = alpha.world_group.pipe_service.create_output_pipe(_pipe_adv())
        output.close()
        with pytest.raises(PipeError):
            output.send(_message())

    def test_pipe_survives_peer_address_change(self, two_peers):
        """The PBP promise: bindings are by peer UUID, not by network address."""
        alpha, beta, builder = two_peers
        advertisement = _pipe_adv()
        received = []
        beta.world_group.pipe_service.create_input_pipe(
            advertisement, lambda m, s: received.append(m)
        )
        builder.settle(rounds=2)
        output = alpha.world_group.pipe_service.create_output_pipe(advertisement)
        builder.settle(rounds=2)
        output.send(_message("before"))
        builder.settle(rounds=2)
        # beta "crashes and comes up again" at a different address.
        beta.restart_at_address("beta-new-address")
        # alpha learns the new address (in JXTA this comes from the refreshed
        # peer advertisement / resolver traffic).
        alpha.endpoint.learn_address(beta.peer_id, "beta-new-address")
        output.send(_message("after"))
        builder.settle(rounds=2)
        assert [m.get_text("body") for m in received] == ["before", "after"]


class TestWireService:
    def _wire_pair(self, builder, sender, receivers, **wire_kwargs):
        advertisement = _pipe_adv(name="wire-pipe", kind=PipeKind.WIRE)
        inboxes = []
        for receiver in receivers:
            inbox = []
            receiver.world_group.wire.create_input_pipe(
                advertisement, lambda m, s, inbox=inbox: inbox.append(m)
            )
            inboxes.append(inbox)
        builder.settle(rounds=2)
        output = sender.world_group.wire.create_output_pipe(advertisement, **wire_kwargs)
        builder.settle(rounds=2)
        return advertisement, output, inboxes

    def test_wire_send_reaches_all_subscribers(self, lan):
        builder = lan
        sender = builder.peer_named("peer-0")
        receivers = [builder.peer_named("peer-1"), builder.peer_named("peer-2")]
        _adv, output, inboxes = self._wire_pair(builder, sender, receivers)
        receipt = output.send(_message("event"))
        builder.settle(rounds=2)
        assert receipt.targets == 2
        assert all(len(inbox) == 1 for inbox in inboxes)
        assert all(inbox[0].get_text("body") == "event" for inbox in inboxes)
        # The wire stamps its message id and source elements.
        assert inboxes[0][0].get_text(WIRE_MSG_ID_ELEMENT)

    def test_send_receipt_costs_grow_with_subscribers(self, builder):
        builder.add_rendezvous("rdv-0")
        sender = builder.add_peer("sender")
        one = [builder.add_peer("r-0")]
        many = [builder.add_peer(f"m-{i}") for i in range(4)]
        builder.settle(rounds=4)
        adv_one, out_one, _ = self._wire_pair(builder, sender, one)
        receipts_one = [out_one.send(_message()) for _ in range(10)]
        # A separate pipe with four subscribers.
        advertisement = _pipe_adv(name="wire-4", kind=PipeKind.WIRE)
        for peer in many:
            peer.world_group.wire.create_input_pipe(advertisement, lambda m, s: None)
        builder.settle(rounds=2)
        out_many = sender.world_group.wire.create_output_pipe(advertisement)
        builder.settle(rounds=2)
        receipts_many = [out_many.send(_message()) for _ in range(10)]
        assert receipts_one[0].targets == 1
        assert receipts_many[0].targets == 4
        mean_one = sum(r.cpu_time for r in receipts_one) / len(receipts_one)
        mean_many = sum(r.cpu_time for r in receipts_many) / len(receipts_many)
        assert mean_many > mean_one * 1.5

    def test_extra_send_cost_is_charged(self, two_peers):
        alpha, beta, builder = two_peers
        advertisement = _pipe_adv(kind=PipeKind.WIRE)
        beta.world_group.wire.create_input_pipe(advertisement, lambda m, s: None)
        builder.settle(rounds=2)
        plain = alpha.world_group.wire.create_output_pipe(advertisement)
        costly = alpha.world_group.wire.create_output_pipe(
            advertisement, extra_send_cost=0.5, resolve=False
        )
        builder.settle(rounds=2)
        assert costly.send(_message()).cpu_time - plain.send(_message()).cpu_time > 0.3

    def test_wire_delivery_is_serialised_and_queue_bounded(self, two_peers):
        alpha, beta, builder = two_peers
        advertisement = _pipe_adv(kind=PipeKind.WIRE)
        inbox = []
        beta.world_group.wire.create_input_pipe(advertisement, lambda m, s: inbox.append(m))
        builder.settle(rounds=2)
        output = alpha.world_group.wire.create_output_pipe(advertisement)
        builder.settle(rounds=2)
        # Flood far beyond the receive queue limit in one burst.
        limit = beta.cost_model.receive_queue_limit
        for _ in range(limit * 3):
            output.send(_message())
        builder.settle(rounds=64)
        dropped = beta.metrics.counters().get("wire_messages_dropped", 0)
        delivered = beta.metrics.counters().get("wire_messages_delivered", 0)
        assert dropped > 0
        assert delivered + dropped == limit * 3
        assert len(inbox) == delivered

    def test_ack_request_without_sequence_is_counted_and_dropped(self, two_peers):
        """Reliable sends are always sequenced; an ack-requesting message
        with no channel/sequence is outside input: counted, dropped, no ack."""
        alpha, beta, builder = two_peers
        advertisement = _pipe_adv(kind=PipeKind.WIRE)
        inbox = []
        beta.world_group.wire.create_input_pipe(advertisement, lambda m, s: inbox.append(m))
        builder.settle(rounds=2)
        forged = _message("forged")
        forged.add(WIRE_MSG_ID_ELEMENT, "urn:jxta:forged/w1")
        forged.add(WIRE_ACK_REQ_ELEMENT, "1")
        alpha.endpoint.send(
            beta.peer_id, forged, WireService.WireName, advertisement.pipe_id.to_urn()
        )
        builder.settle(rounds=4)
        assert inbox == []
        counters = beta.metrics.counters()
        assert counters.get("wire_malformed", 0) == 1
        assert counters.get("wire_acks_sent", 0) == 0

    def test_malformed_wire_source_is_counted_and_dropped(self, two_peers):
        """The wire source element is outside input, parsed once on entry: one
        that is not a peer URN used to raise out of the scheduled delivery
        callback and abort the whole simulator run."""
        alpha, beta, builder = two_peers
        advertisement, output, inboxes = self._wire_pair(builder, alpha, [beta])
        forged = _message("forged")
        forged.add(WIRE_SRC_ELEMENT, "not-a-jxta-urn")
        alpha.endpoint.send(
            beta.peer_id, forged, WireService.WireName, advertisement.pipe_id.to_urn()
        )
        builder.settle(rounds=4)
        assert inboxes[0] == []
        assert beta.metrics.counters().get("wire_malformed", 0) == 1
        output.send(_message("genuine"))
        builder.settle(rounds=4)
        assert [m.get_text("body") for m in inboxes[0]] == ["genuine"]

    def test_connected_publishers_tracked(self, lan):
        builder = lan
        receiver = builder.peer_named("peer-0")
        senders = [builder.peer_named("peer-1"), builder.peer_named("peer-2")]
        advertisement = _pipe_adv(kind=PipeKind.WIRE)
        receiver.world_group.wire.create_input_pipe(advertisement, lambda m, s: None)
        builder.settle(rounds=2)
        outputs = [
            sender.world_group.wire.create_output_pipe(advertisement) for sender in senders
        ]
        builder.settle(rounds=2)
        for output in outputs:
            output.send(_message())
        builder.settle(rounds=4)
        assert receiver.world_group.wire.connected_publishers(advertisement.pipe_id) == 2

    def test_close_input_pipe_stops_delivery(self, two_peers):
        alpha, beta, builder = two_peers
        advertisement = _pipe_adv(kind=PipeKind.WIRE)
        inbox = []
        pipe = beta.world_group.wire.create_input_pipe(
            advertisement, lambda m, s: inbox.append(m)
        )
        builder.settle(rounds=2)
        output = alpha.world_group.wire.create_output_pipe(advertisement)
        builder.settle(rounds=2)
        output.send(_message("first"))
        builder.settle(rounds=4)
        beta.world_group.wire.close_input_pipe(pipe)
        builder.settle(rounds=2)
        output.send(_message("second"))
        builder.settle(rounds=4)
        assert [m.get_text("body") for m in inbox] == ["first"]

    def test_publisher_retains_no_per_send_state(self, two_peers):
        """A long-running publisher's pipe and registry must not grow per
        message: no receipt list on the pipe, no send-side time series."""
        alpha, beta, builder = two_peers
        _adv, output, inboxes = self._wire_pair(builder, alpha, [beta])
        sends = 25
        for index in range(sends):
            output.send(_message(str(index)))
            builder.settle(rounds=1)
        builder.settle(rounds=2)
        assert output.sent_count == sends and len(inboxes[0]) == sends
        assert not hasattr(output, "receipts")
        sized = {
            name: len(value)
            for name, value in vars(output).items()
            if hasattr(value, "__len__") and not isinstance(value, str)
        }
        assert all(size <= 1 for size in sized.values()), sized
        assert alpha.metrics.all_series() == {}
        # The receive side keeps the one series Figure 20 is drawn from.
        assert list(beta.metrics.all_series()) == ["wire_received"]
        assert len(beta.metrics.series("wire_received").times) == sends

    @staticmethod
    def _sent_bodies(peer, advertisement, monkeypatch):
        """Record the body of every data envelope ``peer`` puts on ``advertisement``'s pipe."""
        bodies = []
        send_packet = peer.endpoint._send_packet

        def spy(address, envelope):
            if (envelope.service, envelope.param) == (
                WireService.WireName, advertisement.pipe_id.to_urn()
            ):
                bodies.append(envelope.body)
            return send_packet(address, envelope)

        monkeypatch.setattr(peer.endpoint, "_send_packet", spy)
        return bodies

    def test_one_send_shares_one_frame_across_targets(self, lan, monkeypatch):
        """The message is serialised once per send, not once per bound peer."""
        builder = lan
        sender = builder.peer_named("peer-0")
        receivers = [builder.peer_named("peer-1"), builder.peer_named("peer-2")]
        advertisement, output, inboxes = self._wire_pair(builder, sender, receivers)
        bodies = self._sent_bodies(sender, advertisement, monkeypatch)
        output.send(_message("event"))
        builder.settle(rounds=2)
        assert len(bodies) == 2 and bodies[0] is bodies[1]
        assert all(inbox[0].get_text("body") == "event" for inbox in inboxes)

    def test_reliable_retry_resends_the_same_frame(self, two_peers, monkeypatch):
        """A retransmission reuses the bytes of the first transmission."""
        alpha, beta, builder = two_peers
        advertisement, output, inboxes = self._wire_pair(
            builder, alpha, [beta], reliable=True
        )
        bodies = self._sent_bodies(alpha, advertisement, monkeypatch)
        builder.network.fault_plan = FaultPlan(seed=5).drop_next(
            alpha.node.address, beta.node.address, count=1
        )
        output.send(_message("again"))
        builder.settle(rounds=8)
        assert alpha.metrics.counters().get("wire_retries", 0) == 1
        assert len(bodies) == 2 and bodies[0] is bodies[1]
        assert [m.get_text("body") for m in inboxes[0]] == ["again"]

    def test_send_without_bindings_falls_back_to_propagation(self, two_peers):
        alpha, beta, builder = two_peers
        advertisement = _pipe_adv(kind=PipeKind.WIRE)
        output = alpha.world_group.wire.create_output_pipe(advertisement)
        # beta binds *after* the output pipe resolved nothing.
        inbox = []
        beta.world_group.wire.create_input_pipe(advertisement, lambda m, s: inbox.append(m))
        receipt = output.send(_message("early"))
        builder.settle(rounds=4)
        assert receipt.targets == 0
        assert len(inbox) == 1  # the propagation fallback still delivered it
