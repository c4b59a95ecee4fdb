"""Tests for pipes, the Pipe Binding Protocol and the WIRE service."""

from __future__ import annotations

import pytest

from repro.jxta.advertisement import PipeAdvertisement
from repro.jxta.endpoint import EndpointEnvelope
from repro.jxta.errors import PipeError
from repro.jxta.ids import PeerID, PipeID
from repro.jxta.message import Message
from repro.jxta.pipe_binding import PipeBindingService
from repro.jxta.pipes import PipeKind
from repro.jxta.resolver import ResolverQuery, ResolverResponse
from repro.jxta.wire import (
    MAX_ATTEMPTS,
    WIRE_ACK_REQ_ELEMENT,
    WIRE_MSG_ID_ELEMENT,
    WIRE_SRC_ELEMENT,
    WireService,
)
from repro.net.faults import FaultPlan, LinkFaults
from repro.serialization.xml_codec import XmlElement, parse_xml, to_xml


def _pipe_adv(name="test-pipe", kind=PipeKind.UNICAST):
    return PipeAdvertisement(name=name, pipe_kind=kind.value)


def _message(text="x"):
    message = Message()
    message.add("body", text)
    return message


def _pbp_body(element, **children):
    """A Pipe Binding Protocol body ``<element><child>text</child>...</element>``."""
    body = XmlElement(element)
    for name, text in children.items():
        body.add(name, text)
    return to_xml(body, declaration=False)


def _pbp_query(element, **children):
    return ResolverQuery(
        handler_name=PipeBindingService.HANDLER_NAME,
        query_id="q1",
        body=_pbp_body(element, **children),
        src_peer=PeerID(),
    )


def _pbp_response(element, **children):
    return ResolverResponse(
        handler_name=PipeBindingService.HANDLER_NAME,
        query_id="q1",
        body=_pbp_body(element, **children),
        src_peer=PeerID(),
    )


def _lossy(builder, sender, *receivers):
    """Drop every packet from ``sender`` to each of ``receivers``."""
    plan = FaultPlan(seed=5)
    for receiver in receivers:
        plan.set_link(sender.node.address, receiver.node.address, LinkFaults(drop=1.0))
    builder.network.fault_plan = plan


class TestPipeBinding:
    def test_input_pipe_binding_announced_and_resolved(self, two_peers):
        alpha, beta, builder = two_peers
        advertisement = _pipe_adv(kind=PipeKind.WIRE)
        received = []
        beta.world_group.wire.create_input_pipe(
            advertisement, lambda m, src: received.append((m, src))
        )
        builder.settle(rounds=2)
        output = alpha.world_group.wire.create_output_pipe(advertisement)
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
        # ...so the wire output pipe's explicit PBP resolve query must find it.
        output = alpha.world_group.wire.create_output_pipe(advertisement)
        builder.settle(rounds=2)
        assert output.resolved_peers() == [beta.peer_id]

    def test_closing_input_pipe_unbinds(self, two_peers):
        alpha, beta, builder = two_peers
        advertisement = _pipe_adv()
        pipe = beta.world_group.pipe_service.create_input_pipe(advertisement)
        builder.settle(rounds=2)
        output = alpha.world_group.wire.create_output_pipe(advertisement)
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
        output = alpha.world_group.wire.create_output_pipe(_pipe_adv(kind=PipeKind.WIRE))
        output.close()
        with pytest.raises(PipeError):
            output.send(_message())

    def test_pipe_survives_peer_address_change(self, two_peers):
        """The PBP promise: bindings are by peer UUID, not by network address."""
        alpha, beta, builder = two_peers
        advertisement = _pipe_adv(kind=PipeKind.WIRE)
        received = []
        beta.world_group.wire.create_input_pipe(
            advertisement, lambda m, s: received.append(m)
        )
        builder.settle(rounds=2)
        output = alpha.world_group.wire.create_output_pipe(advertisement)
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

    def test_forget_peer_drops_every_binding_of_that_peer_only(self, lan):
        builder = lan
        observer = builder.peer_named("peer-0")
        departed, staying = builder.peer_named("peer-1"), builder.peer_named("peer-2")
        advertisements = [_pipe_adv("first"), _pipe_adv("second")]
        for advertisement in advertisements:
            for peer in (departed, staying):
                peer.world_group.pipe_service.create_input_pipe(advertisement)
        builder.settle(rounds=2)
        service = observer.world_group.pipe_service
        both = sorted([departed.peer_id, staying.peer_id], key=PeerID.to_urn)
        assert [service.resolved_peers(a.pipe_id) for a in advertisements] == [both, both]
        assert service.forget_peer(departed.peer_id) == 2
        assert [service.resolved_peers(a.pipe_id) for a in advertisements] == [
            [staying.peer_id],
            [staying.peer_id],
        ]
        # A URN string names the peer too; nothing is left to forget.
        assert service.forget_peer(departed.peer_id.to_urn()) == 0
        assert observer.metrics.counters()["pbp_bindings_forgotten"] == 2

    def test_resolve_is_answered_only_for_a_locally_bound_pipe(self, two_peers):
        _alpha, beta, _builder = two_peers
        service = beta.world_group.pipe_service
        bound = _pipe_adv()
        service.create_input_pipe(bound, announce=False)
        asker = PeerID().to_urn()
        assert service.process_query(
            _pbp_query("PipeResolve", Pipe=PipeID().to_urn(), Peer=asker)
        ) is None
        answer = parse_xml(
            service.process_query(
                _pbp_query("PipeResolve", Pipe=bound.pipe_id.to_urn(), Peer=asker)
            )
        )
        assert answer.name == "PipeBound"
        assert answer.child_text("Pipe") == bound.pipe_id.to_urn()
        assert answer.child_text("Peer") == beta.peer_id.to_urn()
        assert answer.child_text("Address") == beta.node.address

    def test_a_peers_own_binding_is_never_recorded_as_remote(self, two_peers):
        """A propagated ``PipeBind`` can come back to its sender: output pipes
        must not resolve their own peer as a wire target."""
        alpha, _beta, _builder = two_peers
        service = alpha.world_group.pipe_service
        pipe_id = PipeID()
        learned = alpha.metrics.counters().get("pbp_bindings_learned", 0)
        service.process_query(
            _pbp_query(
                "PipeBind",
                Pipe=pipe_id.to_urn(),
                Peer=alpha.peer_id.to_urn(),
                Address=alpha.node.address,
            )
        )
        assert service.resolved_peers(pipe_id) == []
        assert alpha.metrics.counters().get("pbp_bindings_learned", 0) == learned

    @pytest.mark.parametrize("missing", ["Pipe", "Peer"])
    def test_a_binding_without_its_pipe_or_peer_is_ignored(self, two_peers, missing):
        alpha, beta, _builder = two_peers
        service = alpha.world_group.pipe_service
        pipe_id = PipeID()
        fields = {
            "Pipe": pipe_id.to_urn(),
            "Peer": beta.peer_id.to_urn(),
            "Address": beta.node.address,
        }
        del fields[missing]
        learned = alpha.metrics.counters().get("pbp_bindings_learned", 0)
        service.process_query(_pbp_query("PipeBind", **fields))
        service.process_response(_pbp_response("PipeBound", **fields))
        assert service.resolved_peers(pipe_id) == []
        assert alpha.metrics.counters().get("pbp_bindings_learned", 0) == learned

    def test_an_unknown_pbp_element_changes_nothing(self, two_peers):
        alpha, beta, _builder = two_peers
        service = alpha.world_group.pipe_service
        pipe_id = PipeID()
        fields = {"Pipe": pipe_id.to_urn(), "Peer": beta.peer_id.to_urn()}
        before = alpha.metrics.counters()
        assert service.process_query(_pbp_query("PipeRebind", **fields)) is None
        service.process_response(_pbp_response("PipeUnbound", **fields))
        assert service.resolved_peers(pipe_id) == []
        assert alpha.metrics.counters() == before


class TestPlainInputPipes:
    """The receiving end of a plain pipe: data envelopes addressed to
    ``jxta.service.pipedata``, which is what a publisher's reply endpoint
    (:mod:`repro.core.reply`) listens on."""

    @staticmethod
    def _send_data(sender, receiver, advertisement, text="x"):
        sender.endpoint.learn_address(receiver.peer_id, receiver.node.address)
        return sender.endpoint.send(
            receiver.peer_id,
            _message(text),
            PipeBindingService.DATA_SERVICE_NAME,
            advertisement.pipe_id.to_urn(),
        )

    def test_data_envelope_reaches_every_local_input_pipe(self, two_peers):
        alpha, beta, builder = two_peers
        advertisement = _pipe_adv()
        inboxes = [[], []]
        for inbox in inboxes:
            beta.world_group.pipe_service.create_input_pipe(
                advertisement,
                lambda m, s, inbox=inbox: inbox.append((m.get_text("body"), s)),
            )
        assert self._send_data(alpha, beta, advertisement, "hello")
        builder.settle(rounds=2)
        assert inboxes == [[("hello", alpha.peer_id)], [("hello", alpha.peer_id)]]
        assert beta.metrics.counters()["pipes_messages_received"] == 1

    def test_closing_one_of_two_local_pipes_keeps_the_binding(self, two_peers):
        alpha, beta, builder = two_peers
        advertisement = _pipe_adv()
        service = beta.world_group.pipe_service
        first_inbox, second_inbox = [], []
        first = service.create_input_pipe(advertisement, lambda m, s: first_inbox.append(m))
        second = service.create_input_pipe(advertisement, lambda m, s: second_inbox.append(m))
        builder.settle(rounds=2)
        output = alpha.world_group.wire.create_output_pipe(advertisement)
        builder.settle(rounds=2)
        first.close()
        builder.settle(rounds=2)
        assert service.local_pipes(advertisement.pipe_id) == [second]
        assert service.has_local_binding(advertisement.pipe_id)
        assert output.resolved_peers() == [beta.peer_id]
        self._send_data(alpha, beta, advertisement)
        builder.settle(rounds=2)
        assert (len(first_inbox), len(second_inbox)) == (0, 1)
        second.close()
        builder.settle(rounds=2)
        assert not service.has_local_binding(advertisement.pipe_id)
        assert output.resolved_peers() == []

    def test_data_for_a_closed_pipe_is_not_delivered(self, two_peers):
        alpha, beta, builder = two_peers
        advertisement = _pipe_adv()
        inbox = []
        pipe = beta.world_group.pipe_service.create_input_pipe(
            advertisement, lambda m, s: inbox.append(m)
        )
        pipe.close()
        unhandled = beta.metrics.counters().get("endpoint_unhandled", 0)
        self._send_data(alpha, beta, advertisement)
        builder.settle(rounds=2)
        assert inbox == []
        counters = beta.metrics.counters()
        assert counters.get("pipes_messages_received", 0) == 0
        assert counters["endpoint_unhandled"] == unhandled + 1

    def test_a_removed_listener_hears_nothing(self, two_peers):
        alpha, beta, builder = two_peers
        advertisement = _pipe_adv()
        kept, removed = [], []

        def keep(message, source):
            kept.append(message)

        def drop(message, source):
            removed.append(message)

        pipe = beta.world_group.pipe_service.create_input_pipe(advertisement, keep)
        pipe.add_listener(drop)
        assert pipe.listener_count() == 2
        pipe.remove_listener(drop)
        pipe.remove_listener(drop)  # removing a missing listener is ignored
        assert pipe.listener_count() == 1
        self._send_data(alpha, beta, advertisement)
        builder.settle(rounds=2)
        assert (len(kept), len(removed)) == (1, 0)
        assert pipe.received_count == 1

    def test_close_is_idempotent_and_a_closed_pipe_ignores_deliveries(self, two_peers):
        _alpha, beta, _builder = two_peers
        inbox = []
        pipe = beta.world_group.pipe_service.create_input_pipe(
            _pipe_adv(), lambda m, s: inbox.append(m)
        )
        pipe.close()
        announcements = beta.metrics.counters()["pbp_announcements"]
        pipe.close()
        # One PipeUnbind went out, on the first close only.
        assert beta.metrics.counters()["pbp_announcements"] == announcements
        assert pipe.listener_count() == 0
        pipe.receive(_message(), beta.peer_id)
        assert inbox == [] and pipe.received_count == 0


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
        pipe.close()
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

    def test_input_pipes_lists_the_open_wire_inputs(self, two_peers):
        _alpha, beta, _builder = two_peers
        wire = beta.world_group.wire
        advertisement = _pipe_adv(kind=PipeKind.WIRE)
        first = wire.create_input_pipe(advertisement)
        second = wire.create_input_pipe(advertisement)
        assert wire.input_pipes(advertisement.pipe_id) == [first, second]
        first.close()
        assert wire.input_pipes(advertisement.pipe_id) == [second]
        assert beta.world_group.pipe_service.has_local_binding(advertisement.pipe_id)
        second.close()
        assert wire.input_pipes(advertisement.pipe_id) == []
        assert not beta.world_group.pipe_service.has_local_binding(advertisement.pipe_id)

    def test_close_leaves_the_wire_delivery_table(self, two_peers):
        """``pipe.close()`` alone takes a wire input pipe out of the wire
        service: it is no longer listed (so no longer charged its
        ``processing_cost``) nor listened for, and late traffic for its id
        is refused and counted instead of being queued for a closed pipe."""
        alpha, beta, builder = two_peers
        wire = beta.world_group.wire
        advertisement = _pipe_adv(kind=PipeKind.WIRE)
        urn = advertisement.pipe_id.to_urn()
        inbox = []
        pipe = wire.create_input_pipe(advertisement, lambda m, s: inbox.append(m))
        builder.settle(rounds=2)
        output = alpha.world_group.wire.create_output_pipe(advertisement)
        builder.settle(rounds=2)
        pipe.close()
        assert wire.input_pipes(advertisement.pipe_id) == []
        assert (WireService.WireName, urn) not in beta.endpoint._listeners
        builder.settle(rounds=2)
        unhandled = beta.metrics.counters().get("endpoint_unhandled", 0)
        output.send(_message("over the network"))
        builder.settle(rounds=4)
        # A message reaching the wire service for the closed id anyway.
        late = _message("late")
        late.add(WIRE_SRC_ELEMENT, alpha.peer_id.to_urn())
        envelope = EndpointEnvelope(
            src_peer=alpha.peer_id.to_urn(),
            src_address=alpha.node.address,
            dst_peer=beta.peer_id.to_urn(),
            service=WireService.WireName,
            param=urn,
            envelope_id="late",
            ttl=1,
            propagate=False,
            body=late.to_bytes(),
        )
        wire._on_wire_envelope(envelope, late)
        builder.settle(rounds=4)
        counters = beta.metrics.counters()
        assert inbox == []
        assert counters["endpoint_unhandled"] == unhandled + 1
        assert counters.get("wire_unbound_deliveries", 0) == 1
        assert counters.get("wire_closed_pipe_drops", 0) == 0


class TestReliableWire:
    """Per-target tracking of reliable sends: every (message, target) pair
    ends acked, failed or abandoned, and each end is reported once."""

    _wire_pair = TestWireService._wire_pair

    def test_receipt_tracks_each_target_until_acked(self, lan):
        builder = lan
        sender = builder.peer_named("peer-0")
        receivers = [builder.peer_named("peer-1"), builder.peer_named("peer-2")]
        _adv, output, inboxes = self._wire_pair(builder, sender, receivers, reliable=True)
        receipt = output.send(_message("tracked"))
        tracker = receipt.tracker
        urns = sorted(receiver.peer_id.to_urn() for receiver in receivers)
        assert sorted(tracker.pending) == urns
        builder.settle(rounds=4)
        assert sorted(tracker.acked) == urns
        assert (tracker.pending, tracker.failed, tracker.retries) == ([], [], 0)
        assert all(len(inbox) == 1 for inbox in inboxes)

    def test_unreliable_send_keeps_no_delivery_state(self, two_peers):
        alpha, beta, builder = two_peers
        _adv, output, inboxes = self._wire_pair(builder, alpha, [beta])
        receipt = output.send(_message())
        builder.settle(rounds=2)
        assert receipt.tracker is None
        assert alpha.world_group.wire._pending == {}
        assert len(inboxes[0]) == 1

    def test_sequence_numbers_count_per_target(self, two_peers):
        alpha, _beta, _builder = two_peers
        output = alpha.world_group.wire.create_output_pipe(
            _pipe_adv(kind=PipeKind.WIRE), reliable=True, resolve=False
        )
        assert [output.next_sequence(t) for t in ("a", "a", "b", "a")] == [1, 2, 1, 3]

    def test_two_reliable_pipes_keep_separate_channels(self, two_peers):
        """Each output pipe is its own sender channel: a second pipe's
        sequence 1 is a new message, not a retransmission of the first's."""
        alpha, beta, builder = two_peers
        advertisement, first, inboxes = self._wire_pair(builder, alpha, [beta], reliable=True)
        second = alpha.world_group.wire.create_output_pipe(advertisement, reliable=True)
        builder.settle(rounds=2)
        assert first.channel_id != second.channel_id
        first.send(_message("from-first"))
        second.send(_message("from-second"))
        builder.settle(rounds=4)
        assert sorted(m.get_text("body") for m in inboxes[0]) == ["from-first", "from-second"]
        counters = beta.metrics.counters()
        assert counters.get("wire_stale_retransmits", 0) == 0
        assert counters.get("wire_duplicates_suppressed", 0) == 0

    def test_closing_a_pipe_abandons_its_in_flight_deliveries(self, two_peers):
        alpha, beta, builder = two_peers
        _adv, output, inboxes = self._wire_pair(builder, alpha, [beta], reliable=True)
        _lossy(builder, alpha, beta)
        failures = []
        output.add_failure_listener(failures.append)
        receipt = output.send(_message("lost"))
        builder.settle(rounds=1)
        output.close()
        output.close()  # idempotent
        assert receipt.tracker.states == {beta.peer_id.to_urn(): "abandoned"}
        assert receipt.tracker.pending == []
        retries = alpha.metrics.counters().get("wire_retries", 0)
        builder.settle(rounds=16)
        counters = alpha.metrics.counters()
        assert counters.get("wire_retries", 0) == retries
        assert counters.get("wire_delivery_failed", 0) == 0
        assert failures == [] and inboxes[0] == []
        assert alpha.world_group.wire._pending == {}

    def test_a_pipe_closed_before_its_send_transmits_abandons_at_the_first_retry(
        self, two_peers
    ):
        """Closing between the send call and its CPU-completion instant still
        transmits once; the retry timer then finds the pipe closed."""
        alpha, beta, builder = two_peers
        _adv, output, _inboxes = self._wire_pair(builder, alpha, [beta], reliable=True)
        _lossy(builder, alpha, beta)
        receipt = output.send(_message("late"))
        output.close()
        builder.settle(rounds=4)
        assert receipt.tracker.states == {beta.peer_id.to_urn(): "abandoned"}
        counters = alpha.metrics.counters()
        assert counters.get("wire_retries", 0) == 0
        assert counters.get("wire_delivery_failed", 0) == 0
        assert alpha.world_group.wire._pending == {}

    def test_a_raising_failure_listener_is_counted_and_the_rest_still_run(
        self, two_peers
    ):
        alpha, beta, builder = two_peers
        advertisement, output, _inboxes = self._wire_pair(
            builder, alpha, [beta], reliable=True
        )
        _lossy(builder, alpha, beta)

        def broken(failure):
            raise RuntimeError("listener bug")

        failures = []
        output.add_failure_listener(broken)
        output.add_failure_listener(failures.append)
        receipt = output.send(_message("doomed"))
        builder.settle(rounds=16)
        beta_urn = beta.peer_id.to_urn()
        assert [
            (f.wire_message_id, f.pipe_urn, f.target_urn, f.attempts) for f in failures
        ] == [(receipt.wire_message_id, advertisement.pipe_id.to_urn(), beta_urn, MAX_ATTEMPTS)]
        assert receipt.tracker.failed == [beta_urn]
        assert receipt.tracker.attempts[beta_urn] == MAX_ATTEMPTS
        assert receipt.tracker.retries == MAX_ATTEMPTS - 1
        counters = alpha.metrics.counters()
        assert counters["wire_failure_listener_errors"] == 1
        assert counters["wire_delivery_failed"] == 1

    def test_fail_target_fails_only_the_departed_peers_deliveries(self, lan):
        builder = lan
        sender = builder.peer_named("peer-0")
        departed, staying = builder.peer_named("peer-1"), builder.peer_named("peer-2")
        _adv, output, _inboxes = self._wire_pair(
            builder, sender, [departed, staying], reliable=True
        )
        _lossy(builder, sender, departed, staying)
        failures = []
        output.add_failure_listener(failures.append)
        receipt = output.send(_message())
        builder.simulator.run_until(receipt.completion_time)
        wire = sender.world_group.wire
        assert wire.fail_target(departed.peer_id.to_urn()) == 1
        assert receipt.tracker.failed == [departed.peer_id.to_urn()]
        assert receipt.tracker.pending == [staying.peer_id.to_urn()]
        assert [f.target_urn for f in failures] == [departed.peer_id.to_urn()]
        counters = sender.metrics.counters()
        assert counters["wire_peer_departed"] == 1
        assert counters["wire_delivery_failed"] == 1
        assert wire.fail_target(departed.peer_id.to_urn()) == 0
