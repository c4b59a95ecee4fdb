"""Integration tests for the TPS engine over the JXTA substrate."""

from __future__ import annotations

import pytest

from repro.apps.skirental.types import PremiumSkiRental, SkiRental, SnowboardRental
from repro.core import (
    CollectingExceptionHandler,
    Criteria,
    PS_PREFIX,
    TPSConfig,
    TPSEngine,
)
from repro.core.exceptions import NotInitializedError, TypeMismatchError
from repro.core.jxta_engine import JxtaTPSEngine
from repro.core.type_registry import type_name
from repro.jxta.cache import DiscoveryKind


def _interface(peer, event_type=SkiRental, *, config=None, criteria=None):
    engine = TPSEngine(event_type, peer=peer, config=config)
    return engine.new_interface("JXTA", criteria)


def _pub_sub(builder, *, event_type=SkiRental, sub_type=None, subscribers=1):
    """A settled publisher interface plus subscriber interfaces with collectors."""
    pub_peer = builder.add_peer("tps-pub")
    publisher = _interface(pub_peer, event_type, config=TPSConfig(search_timeout=2.0))
    builder.settle(rounds=8)
    collected = []
    subs = []
    for index in range(subscribers):
        sub_peer = builder.add_peer(f"tps-sub-{index}")
        interface = _interface(
            sub_peer,
            sub_type or event_type,
            config=TPSConfig(search_timeout=6.0, create_if_missing=False),
        )
        inbox = []
        interface.subscribe(inbox.append)
        collected.append(inbox)
        subs.append(interface)
    builder.settle(rounds=14)
    return publisher, subs, collected


class TestInitialization:
    def test_publisher_creates_advertisement_when_none_found(self, lan):
        builder = lan
        interface = _interface(builder.peer_named("peer-0"), config=TPSConfig(search_timeout=2.0))
        assert not interface.ready
        with pytest.raises(NotInitializedError):
            interface.publish(SkiRental("s", 1.0, "b", 1))
        builder.settle(rounds=6)
        assert interface.ready
        assert interface.manager.created_own
        # The advertisement is named PS$ + the hierarchy root's type name.
        advertisement = interface.manager.attachments[0].pg_advertisement
        assert advertisement.name.startswith(PS_PREFIX)
        assert type_name(SkiRental).split(".")[-1] not in ("",)
        assert "RentalOffer" in advertisement.name

    def test_subscriber_adopts_existing_advertisement(self, lan):
        builder = lan
        publisher, subs, _ = _pub_sub(builder)
        # The subscriber found the publisher's advertisement rather than
        # creating its own (functionality (1): advertisement minimisation).
        assert not subs[0].manager.created_own
        assert publisher.attachment_count == 1
        assert subs[0].attachment_count == 1

    def test_subscriber_without_create_waits_forever_if_nothing_published(self, lan):
        builder = lan
        interface = _interface(
            builder.peer_named("peer-0"),
            config=TPSConfig(search_timeout=1.0, create_if_missing=False),
        )
        builder.settle(rounds=10)
        assert not interface.ready

    def test_both_sides_creating_converges_to_two_attachments(self, lan):
        builder = lan
        config = TPSConfig(search_timeout=2.0)
        a = _interface(builder.peer_named("peer-0"), config=config)
        b = _interface(builder.peer_named("peer-1"), config=config)
        builder.settle(rounds=16)
        # Both created their own advertisement and then discovered the other's
        # (functionality (2): managing multiple advertisements at once).
        assert a.attachment_count == 2
        assert b.attachment_count == 2


class TestPublishSubscribe:
    def test_end_to_end_delivery(self, lan):
        builder = lan
        publisher, subs, collected = _pub_sub(builder)
        offer = SkiRental("XTremShop", 14.0, "Salomon", 100.0)
        receipt = publisher.publish(offer)
        builder.settle(rounds=6)
        assert receipt.pipes == 1
        assert receipt.cpu_time > 0
        assert len(collected[0]) == 1
        delivered = collected[0][0]
        assert isinstance(delivered, SkiRental)
        assert delivered == offer
        assert publisher.objects_sent() == [offer]
        assert subs[0].objects_received() == [offer]

    def test_multiple_subscribers_all_receive(self, lan):
        builder = lan
        publisher, _subs, collected = _pub_sub(builder, subscribers=3)
        publisher.publish(SkiRental("s", 10.0, "b", 1))
        builder.settle(rounds=6)
        assert all(len(inbox) == 1 for inbox in collected)

    def test_events_preserve_order(self, lan):
        builder = lan
        publisher, _subs, collected = _pub_sub(builder)
        offers = [SkiRental("s", float(i), "b", 1) for i in range(5)]
        for offer in offers:
            receipt = publisher.publish(offer)
            builder.simulator.run_until(
                max(builder.simulator.now, receipt.completion_time)
            )
        builder.settle(rounds=6)
        assert collected[0] == offers

    def test_type_mismatch_rejected_at_publish(self, lan):
        builder = lan
        publisher, _subs, _collected = _pub_sub(builder)
        with pytest.raises(TypeMismatchError):
            publisher.publish(SnowboardRental("s", 10.0, "b", 1))

    def test_subtype_delivery_and_filtering(self, lan):
        """Figure 7: SkiRental subscribers get premium offers, premium subscribers don't get plain ones."""
        builder = lan
        publisher, subs, collected = _pub_sub(builder, sub_type=PremiumSkiRental)
        plain = SkiRental("s", 10.0, "b", 1)
        premium = PremiumSkiRental("s", 99.0, "b", 7, extras=("helmet",))
        for offer in (plain, premium):
            receipt = publisher.publish(offer)
            builder.simulator.run_until(
                max(builder.simulator.now, receipt.completion_time)
            )
        builder.settle(rounds=6)
        # The PremiumSkiRental subscriber only sees the premium offer...
        assert collected[0] == [premium]
        # ...and the filtering is recorded, not treated as an error.
        sub_peer = subs[0].peer
        assert sub_peer.metrics.counters().get("tps_filtered_by_type", 0) == 1

    def test_content_criteria_filtering(self, lan):
        builder = lan
        pub_peer = builder.peer_named("peer-0")
        publisher = _interface(pub_peer, config=TPSConfig(search_timeout=2.0))
        builder.settle(rounds=8)
        sub_peer = builder.peer_named("peer-1")
        cheap_only = _interface(
            sub_peer,
            criteria=Criteria(event_predicate=lambda offer: offer.price <= 50),
            config=TPSConfig(search_timeout=6.0, create_if_missing=False),
        )
        inbox = []
        cheap_only.subscribe(inbox.append)
        builder.settle(rounds=12)
        for price in (30.0, 80.0, 45.0):
            receipt = publisher.publish(SkiRental("s", price, "b", 1))
            builder.simulator.run_until(max(builder.simulator.now, receipt.completion_time))
        builder.settle(rounds=6)
        assert [offer.price for offer in inbox] == [30.0, 45.0]

    def test_callback_exception_routed_to_handler(self, lan):
        builder = lan
        publisher, subs, _collected = _pub_sub(builder)
        errors = CollectingExceptionHandler()

        def broken(offer):
            raise ValueError("cannot handle this offer")

        subs[0].subscribe(broken, errors)
        receipt = publisher.publish(SkiRental("s", 10.0, "b", 1))
        builder.settle(rounds=6)
        assert len(errors.errors) == 1
        # The well-behaved collector callback still received the event.
        assert len(subs[0].objects_received()) == 1

    def test_unsubscribe_stops_delivery(self, lan):
        builder = lan
        publisher, subs, collected = _pub_sub(builder)
        publisher.publish(SkiRental("s", 1.0, "b", 1))
        builder.settle(rounds=6)
        subs[0].unsubscribe()
        publisher.publish(SkiRental("s", 2.0, "b", 1))
        builder.settle(rounds=6)
        assert len(collected[0]) == 1

    def test_duplicate_filtering_across_multiple_attachments(self, lan):
        builder = lan
        config = TPSConfig(search_timeout=2.0)
        publisher = _interface(builder.peer_named("peer-0"), config=config)
        subscriber = _interface(builder.peer_named("peer-1"), config=config)
        inbox = []
        subscriber.subscribe(inbox.append)
        builder.settle(rounds=16)
        # Both sides created advertisements, so the publisher publishes on two
        # pipes; the subscriber must still deliver each event exactly once.
        assert publisher.attachment_count == 2
        receipt = publisher.publish(SkiRental("s", 1.0, "b", 1))
        assert receipt.pipes == 2
        builder.settle(rounds=8)
        assert len(inbox) == 1
        assert (
            subscriber.peer.metrics.counters().get("tps_duplicates_filtered", 0) >= 1
        )

    def test_resubscribe_churn_leaves_one_reader_per_attachment(self, lan):
        """50 unsubscribe/resubscribe cycles close every reader they open:
        each attachment ends with one open wire input pipe, one PBP binding
        and one endpoint listener for its pipe, and delivery is still once."""
        builder = lan
        config = TPSConfig(search_timeout=2.0)
        publisher = _interface(builder.peer_named("peer-0"), config=config)
        subscriber = _interface(builder.peer_named("peer-1"), config=config)
        inbox = []
        subscriber.subscribe(inbox.append)
        builder.settle(rounds=16)
        assert subscriber.attachment_count == 2
        for _ in range(50):
            subscriber.unsubscribe()
            subscriber.subscribe(inbox.append)
        builder.settle(rounds=4)
        listeners = subscriber.peer.endpoint._listeners
        for attachment in subscriber.manager.attachments:
            reader = attachment.input_pipe
            assert reader is not None and not reader.closed
            wire = attachment.wire_service
            assert wire.input_pipes(reader.pipe_id) == [reader]
            assert wire.group.pipe_service.local_pipes(reader.pipe_id) == [reader]
            urn = reader.pipe_id.to_urn()
            assert [key for key in listeners if key[1] == urn] == [(wire.WireName, urn)]
        publisher.publish(SkiRental("s", 1.0, "b", 1))
        builder.settle(rounds=8)
        assert len(inbox) == 1

    def test_invocation_cost_includes_layer_overheads(self, lan):
        builder = lan
        publisher, _subs, _collected = _pub_sub(builder)
        cost_model = publisher.peer.cost_model
        receipt = publisher.publish(SkiRental("s", 1.0, "b", 1))
        assert receipt.cpu_time >= cost_model.app_layer_send + cost_model.tps_layer_send

    def test_close_stops_everything(self, lan):
        builder = lan
        publisher, subs, collected = _pub_sub(builder)
        subs[0].close()
        publisher.publish(SkiRental("s", 3.0, "b", 1))
        builder.settle(rounds=6)
        assert collected[0] == []

    def test_message_padding_config(self, lan):
        builder = lan
        publisher, _subs, _collected = _pub_sub(builder)
        publisher.config.message_padding = 1910
        receipt = publisher.publish(SkiRental("s", 1.0, "b", 1))
        # Padding shows up in the serialisation cost accounted by the wire.
        assert receipt.cpu_time > 1910 * publisher.peer.cost_model.per_byte


class TestPerMessageMetricsFootprint:
    def test_publish_receive_round_records_one_series(self, lan):
        """Of the per-message time series only ``wire_received`` (Figure
        20's input) exists after a publish/receive round, on either side."""
        publisher, subs, collected = _pub_sub(lan)
        for index in range(5):
            publisher.publish(SkiRental("shop", 10.0 + index, "brand", 1))
            lan.settle(rounds=2)
        assert len(collected[0]) == 5
        assert publisher.peer.metrics.all_series() == {}
        assert list(subs[0].peer.metrics.all_series()) == ["wire_received"]
        for attachment in publisher.manager.attachments:
            assert not hasattr(attachment.output_pipe, "receipts")

    def test_wire_publish_writes_no_timer(self, lan):
        """No per-message timer sample is kept that nothing reads: after one
        wire publish reaches two subscribers, no peer holds a timer."""
        publisher, _subs, collected = _pub_sub(lan, subscribers=2)
        publisher.publish(SkiRental("shop", 10.0, "brand", 1))
        lan.settle(rounds=4)
        assert [len(inbox) for inbox in collected] == [1, 1]
        assert {peer.name: peer.metrics.timers() for peer in lan.peers} == {
            peer.name: {} for peer in lan.peers
        }


class TestThreadAffinity:
    """The engine is single-threaded by design (it mutates the simulated
    network's lock-free event loop); cross-thread use must raise a clear
    PSException instead of silently corrupting network state."""

    def _cross_thread(self, fn):
        """Run ``fn`` on a fresh thread; return the exception it raised."""
        import threading

        caught = []

        def run():
            try:
                fn()
            except BaseException as error:  # noqa: BLE001 - collected for assert
                caught.append(error)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        return caught[0] if caught else None

    def test_cross_thread_publish_raises_psexception(self, lan):
        from repro.core.exceptions import PSException

        publisher, subs, collected = _pub_sub(lan)
        error = self._cross_thread(
            lambda: publisher.publish(SkiRental("s", 1.0, "b", 1))
        )
        assert isinstance(error, PSException)
        assert "single-threaded" in str(error)
        # Nothing was sent, and the owning thread keeps working normally.
        assert publisher.objects_sent() == []
        receipt = publisher.publish(SkiRental("s", 2.0, "b", 1))
        lan.simulator.run_until(max(lan.simulator.now, receipt.completion_time))
        lan.settle(rounds=8)
        assert [e.price for e in collected[0]] == [2.0]

    def test_cross_thread_subscribe_and_unsubscribe_raise(self, lan):
        from repro.core.exceptions import PSException

        publisher, (subscriber,), _collected = _pub_sub(lan)
        error = self._cross_thread(lambda: subscriber.subscribe(lambda event: None))
        assert isinstance(error, PSException)
        assert "single-threaded" in str(error)
        error = self._cross_thread(lambda: subscriber.unsubscribe())
        assert isinstance(error, PSException)

    def test_cross_thread_handle_cancel_raises(self, lan):
        from repro.core.exceptions import PSException

        _publisher, (subscriber,), _collected = _pub_sub(lan)
        resident = len(subscriber.subscriber_manager)
        callback = lambda event: None  # noqa: E731 - needs identity for unsubscribe
        handle = subscriber.subscribe(callback)
        error = self._cross_thread(handle.cancel)
        assert isinstance(error, PSException)
        # The failed cross-thread cancel burned the handle's one-shot flag;
        # the subscription itself is still registered and removable from the
        # owning thread via the Figure 8 surface.
        assert len(subscriber.subscriber_manager) == resident + 1
        assert subscriber.unsubscribe(callback) == 1

    def test_history_queries_allowed_from_any_thread(self, lan):
        publisher, _subs, _collected = _pub_sub(lan)
        results = []
        error = self._cross_thread(
            lambda: results.append(
                (publisher.objects_sent(), publisher.objects_received())
            )
        )
        assert error is None
        assert results == [([], [])]


class TestEngineWideErrorRouting:
    """Errors that belong to no single callback go to *every* subscription's
    exception handler, and one broken handler must not silence the rest."""

    def test_undecodable_message_survives_a_raising_first_handler(self, lan):
        from repro.core.jxta_engine import TPS_EVENT_ELEMENT
        from repro.jxta.message import Message

        builder = lan
        interface = _interface(
            builder.peer_named("peer-0"), config=TPSConfig(search_timeout=2.0)
        )
        builder.settle(rounds=6)

        def broken_handler(error):
            raise RuntimeError("the handler itself is broken")

        errors = CollectingExceptionHandler()
        interface.subscribe(lambda offer: None, broken_handler)
        interface.subscribe(lambda offer: None, errors)
        message = Message()
        message.add(TPS_EVENT_ELEMENT, b"\x00 not a codec record")
        # Must neither raise into the (simulated) network's callback nor skip
        # the second subscription.
        interface._on_wire_message(message, builder.peer_named("peer-1").peer_id)
        assert len(errors.errors) == 1
        assert interface.peer.metrics.counter("tps_decode_errors").value == 1
        assert interface.objects_received() == []


class TestReceiveDropCounters:
    """The two receive-side drops are counted, and reach no callback and no
    exception handler."""

    def _subscribed(self, builder):
        interface = _interface(
            builder.peer_named("peer-0"), config=TPSConfig(search_timeout=2.0)
        )
        builder.settle(rounds=6)
        inbox, errors = [], CollectingExceptionHandler()
        interface.subscribe(inbox.append, errors)
        return interface, inbox, errors

    @staticmethod
    def _message(interface, *, with_event=True):
        from repro.core.jxta_engine import TPS_EVENT_ELEMENT, TPS_MSG_ID_ELEMENT
        from repro.jxta.message import Message

        message = Message()
        message.add(TPS_MSG_ID_ELEMENT, "urn:jxta:remote/t1")
        if with_event:
            message.add(TPS_EVENT_ELEMENT, interface.registry.encode(SkiRental("s", 1.0, "b", 2)))
        return message

    def test_message_after_close_is_counted_and_dropped(self, lan):
        interface, inbox, errors = self._subscribed(lan)
        message = self._message(interface)
        interface.close()
        interface._on_wire_message(message, lan.peer_named("peer-1").peer_id)
        counters = interface.peer.metrics.counters()
        assert counters.get("tps_closed_engine_drops") == 1
        assert "tps_delivered" not in counters
        assert inbox == [] and errors.errors == []

    def test_message_without_event_is_counted_as_malformed(self, lan):
        interface, inbox, errors = self._subscribed(lan)
        message = self._message(interface, with_event=False)
        interface._on_wire_message(message, lan.peer_named("peer-1").peer_id)
        counters = interface.peer.metrics.counters()
        assert counters.get("tps_malformed") == 1
        assert "tps_delivered" not in counters
        assert inbox == [] and errors.errors == []
        assert interface.objects_received() == []
