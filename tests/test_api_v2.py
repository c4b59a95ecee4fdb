"""Tests for the TPS v2 API: binding registry, handles, builder, streams, lifecycle.

Covers the four layers of the redesign:

* the pluggable binding registry (``repro.core.bindings``) with the
  self-registered ``LOCAL``/``JXTA``/``SHARDED`` bindings and third-party
  registration through the public API;
* ``SubscriptionHandle`` (exact cancellation, context manager) and the
  fluent ``subscription(cb).where(pred).on_error(h).start()`` builder with
  predicate push-down into the dispatch rows;
* ``EventStream`` pull-style consumption (drain/get/iterate, bounded
  buffers, ``drop_oldest`` vs ``block`` backpressure);
* the close lifecycle: idempotent ``close()`` on every binding and on the
  engine, uniform post-close ``PSException``, context managers.
"""

from __future__ import annotations

import threading

import pytest

from repro.apps.skirental.types import SkiRental, SnowboardRental
from repro.core import (
    CollectingExceptionHandler,
    Criteria,
    FilteringCallback,
    LocalBus,
    PSException,
    ShardedLocalBus,
    TPSConfig,
    TPSEngine,
)
from repro.core.bindings import (
    BindingRequest,
    TPSBinding,
    binding_capabilities,
    get_binding,
    register_binding,
    registered_bindings,
    unregister_binding,
)
from repro.core.local_engine import LocalTPSEngine
from repro.core.sharded_engine import DEFAULT_SHARD_COUNT
from repro.core.subscriptions import EventStream, SubscriptionHandle


def _offer(price: float = 10.0) -> SkiRental:
    return SkiRental("shop", price, "brand", 1)


@pytest.fixture
def bus():
    return LocalBus()


@pytest.fixture
def pair(bus):
    """A LOCAL publisher/subscriber interface pair on a private bus."""
    publisher = TPSEngine(SkiRental, local_bus=bus).new_interface("LOCAL")
    subscriber = TPSEngine(SkiRental, local_bus=bus).new_interface("LOCAL")
    return publisher, subscriber


# --------------------------------------------------------------- registry


class TestBindingRegistry:
    def test_builtin_bindings_are_registered(self):
        names = registered_bindings()
        assert {"JXTA", "LOCAL", "SHARDED"} <= set(names)
        assert list(names) == sorted(names)

    def test_lookup_is_case_insensitive(self):
        assert get_binding("local") is get_binding("LOCAL")
        engine = TPSEngine(SkiRental, local_bus=LocalBus())
        assert isinstance(engine.new_interface("local"), LocalTPSEngine)

    def test_unknown_binding_error_lists_registered_names(self):
        engine = TPSEngine(SkiRental, local_bus=LocalBus())
        with pytest.raises(PSException) as excinfo:
            engine.new_interface("CORBA")
        message = str(excinfo.value)
        # The message enumerates the live registry, not a hardcoded pair.
        for name in registered_bindings():
            assert repr(name) in message

    def test_capabilities(self):
        assert "in-process" in binding_capabilities("LOCAL")
        assert "sharded" in binding_capabilities("SHARDED")
        assert "distributed" in binding_capabilities("JXTA")

    def test_third_party_binding_via_public_api(self, bus):
        requests = []

        def factory(request: BindingRequest):
            requests.append(request)
            return LocalTPSEngine(request.event_type, bus=bus)

        register_binding("CUSTOM", factory, capabilities=("test",))
        try:
            engine = TPSEngine(SkiRental, local_bus=bus)
            interface = engine.new_interface("custom", None, None, ["--flag"])
            assert isinstance(interface, LocalTPSEngine)
            assert interface in engine.interfaces
            (request,) = requests
            assert request.event_type is SkiRental
            assert request.argv == ("--flag",)
            assert request.local_bus is bus
        finally:
            assert unregister_binding("CUSTOM")
        with pytest.raises(PSException):
            get_binding("CUSTOM")

    def test_duplicate_registration_needs_replace(self):
        register_binding("DUP", lambda request: None)
        try:
            with pytest.raises(PSException):
                register_binding("DUP", lambda request: None)
            register_binding("DUP", lambda request: None, replace=True)
        finally:
            unregister_binding("DUP")

    def test_interfaces_satisfy_the_binding_protocol(self, pair):
        publisher, _ = pair
        assert isinstance(publisher, TPSBinding)

    def test_jxta_binding_still_requires_a_peer(self):
        with pytest.raises(PSException) as excinfo:
            TPSEngine(SkiRental).new_interface("JXTA")
        assert "peer" in str(excinfo.value)


class TestShardedBinding:
    def test_registered_through_public_api_only(self):
        # The engine module must not know about SHARDED: the registry does.
        import repro.core.engine as engine_module

        source = open(engine_module.__file__, encoding="utf-8").read()
        assert "SHARDED" not in source.replace('``"SHARDED"``', "")

    def test_same_hierarchy_lands_on_one_shard(self):
        sharded = ShardedLocalBus(shards=4)
        publisher = TPSEngine(SkiRental, local_bus=sharded).new_interface("SHARDED")
        subscriber = TPSEngine(SkiRental, local_bus=sharded).new_interface("SHARDED")
        root = publisher.registry.advertised_name
        assert sharded._engines[root] == (publisher, subscriber)
        # Root partitioning: every event of the hierarchy shares its shard.
        assert sharded.partition_index(root, _offer()) == sharded.shard_index(root)

    def test_delivery_matches_local_semantics(self):
        sharded = ShardedLocalBus(shards=4)
        publisher = TPSEngine(SkiRental, local_bus=sharded).new_interface("SHARDED")
        subscriber = TPSEngine(SkiRental, local_bus=sharded).new_interface("SHARDED")
        received = []
        subscriber.subscribe(received.append)
        offer = _offer()
        publisher.publish(offer)
        assert len(received) == 1
        assert received[0] == offer and received[0] is not offer
        assert publisher.objects_received() == []  # no self-delivery

    def test_type_mismatch_rejected_like_local(self):
        sharded = ShardedLocalBus(shards=2)
        publisher = TPSEngine(SkiRental, local_bus=sharded).new_interface("SHARDED")
        from repro.core.exceptions import TypeMismatchError

        with pytest.raises(TypeMismatchError):
            publisher.publish(SnowboardRental("s", 1.0, "b", 1))

    def test_default_bus_used_when_none_given(self):
        # No bus and no params: the registry builds the all-default bus on
        # first use, and every parameter-less interface shares it.
        interface = TPSEngine(SkiRental).new_interface("SHARDED")
        twin = TPSEngine(SkiRental).new_interface("SHARDED")
        try:
            assert isinstance(interface.bus, ShardedLocalBus)
            assert len(interface.bus.shards) == DEFAULT_SHARD_COUNT
            assert twin.bus is interface.bus
            attached = interface.bus._engines[interface.registry.advertised_name]
            assert interface in attached and twin in attached
        finally:
            interface.close()
            twin.close()

    def test_plain_local_bus_rejected(self, bus):
        with pytest.raises(PSException) as excinfo:
            TPSEngine(SkiRental, local_bus=bus).new_interface("SHARDED")
        assert "ShardedLocalBus" in str(excinfo.value)

    def test_shard_placement_is_stable(self):
        a = ShardedLocalBus(shards=8)
        b = ShardedLocalBus(shards=8)
        assert a.shard_index("some.module.Type") == b.shard_index("some.module.Type")

    def test_needs_at_least_one_shard(self):
        with pytest.raises(PSException):
            ShardedLocalBus(shards=0)


# ---------------------------------------------------------------- handles


class TestSubscriptionHandle:
    def test_subscribe_returns_an_active_handle(self, pair):
        _, subscriber = pair
        handle = subscriber.subscribe(lambda event: None)
        assert isinstance(handle, SubscriptionHandle)
        assert handle.active and len(handle) == 1
        assert handle.interface is subscriber

    def test_cancel_removes_exactly_this_subscription(self, pair):
        publisher, subscriber = pair
        first, second = [], []
        shared = lambda event: None  # noqa: E731 - identity matters here
        subscriber.subscribe(first.append)
        handle = subscriber.subscribe(shared)
        subscriber.subscribe(second.append)
        assert handle.cancel() == 1
        assert not handle.active
        publisher.publish(_offer())
        assert len(first) == 1 and len(second) == 1

    def test_cancel_is_idempotent(self, pair):
        _, subscriber = pair
        handle = subscriber.subscribe(lambda event: None)
        assert handle.cancel() == 1
        assert handle.cancel() == 0

    def test_cancel_distinguishes_same_callback_registered_twice(self, pair):
        publisher, subscriber = pair
        inbox = []
        first = subscriber.subscribe(inbox.append)
        second = subscriber.subscribe(inbox.append)
        assert first.cancel() == 1
        assert second.active
        publisher.publish(_offer())
        assert len(inbox) == 1  # the second subscription still delivers

    def test_list_subscribe_handle_covers_all_callbacks(self, pair):
        publisher, subscriber = pair
        first, second = [], []
        handle = subscriber.subscribe([first.append, second.append])
        assert len(handle) == 2
        assert handle.cancel() == 2
        publisher.publish(_offer())
        assert first == [] and second == []

    def test_handle_as_context_manager(self, pair):
        publisher, subscriber = pair
        inbox = []
        with subscriber.subscribe(inbox.append):
            publisher.publish(_offer())
        publisher.publish(_offer())
        assert len(inbox) == 1

    def test_cancel_after_blanket_unsubscribe_removes_nothing(self, pair):
        _, subscriber = pair
        handle = subscriber.subscribe(lambda event: None)
        assert subscriber.unsubscribe() == 1
        assert handle.cancel() == 0


# ---------------------------------------------------------------- builder


class TestSubscriptionBuilder:
    def test_where_filters_before_dispatch(self, pair):
        publisher, subscriber = pair
        cheap = []
        subscriber.subscription(cheap.append).where(lambda o: o.price < 100).start()
        publisher.publish(_offer(50.0))
        publisher.publish(_offer(500.0))
        assert [o.price for o in cheap] == [50.0]
        # Interface-level history still records both: the predicate is
        # per-subscription, unlike interface-level Criteria.
        assert len(subscriber.objects_received()) == 2

    def test_multiple_where_clauses_are_anded(self, pair):
        publisher, subscriber = pair
        hits = []
        (
            subscriber.subscription(hits.append)
            .where(lambda o: o.price > 10)
            .where(lambda o: o.price < 100)
            .start()
        )
        for price in (5.0, 50.0, 500.0):
            publisher.publish(_offer(price))
        assert [o.price for o in hits] == [50.0]

    def test_predicate_is_pushed_into_dispatch_rows(self, pair):
        _, subscriber = pair
        predicate = lambda o: o.price < 100  # noqa: E731
        subscriber.subscription(lambda event: None).where(predicate).start()
        ((_, _, row_predicate, _),) = subscriber.subscriber_manager._handlers
        assert row_predicate is predicate

    def test_on_error_routes_callback_exceptions(self, pair):
        publisher, subscriber = pair
        errors = CollectingExceptionHandler()

        def broken(offer):
            raise RuntimeError("boom")

        subscriber.subscription(broken).on_error(errors).start()
        publisher.publish(_offer())
        assert len(errors.errors) == 1

    def test_start_returns_cancellable_handle(self, pair):
        publisher, subscriber = pair
        inbox = []
        handle = subscriber.subscription(inbox.append).where(lambda o: True).start()
        assert handle.cancel() == 1
        publisher.publish(_offer())
        assert inbox == []

    def test_builder_without_callback_rejected(self, pair):
        _, subscriber = pair
        with pytest.raises(PSException):
            subscriber.subscription().start()

    def test_builder_is_single_use(self, pair):
        _, subscriber = pair
        builder = subscriber.subscription(lambda event: None)
        builder.start()
        with pytest.raises(PSException):
            builder.start()

    def test_non_callable_predicate_rejected(self, pair):
        _, subscriber = pair
        with pytest.raises(PSException):
            subscriber.subscription(lambda event: None).where("price < 100")

    def test_builder_works_over_criteria(self, bus):
        # Interface-level Criteria and pushed-down predicates compose.
        publisher = TPSEngine(SkiRental, local_bus=bus).new_interface("LOCAL")
        subscriber = TPSEngine(SkiRental, local_bus=bus).new_interface(
            "LOCAL", Criteria(event_predicate=lambda o: o.price < 1000)
        )
        hits = []
        subscriber.subscription(hits.append).where(lambda o: o.price < 100).start()
        for price in (50.0, 500.0, 5000.0):
            publisher.publish(_offer(price))
        assert [o.price for o in hits] == [50.0]
        assert len(subscriber.objects_received()) == 2  # criteria dropped 5000

    def test_raising_predicate_routed_to_error_handler(self, pair):
        # A broken pushed-down predicate behaves exactly like a broken
        # callback: routed to the paired handler, publisher unharmed,
        # delivery to other subscribers unaffected.
        publisher, subscriber = pair
        errors = CollectingExceptionHandler()
        filtered, plain = [], []

        def broken_predicate(offer):
            raise ValueError("broken filter")

        subscriber.subscription(filtered.append).where(broken_predicate).on_error(
            errors
        ).start()
        subscriber.subscribe(plain.append)
        publisher.publish(_offer())
        assert filtered == []
        assert len(plain) == 1
        assert len(errors.errors) == 1
        assert isinstance(errors.errors[0], ValueError)

    def test_raising_predicate_in_manager_dispatch(self, pair):
        # Same guarantee on the manager's own dispatch loop (the JXTA
        # receive path).
        _, subscriber = pair
        errors = CollectingExceptionHandler()
        hits = []
        subscriber.subscription(hits.append).where(
            lambda o: o.missing_attribute
        ).on_error(errors).start()
        assert subscriber.subscriber_manager.dispatch(_offer()) == 0
        assert hits == [] and len(errors.errors) == 1

    def test_filtering_callback_equivalent_semantics(self, pair):
        # The pre-v2 wrapper and the pushed-down predicate deliver the same
        # events; only the dispatch cost differs.
        publisher, subscriber = pair
        wrapped, pushed = [], []
        subscriber.subscribe(FilteringCallback(lambda o: o.price < 100, wrapped.append))
        subscriber.subscription(pushed.append).where(lambda o: o.price < 100).start()
        for price in (50.0, 500.0):
            publisher.publish(_offer(price))
        assert [o.price for o in wrapped] == [o.price for o in pushed] == [50.0]


# ----------------------------------------------------------------- stream


class TestEventStream:
    def test_drain_collects_published_events(self, pair):
        publisher, subscriber = pair
        with subscriber.stream() as stream:
            for price in (1.0, 2.0, 3.0):
                publisher.publish(_offer(price))
            assert stream.pending == 3
            assert [o.price for o in stream.drain()] == [1.0, 2.0, 3.0]
            assert stream.pending == 0

    def test_get_returns_events_in_order(self, pair):
        publisher, subscriber = pair
        with subscriber.stream() as stream:
            publisher.publish(_offer(1.0))
            publisher.publish(_offer(2.0))
            assert stream.get().price == 1.0
            assert stream.get().price == 2.0

    def test_get_timeout_raises(self, pair):
        _, subscriber = pair
        with subscriber.stream() as stream:
            with pytest.raises(PSException):
                stream.get(timeout=0.01)

    def test_iteration_ends_at_close(self, pair):
        publisher, subscriber = pair
        stream = subscriber.stream()
        for price in (1.0, 2.0):
            publisher.publish(_offer(price))
        stream.close()
        assert [o.price for o in stream] == [1.0, 2.0]

    def test_drop_oldest_policy_bounds_the_buffer(self, pair):
        publisher, subscriber = pair
        with subscriber.stream(maxsize=3, policy="drop_oldest") as stream:
            for price in range(6):
                publisher.publish(_offer(float(price)))
            assert stream.pending == 3
            assert stream.dropped == 3
            assert [o.price for o in stream.drain()] == [3.0, 4.0, 5.0]

    def test_block_policy_applies_backpressure_to_the_publisher(self, pair):
        publisher, subscriber = pair
        stream = subscriber.stream(maxsize=1, policy="block")
        publisher.publish(_offer(1.0))  # fills the buffer
        published = threading.Event()

        def second_publish():
            publisher.publish(_offer(2.0))  # must block until a get()
            published.set()

        worker = threading.Thread(target=second_publish, daemon=True)
        worker.start()
        assert not published.wait(timeout=0.1)  # publisher is blocked
        assert stream.get(timeout=1.0).price == 1.0
        assert published.wait(timeout=1.0)  # consuming unblocked it
        worker.join(timeout=1.0)
        assert stream.get(timeout=1.0).price == 2.0
        stream.close()

    def test_close_unblocks_a_blocked_publisher(self, pair):
        publisher, subscriber = pair
        stream = subscriber.stream(maxsize=1, policy="block")
        publisher.publish(_offer(1.0))
        done = threading.Event()

        def blocked_publish():
            publisher.publish(_offer(2.0))
            done.set()

        threading.Thread(target=blocked_publish, daemon=True).start()
        assert not done.wait(timeout=0.05)
        stream.close()
        assert done.wait(timeout=1.0)

    def test_close_cancels_the_subscription(self, pair):
        publisher, subscriber = pair
        stream = subscriber.stream()
        stream.close()
        publisher.publish(_offer())
        assert stream.pending == 0
        assert stream.closed

    def test_filtered_stream_through_the_builder(self, pair):
        publisher, subscriber = pair
        with subscriber.subscription().where(lambda o: o.price < 100).stream() as stream:
            publisher.publish(_offer(50.0))
            publisher.publish(_offer(500.0))
            assert [o.price for o in stream.drain()] == [50.0]

    def test_stream_builder_rejects_a_callback(self, pair):
        _, subscriber = pair
        with pytest.raises(PSException):
            subscriber.subscription(lambda event: None).stream()

    def test_interface_close_closes_open_streams(self, pair):
        # A consumer blocked on get() must wake up when the interface (and
        # with it the stream's subscription) goes away.
        _, subscriber = pair
        stream = subscriber.stream()
        failure: list = []

        def consume():
            try:
                stream.get(timeout=5.0)
                failure.append("get returned an event")
            except PSException:
                pass  # closed-and-empty: the expected wake-up

        worker = threading.Thread(target=consume, daemon=True)
        worker.start()
        subscriber.close()
        worker.join(timeout=2.0)
        assert not worker.is_alive()
        assert stream.closed and failure == []

    def test_blanket_unsubscribe_closes_open_streams(self, pair):
        _, subscriber = pair
        stream = subscriber.stream()
        subscriber.unsubscribe()
        assert stream.closed

    def test_closing_a_stream_unregisters_it(self, pair):
        _, subscriber = pair
        stream = subscriber.stream()
        stream.close()
        assert stream not in getattr(subscriber, "_open_streams", [])
        subscriber.close()  # must not re-close or fail

    def test_unknown_policy_rejected(self, pair):
        _, subscriber = pair
        with pytest.raises(PSException):
            subscriber.stream(maxsize=2, policy="drop_newest")

    def test_negative_maxsize_rejected(self, pair):
        _, subscriber = pair
        with pytest.raises(PSException):
            subscriber.stream(maxsize=-1)


# -------------------------------------------------------------- lifecycle


class TestInterfaceLifecycle:
    @pytest.fixture(params=["LOCAL", "SHARDED"])
    def interface(self, request):
        local_bus = LocalBus() if request.param == "LOCAL" else ShardedLocalBus(2)
        return TPSEngine(SkiRental, local_bus=local_bus).new_interface(request.param)

    def test_close_is_idempotent(self, interface):
        interface.close()
        interface.close()
        assert interface.closed

    def test_publish_after_close_raises_uniform_message(self, interface):
        interface.close()
        with pytest.raises(PSException) as excinfo:
            interface.publish(_offer())
        assert "is closed" in str(excinfo.value)

    def test_subscribe_after_close_raises_uniform_message(self, interface):
        interface.close()
        with pytest.raises(PSException) as excinfo:
            interface.subscribe(lambda event: None)
        assert "is closed" in str(excinfo.value)

    def test_builder_and_stream_after_close_raise(self, interface):
        interface.close()
        with pytest.raises(PSException):
            interface.subscription(lambda event: None)
        with pytest.raises(PSException):
            interface.stream()

    def test_history_survives_close(self, bus):
        publisher = TPSEngine(SkiRental, local_bus=bus).new_interface("LOCAL")
        publisher.publish(_offer())
        publisher.close()
        assert len(publisher.objects_sent()) == 1
        assert publisher.unsubscribe() == 0  # unsubscribe stays harmless

    def test_interface_is_a_context_manager(self, bus):
        with TPSEngine(SkiRental, local_bus=bus).new_interface("LOCAL") as interface:
            interface.publish(_offer())
        assert interface.closed
        with pytest.raises(PSException):
            interface.publish(_offer())

    def test_close_detaches_from_delivery(self, pair):
        publisher, subscriber = pair
        inbox = []
        subscriber.subscribe(inbox.append)
        subscriber.close()
        publisher.publish(_offer())
        assert inbox == []


class TestJxtaLifecycle:
    def test_jxta_close_idempotent_and_post_close_raises(self, lan):
        peer = lan.peer_named("peer-0")
        interface = TPSEngine(
            SkiRental, peer=peer, config=TPSConfig(search_timeout=2.0)
        ).new_interface("JXTA")
        lan.settle(rounds=6)
        interface.close()
        interface.close()
        assert interface.closed
        with pytest.raises(PSException) as publish_error:
            interface.publish(_offer())
        with pytest.raises(PSException) as subscribe_error:
            interface.subscribe(lambda event: None)
        assert "is closed" in str(publish_error.value)
        assert "is closed" in str(subscribe_error.value)

    def test_jxta_handle_cancel_closes_readers_when_last(self, lan):
        peer = lan.peer_named("peer-1")
        interface = TPSEngine(
            SkiRental, peer=peer, config=TPSConfig(search_timeout=2.0)
        ).new_interface("JXTA")
        lan.settle(rounds=6)
        handle = interface.subscribe(lambda event: None)
        assert any(a.input_pipe is not None for a in interface.manager.attachments)
        assert handle.cancel() == 1
        assert all(a.input_pipe is None for a in interface.manager.attachments)


class TestEngineLifecycle:
    def test_engine_close_closes_created_interfaces(self, bus):
        engine = TPSEngine(SkiRental, local_bus=bus)
        first = engine.new_interface("LOCAL")
        second = engine.new_interface("LOCAL")
        engine.close()
        assert engine.closed and first.closed and second.closed

    def test_engine_close_is_idempotent(self, bus):
        engine = TPSEngine(SkiRental, local_bus=bus)
        engine.new_interface("LOCAL")
        engine.close()
        engine.close()

    def test_new_interface_after_close_raises(self, bus):
        engine = TPSEngine(SkiRental, local_bus=bus)
        engine.close()
        with pytest.raises(PSException) as excinfo:
            engine.new_interface("LOCAL")
        assert "is closed" in str(excinfo.value)

    def test_engine_close_attempts_every_interface(self, bus):
        # One failing interface must not strand the others, and the engine
        # must stay retryable.
        engine = TPSEngine(SkiRental, local_bus=bus)
        first = engine.new_interface("LOCAL")
        second = engine.new_interface("LOCAL")

        original = first._do_close
        calls = []

        def failing_close():
            calls.append("boom")
            raise RuntimeError("teardown failure")

        first._do_close = failing_close
        with pytest.raises(RuntimeError):
            engine.close()
        assert second.closed  # the loop kept going
        assert not engine.closed  # retryable
        first._do_close = original
        engine.close()
        assert engine.closed and first.closed

    def test_interface_close_reverts_on_teardown_failure(self, bus):
        interface = TPSEngine(SkiRental, local_bus=bus).new_interface("LOCAL")

        original = interface._do_close

        def failing_close():
            raise RuntimeError("teardown failure")

        interface._do_close = failing_close
        with pytest.raises(RuntimeError):
            interface.close()
        assert not interface.closed  # close() can be retried
        interface._do_close = original
        interface.close()
        assert interface.closed

    def test_engine_as_context_manager(self, bus):
        with TPSEngine(SkiRental, local_bus=bus) as engine:
            interface = engine.new_interface("LOCAL")
        assert engine.closed and interface.closed
