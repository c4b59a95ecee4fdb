"""Tests for the callback adapters and the TPSInterface base behaviour."""

from __future__ import annotations

import pytest

from repro.core.callbacks import (
    CollectingCallback,
    CollectingExceptionHandler,
    FunctionCallback,
    FunctionExceptionHandler,
    PrintingExceptionHandler,
    as_callback,
    as_exception_handler,
)
from repro.core.exceptions import PSException
from repro.core.interface import Subscription
from repro.core.local_engine import LocalBus, LocalTPSEngine
from repro.core.subscriber import TPSSubscriberManager


class Event:
    def __init__(self, value=0):
        self.value = value


class TestCallbackAdapters:
    def test_plain_callable_adapted(self):
        collected = []
        callback = as_callback(collected.append)
        callback.handle("x")
        assert collected == ["x"]

    def test_callback_instance_passes_through(self):
        callback = CollectingCallback()
        assert as_callback(callback) is callback

    def test_invalid_callback_rejected(self):
        with pytest.raises(TypeError):
            as_callback(42)
        with pytest.raises(TypeError):
            FunctionCallback("not callable")

    def test_exception_handler_adapters(self):
        errors = []
        handler = as_exception_handler(errors.append)
        handler.handle(ValueError("x"))
        assert len(errors) == 1
        collecting = CollectingExceptionHandler()
        assert as_exception_handler(collecting) is collecting
        # None means "collect silently".
        default = as_exception_handler(None)
        default.handle(ValueError("y"))
        assert len(default.errors) == 1
        with pytest.raises(TypeError):
            as_exception_handler(3.14)
        with pytest.raises(TypeError):
            FunctionExceptionHandler(3.14)

    def test_printing_handler_does_not_raise(self, capsys):
        PrintingExceptionHandler().handle(RuntimeError("boom"))
        assert "boom" in capsys.readouterr().out

    def test_collecting_callback_len(self):
        callback = CollectingCallback()
        callback.handle(1)
        callback.handle(2)
        assert len(callback) == 2


class TestSubscription:
    def test_matches_original_objects(self):
        def callback(event):
            pass

        def handler(error):
            pass

        subscription = Subscription(
            callback=as_callback(callback),
            exception_handler=as_exception_handler(handler),
            original_callback=callback,
            original_handler=handler,
        )
        assert subscription.matches(callback)
        assert subscription.matches(callback, handler)
        assert not subscription.matches(lambda e: None)
        assert not subscription.matches(callback, lambda e: None)


class TestSubscriberManager:
    def test_dispatch_routes_errors_to_handlers(self):
        manager = TPSSubscriberManager()
        good, errors = [], CollectingExceptionHandler()

        def failing(event):
            raise ValueError("nope")

        manager.add(
            Subscription(as_callback(good.append), as_exception_handler(None), good.append)
        )
        manager.add(Subscription(as_callback(failing), errors, failing))
        delivered = manager.dispatch("event")
        assert delivered == 1
        assert good == ["event"]
        assert len(errors.errors) == 1

    def test_broken_exception_handler_does_not_stop_dispatch(self):
        manager = TPSSubscriberManager()

        def failing(event):
            raise ValueError("nope")

        def broken_handler(error):
            raise RuntimeError("handler is broken too")

        collected = []
        manager.add(Subscription(as_callback(failing), as_exception_handler(broken_handler), failing))
        manager.add(Subscription(as_callback(collected.append), as_exception_handler(None), collected.append))
        assert manager.dispatch("e") == 1
        assert collected == ["e"]

    def test_remove_specific_and_all(self):
        manager = TPSSubscriberManager()
        a, b = (lambda e: None), (lambda e: None)
        manager.add(Subscription(as_callback(a), as_exception_handler(None), a))
        manager.add(Subscription(as_callback(b), as_exception_handler(None), b))
        assert manager.remove(a) == 1
        assert len(manager) == 1
        assert manager.remove() == 1
        assert manager.empty


class TestInterfaceSubscribeForms:
    """The subscribe()/unsubscribe() forms of Figure 8, exercised on the local binding."""

    def _pair(self):
        bus = LocalBus()
        publisher = LocalTPSEngine(Event, bus=bus)
        subscriber = LocalTPSEngine(Event, bus=bus)
        return publisher, subscriber

    def test_single_callback_subscribe(self):
        publisher, subscriber = self._pair()
        collected = []
        subscriber.subscribe(collected.append)
        publisher.publish(Event(1))
        assert len(collected) == 1

    def test_list_subscribe_with_matching_handlers(self):
        publisher, subscriber = self._pair()
        first, second = [], []
        errors = CollectingExceptionHandler()
        subscriber.subscribe([first.append, second.append], [errors, errors])
        publisher.publish(Event(2))
        assert len(first) == 1 and len(second) == 1

    def test_list_subscribe_with_shared_handler(self):
        publisher, subscriber = self._pair()
        first, second = [], []
        errors = CollectingExceptionHandler()
        subscriber.subscribe([first.append, second.append], errors)
        publisher.publish(Event(3))
        assert len(first) == len(second) == 1

    def test_list_subscribe_mismatched_lengths_rejected(self):
        _publisher, subscriber = self._pair()
        with pytest.raises(PSException):
            subscriber.subscribe([lambda e: None, lambda e: None], [None])

    def test_empty_callback_list_rejected(self):
        _publisher, subscriber = self._pair()
        with pytest.raises(PSException):
            subscriber.subscribe([])

    def test_unsubscribe_specific_callback(self):
        publisher, subscriber = self._pair()
        keep, drop = [], []
        subscriber.subscribe(keep.append)
        subscriber.subscribe(drop.append)
        assert subscriber.unsubscribe(drop.append) == 1
        publisher.publish(Event(4))
        assert len(keep) == 1 and len(drop) == 0

    def test_unsubscribe_all(self):
        publisher, subscriber = self._pair()
        collected = []
        subscriber.subscribe(collected.append)
        subscriber.subscribe(collected.append)
        assert subscriber.unsubscribe() == 2
        publisher.publish(Event(5))
        assert collected == []

    def test_camel_case_aliases(self):
        publisher, subscriber = self._pair()
        collected = []
        subscriber.subscribe(collected.append)
        publisher.publish(Event(6))
        assert len(subscriber.objectsReceived()) == 1
        assert len(publisher.objectsSent()) == 1


class TestDispatchSnapshot:
    def _subscription(self, sink):
        return Subscription(
            callback=as_callback(sink.append),
            exception_handler=as_exception_handler(lambda error: None),
        )

    def test_dispatch_uses_snapshot_rebuilt_on_change(self):
        manager = TPSSubscriberManager()
        received: list = []
        manager.add(self._subscription(received))
        assert manager.dispatch("e1") == 1
        snapshot = manager._handlers
        assert manager.dispatch("e2") == 1
        assert manager._handlers is snapshot  # unchanged between events
        manager.add(self._subscription(received))
        assert manager._handlers is not snapshot  # rebuilt on mutation
        assert manager.dispatch("e3") == 2
        assert received == ["e1", "e2", "e3", "e3"]

    def test_remove_updates_snapshot(self):
        manager = TPSSubscriberManager()
        received: list = []
        subscription = self._subscription(received)
        manager.add(subscription)
        assert manager.remove(subscription.callback) == 1
        assert manager.dispatch("event") == 0
        assert manager.empty and received == []
