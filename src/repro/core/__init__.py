"""Type-based Publish/Subscribe (TPS) -- the paper's contribution.

The public API mirrors the paper's Section 3:

* :class:`TPSEngine` -- one per event type (hierarchy); its
  :meth:`~repro.core.engine.TPSEngine.new_interface` returns a
  :class:`TPSInterface`.
* :class:`TPSInterface` -- the seven operations of Figure 8: ``publish``,
  ``subscribe`` (single callback or a list), ``unsubscribe`` (one or all),
  ``objects_received`` and ``objects_sent``.
* :class:`TPSCallBackInterface` / :class:`TPSExceptionHandler` -- the typed
  callback and exception-handler interfaces (plain callables are accepted
  everywhere).
* :class:`Criteria` -- advertisement and content filtering.
* :class:`PSException` / :class:`CallBackException` -- the API's exceptions.

Five built-in bindings register with the binding registry
(:mod:`repro.core.bindings`) on first use -- the registry imports a
binding's module the first time its name is asked for, and this package
resolves its names lazily, so a LOCAL program never imports the JXTA
substrate, the simulator or asyncio: ``"JXTA"`` (over the simulated JXTA substrate,
:class:`JxtaTPSEngine`), ``"LOCAL"`` (in-process, :class:`LocalTPSEngine`),
``"SHARDED"`` (in-process over an N-shard bus, :class:`ShardedLocalBus`;
root- or content-keyed partitioning), ``"SHARDED+JXTA"`` (one JXTA engine
also attached to a sharded bus, :class:`ShardedJxtaTPSEngine`) and ``"ASYNC"``
(asyncio-native, :class:`AsyncTPSEngine`: event-loop-owned bus, coroutine
subscribers, awaitable publish/backpressure -- see
:mod:`repro.core.async_engine`).  Applications add their own with
:func:`register_binding`; every binding can declare a parameter schema that
``new_interface(name, ..., **params)`` is validated against.

The v2 surface on top of the paper's Figure 8 (all back-compatible):
:meth:`~repro.core.interface.TPSInterface.subscribe` returns a
:class:`SubscriptionHandle`; the fluent
:meth:`~repro.core.interface.TPSInterface.subscription` builder pushes
``where`` predicates down into dispatch; and
:meth:`~repro.core.interface.TPSInterface.stream` returns an
:class:`EventStream` for pull-style consumption.  Interfaces and engines are
context managers with idempotent ``close()``.
"""

from __future__ import annotations

from repro._exports import lazy_exports

# Eager on purpose: importing the submodule repro.core.reply binds the
# *module* to this package's ``reply`` attribute, which a lazy export would
# then never replace; binding the function here first keeps it.
from repro.core.reply import reply

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "advertisements": (
            "PS_PREFIX",
            "TPSAdvertisementsCreator",
            "TPSAdvertisementsFinder",
        ),
        "async_engine": ("AsyncEventStream", "AsyncLocalBus", "AsyncTPSEngine"),
        "bindings": (
            "BindingParam",
            "BindingRequest",
            "BindingSpec",
            "TPSBinding",
            "binding_capabilities",
            "binding_params",
            "get_binding",
            "register_binding",
            "registered_bindings",
            "unregister_binding",
        ),
        "callbacks": (
            "CollectingCallback",
            "CollectingExceptionHandler",
            "FilteringCallback",
            "FunctionCallback",
            "FunctionExceptionHandler",
            "PrintingExceptionHandler",
            "TPSCallBackInterface",
            "TPSExceptionHandler",
        ),
        "composite_engine": ("ShardedJxtaTPSEngine",),
        "engine": ("TPSEngine",),
        "exceptions": (
            "CallBackException",
            "NotInitializedError",
            "PSException",
            "TypeMismatchError",
        ),
        "interface": ("PublishReceipt", "Subscription", "TPSInterface", "TPSInterfaceCore"),
        "jxta_engine": ("JxtaTPSEngine", "TPSConfig"),
        "local_engine": ("LocalBus", "LocalTPSEngine"),
        "reply": ("Reply", "ReplyEndpoint", "Replyable", "reply"),
        "sharded_engine": ("DEFAULT_SHARD_COUNT", "ShardedLocalBus"),
        "subscriber": ("TPSSubscriberManager",),
        "subscriptions": (
            "EventStream",
            "StreamCore",
            "SubscriptionBuilder",
            "SubscriptionHandle",
        ),
        "type_registry": (
            "Criteria",
            "TypeRegistry",
            "all_subtypes",
            "hierarchy_root",
            "type_name",
        ),
        "wire_finder": ("TPSWireServiceFinder",),
        "xml_types": (
            "DynamicEvent",
            "XmlEventCodec",
            "XmlTypeDescription",
            "describe_type",
        ),
    },
)
