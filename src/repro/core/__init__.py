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

Five bindings self-register with the binding registry
(:mod:`repro.core.bindings`): ``"JXTA"`` (over the simulated JXTA substrate,
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

from repro.core.advertisements import (
    PS_PREFIX,
    TPSAdvertisementsCreator,
    TPSAdvertisementsFinder,
)
from repro.core.async_engine import (
    AsyncEventStream,
    AsyncLocalBus,
    AsyncTPSEngine,
)
from repro.core.bindings import (
    BindingParam,
    BindingRequest,
    BindingSpec,
    TPSBinding,
    binding_capabilities,
    binding_params,
    get_binding,
    register_binding,
    registered_bindings,
    unregister_binding,
)
from repro.core.callbacks import (
    CollectingCallback,
    CollectingExceptionHandler,
    FilteringCallback,
    FunctionCallback,
    FunctionExceptionHandler,
    PrintingExceptionHandler,
    TPSCallBackInterface,
    TPSExceptionHandler,
)
from repro.core.composite_engine import ShardedJxtaTPSEngine
from repro.core.engine import TPSEngine
from repro.core.exceptions import (
    CallBackException,
    NotInitializedError,
    PSException,
    TypeMismatchError,
)
from repro.core.interface import (
    PublishReceipt,
    Subscription,
    TPSInterface,
    TPSInterfaceCore,
)
from repro.core.jxta_engine import JxtaTPSEngine, TPSConfig
from repro.core.local_engine import LocalBus, LocalTPSEngine
from repro.core.reply import Reply, ReplyEndpoint, Replyable, reply
from repro.core.sharded_engine import DEFAULT_SHARD_COUNT, ShardedLocalBus
from repro.core.subscriber import TPSSubscriberManager
from repro.core.subscriptions import (
    EventStream,
    StreamCore,
    SubscriptionBuilder,
    SubscriptionHandle,
)
from repro.core.type_registry import (
    Criteria,
    TypeRegistry,
    all_subtypes,
    hierarchy_root,
    type_name,
)
from repro.core.wire_finder import TPSWireServiceFinder
from repro.core.xml_types import (
    DynamicEvent,
    XmlEventCodec,
    XmlTypeDescription,
    describe_type,
)

__all__ = [
    "AsyncEventStream",
    "AsyncLocalBus",
    "AsyncTPSEngine",
    "BindingParam",
    "BindingRequest",
    "BindingSpec",
    "DEFAULT_SHARD_COUNT",
    "DynamicEvent",
    "EventStream",
    "FilteringCallback",
    "Reply",
    "ReplyEndpoint",
    "Replyable",
    "XmlEventCodec",
    "XmlTypeDescription",
    "describe_type",
    "reply",
    "CallBackException",
    "CollectingCallback",
    "CollectingExceptionHandler",
    "Criteria",
    "FunctionCallback",
    "FunctionExceptionHandler",
    "JxtaTPSEngine",
    "LocalBus",
    "LocalTPSEngine",
    "NotInitializedError",
    "PSException",
    "PS_PREFIX",
    "PrintingExceptionHandler",
    "PublishReceipt",
    "ShardedJxtaTPSEngine",
    "ShardedLocalBus",
    "StreamCore",
    "Subscription",
    "SubscriptionBuilder",
    "SubscriptionHandle",
    "TPSAdvertisementsCreator",
    "TPSAdvertisementsFinder",
    "TPSBinding",
    "TPSCallBackInterface",
    "TPSConfig",
    "TPSEngine",
    "TPSExceptionHandler",
    "TPSInterface",
    "TPSInterfaceCore",
    "TPSSubscriberManager",
    "TPSWireServiceFinder",
    "TypeMismatchError",
    "TypeRegistry",
    "all_subtypes",
    "binding_capabilities",
    "binding_params",
    "get_binding",
    "hierarchy_root",
    "register_binding",
    "registered_bindings",
    "type_name",
    "unregister_binding",
]
