"""Registry error paths and the parameterised binding factory surface.

Covers the v2 parameter machinery end to end: unknown bindings still list
the live registry, unknown/ill-typed parameter keys name the offending key
and the accepted schema, ``registered_bindings(with_params=True)`` reports
every binding's declared parameter names, and the built-in schemas
(SHARDED bus construction/sharing, JXTA config overrides, LOCAL's empty
schema) behave as documented.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List

import pytest

from repro.apps.skirental.types import SkiRental
from repro.core import AsyncLocalBus, TPSConfig, TPSEngine
from repro.core.bindings import (
    BindingParam,
    BindingRequest,
    binding_params,
    get_binding,
    register_binding,
    registered_bindings,
    unregister_binding,
)
from repro.core.exceptions import PSException
from repro.core.local_engine import LocalBus, LocalTPSEngine
from repro.core.sharded_engine import ShardedLocalBus, register_sharded_binding


class TestUnknownBinding:
    def test_error_lists_live_registry_even_with_params(self):
        engine = TPSEngine(SkiRental, local_bus=LocalBus())
        with pytest.raises(PSException) as excinfo:
            engine.new_interface("CORBA", shards=4)
        message = str(excinfo.value)
        for name in registered_bindings():
            assert repr(name) in message

    def test_composite_binding_is_registered(self):
        assert "SHARDED+JXTA" in registered_bindings()
        assert get_binding("sharded+jxta").name == "SHARDED+JXTA"


class TestParamValidationErrors:
    def test_unknown_key_names_key_and_schema(self):
        engine = TPSEngine(SkiRental)
        with pytest.raises(PSException) as excinfo:
            engine.new_interface("SHARDED", bogus=1)
        message = str(excinfo.value)
        assert "'bogus'" in message
        for declared in ("shards", "partition", "content_key"):
            assert declared in message

    @pytest.mark.parametrize("binding", ["SHARDED", "SHARDED+JXTA"])
    @pytest.mark.parametrize("mode", ["ring", "modn", "spiral"])
    def test_retired_placement_param_is_unknown(self, binding, mode):
        # One placement policy (the consistent-hash ring): the knob that
        # used to select between two is an unknown key on both schemas.
        assert "placement" not in get_binding(binding).param_names
        with pytest.raises(PSException) as excinfo:
            TPSEngine(SkiRental).new_interface(binding, placement=mode)
        message = str(excinfo.value)
        assert "'placement'" in message and "virtual_nodes" in message

    def test_wrong_type_names_key_and_expectation(self):
        engine = TPSEngine(SkiRental)
        with pytest.raises(PSException) as excinfo:
            engine.new_interface("SHARDED", shards="many")
        message = str(excinfo.value)
        assert "'shards'" in message and "int" in message and "'many'" in message

    def test_value_check_failures_name_the_key(self):
        engine = TPSEngine(SkiRental)
        with pytest.raises(PSException) as excinfo:
            engine.new_interface("SHARDED", shards=0)
        assert "'shards'" in str(excinfo.value)
        with pytest.raises(PSException) as excinfo:
            engine.new_interface("SHARDED", partition="bogus-mode")
        assert "'partition'" in str(excinfo.value)

    def test_unknown_param_rejected_and_accepted_set_listed(self):
        engine = TPSEngine(SkiRental, local_bus=LocalBus())
        with pytest.raises(PSException) as excinfo:
            engine.new_interface("LOCAL", anything=1)
        message = str(excinfo.value)
        assert "'anything'" in message and "history" in message

    def test_validation_runs_before_the_factory(self):
        # The JXTA factory requires a peer, but an unknown param must be
        # reported first: validation precedes construction.
        engine = TPSEngine(SkiRental)  # no peer
        with pytest.raises(PSException) as excinfo:
            engine.new_interface("JXTA", bogus_timeout=1.0)
        assert "'bogus_timeout'" in str(excinfo.value)

    def test_bool_rejected_where_int_expected(self):
        engine = TPSEngine(SkiRental)
        with pytest.raises(PSException) as excinfo:
            engine.new_interface("JXTA", duplicate_cache_size=True)
        assert "'duplicate_cache_size'" in str(excinfo.value)


#: ROADMAP's tracked option counts, as it measures them: the number of
#: parameters each built-in binding's schema accepts
#: (``registered_bindings(with_params=True)``).  A ratchet, like
#: ``PRAGMA_CEILING`` in tests/test_lint_gate.py: lower it when an option
#: goes, never raise it to make room for a new one.
OPTION_CEILING = {"ASYNC": 7, "JXTA": 11, "LOCAL": 3, "SHARDED": 7, "SHARDED+JXTA": 11}


def test_binding_option_counts_only_go_down():
    report = registered_bindings(with_params=True)
    for binding, ceiling in OPTION_CEILING.items():
        assert len(report[binding]) <= ceiling, (
            f"{binding} accepts {len(report[binding])} parameters, ceiling {ceiling}: "
            f"make the new one a constant or derive it (ROADMAP aim 2): {report[binding]}"
        )


class TestRegistryIntrospection:
    def test_registered_bindings_reports_declared_parameter_names(self):
        report = registered_bindings(with_params=True)
        history_params = ("history", "history_size", "history_path")
        assert report["LOCAL"] == history_params
        assert report["ASYNC"] == (
            "dispatch",
            "group",
            "breaker_threshold",
            "breaker_cooldown",
        ) + history_params
        assert report["SHARDED"] == (
            "shards",
            "partition",
            "content_key",
            "virtual_nodes",
        ) + history_params
        # The composite takes everything SHARDED does, plus membership.
        assert report["SHARDED+JXTA"] == report["SHARDED"] + (
            "membership",
            "heartbeat_interval",
            "suspect_timeout",
            "confirm_timeout",
        )
        assert "search_timeout" in report["JXTA"]
        # Same name set as the plain listing, same sorted order.
        assert list(report) == list(registered_bindings())

    def test_binding_params_exposes_the_schema_objects(self):
        params = binding_params("SHARDED")
        by_name = {param.name: param for param in params}
        assert by_name["shards"].types == (int,)
        assert by_name["content_key"].types == (str,)
        assert "placement" not in by_name
        assert by_name["virtual_nodes"].default == 64
        composite = {param.name: param for param in binding_params("SHARDED+JXTA")}
        assert composite["membership"].types == (bool,)
        assert composite["membership"].default is False
        assert composite["heartbeat_interval"].default == 0.5
        # Declared defaults render in the schema description.
        assert "[=64]" in by_name["virtual_nodes"].describe()
        assert all(param.description for param in params)

    def test_placement_params_validated(self):
        engine = TPSEngine(SkiRental)
        with pytest.raises(PSException) as excinfo:
            engine.new_interface("SHARDED", virtual_nodes=0)
        assert "'virtual_nodes'" in str(excinfo.value)
        with pytest.raises(PSException) as excinfo:
            engine.new_interface("SHARDED", virtual_nodes="lots")
        assert "'virtual_nodes'" in str(excinfo.value)

    def test_jxta_schema_mirrors_tpsconfig_fields(self):
        import dataclasses

        declared = set(get_binding("JXTA").param_names)
        assert declared == {f.name for f in dataclasses.fields(TPSConfig)}


class _BusCacheCase:
    """How to ask one bus-caching binding for interfaces, scope by scope.

    A *scope* is whatever owns the binding's registry-built buses: the
    process for SHARDED (one scope only), a peer for SHARDED+JXTA, an event
    loop for ASYNC.  ``interface(scope, **params)`` builds on scope 0 or 1.
    """

    def __init__(self, binding: str, builder: Any) -> None:
        self.binding = binding
        #: Two parameter sets describing two different buses, a
        #: bus-describing parameter spelled out at its default value, and
        #: every bus-describing default spelled out.
        self.params: Dict[str, Any] = {"shards": 5}
        self.other: Dict[str, Any] = {"shards": 6}
        self.default: Dict[str, Any] = {"virtual_nodes": 64}
        self.all_defaults: Dict[str, Any] = {
            "shards": 8, "partition": "root", "virtual_nodes": 64,
        }
        self._engines: List[Any] = []
        self._loops: List[asyncio.AbstractEventLoop] = []
        self._peers: List[Any] = []
        if binding == "ASYNC":
            self.params, self.other = {"group": "a"}, {"group": "b"}
            self.default = self.all_defaults = {"dispatch": "serial"}
            self._loops = [asyncio.new_event_loop(), asyncio.new_event_loop()]
        elif binding == "SHARDED+JXTA":
            self._peers = [builder.add_peer("cache-a"), builder.add_peer("cache-b")]

    def _on(self, scope: int, fn: Any) -> Any:
        if not self._loops:
            return fn()

        async def call() -> Any:
            return fn()

        return self._loops[scope].run_until_complete(call())

    def interface(self, scope: int = 0, *, local_bus: Any = None, **params: Any) -> Any:
        peer = self._peers[scope] if self._peers else None
        engine = TPSEngine(SkiRental, peer=peer, local_bus=local_bus)
        self._engines.append((scope, engine))
        return self._on(scope, lambda: engine.new_interface(self.binding, **params))

    def explicit_bus(self) -> Any:
        if self.binding == "ASYNC":
            return self._on(0, AsyncLocalBus)
        return ShardedLocalBus(shards=2)

    def reregister(self) -> None:
        spec = get_binding(self.binding)
        try:
            assert unregister_binding(self.binding)
        finally:
            register_binding(
                spec.name,
                spec.factory,
                capabilities=spec.capabilities,
                params=spec.params,
                replace=True,
                on_unregister=spec.on_unregister,
            )

    def finish(self) -> None:
        for scope, engine in self._engines:
            self._on(scope, engine.close)
        for loop in self._loops:
            loop.close()


@pytest.fixture(
    params=["SHARDED", "SHARDED+JXTA", pytest.param("ASYNC", marks=pytest.mark.asyncio)]
)
def bus_cache(request, builder):
    case = _BusCacheCase(request.param, builder)
    yield case
    case.finish()


class TestSharedBusCache:
    """The one registry-built shared-bus cache, through each binding using it."""

    def test_same_params_share_one_bus(self, bus_cache):
        a = bus_cache.interface(**bus_cache.params)
        b = bus_cache.interface(**bus_cache.params)
        assert a.bus is b.bus

    def test_different_params_build_different_buses(self, bus_cache):
        a = bus_cache.interface(**bus_cache.params)
        b = bus_cache.interface(**bus_cache.other)
        assert a.bus is not b.bus

    def test_spelled_out_default_names_the_same_bus(self, bus_cache):
        a = bus_cache.interface(**bus_cache.params)
        b = bus_cache.interface(**bus_cache.params, **bus_cache.default)
        assert a.bus is b.bus

    def test_no_params_names_the_all_default_bus(self, bus_cache):
        bare = bus_cache.interface()
        spelled = bus_cache.interface(**bus_cache.all_defaults)
        assert bare.bus is spelled.bus
        assert bus_cache.interface().bus is bare.bus
        assert bus_cache.interface(**bus_cache.params).bus is not bare.bus

    # SHARDED has one process-wide scope; the other two scope by peer/loop.
    @pytest.mark.parametrize(
        "bus_cache",
        ["SHARDED+JXTA", pytest.param("ASYNC", marks=pytest.mark.asyncio)],
        indirect=True,
    )
    def test_scopes_never_share_a_bus(self, bus_cache):
        a = bus_cache.interface(0, **bus_cache.params)
        b = bus_cache.interface(1, **bus_cache.params)
        assert a.bus is not b.bus

    def test_unregister_clears_the_cache(self, bus_cache):
        before = bus_cache.interface(**bus_cache.params)
        bus_cache.reregister()
        after = bus_cache.interface(**bus_cache.params)
        assert after.bus is not before.bus
        # Live interfaces keep the bus they hold.
        assert bus_cache.interface(**bus_cache.params).bus is after.bus

    def test_params_with_explicit_bus_rejected(self, bus_cache):
        bus = bus_cache.explicit_bus()
        assert bus_cache.interface(local_bus=bus).bus is bus
        with pytest.raises(PSException, match="not both") as excinfo:
            bus_cache.interface(local_bus=bus, **bus_cache.params)
        assert "local_bus" in str(excinfo.value)


class TestShardedParams:
    def test_same_params_interfaces_hear_each_other(self):
        a = TPSEngine(SkiRental).new_interface("SHARDED", shards=5)
        b = TPSEngine(SkiRental).new_interface("SHARDED", shards=5)
        assert len(a.bus.shards) == 5
        inbox: List[Any] = []
        b.subscribe(inbox.append)
        a.publish(SkiRental("shop", 10.0, "brand", 1))
        assert len(inbox) == 1

    def test_no_params_keeps_the_process_default_bus(self):
        # "The process default bus" is the cache entry of the all-default
        # parameter set: no params, one default and every default spelled
        # out are three spellings of it, so the interfaces hear each other.
        spellings = ({}, {"shards": 8}, {"shards": 8, "partition": "root", "virtual_nodes": 64})
        interfaces = [
            TPSEngine(SkiRental).new_interface("SHARDED", **params) for params in spellings
        ]
        try:
            assert all(interface.bus is interfaces[0].bus for interface in interfaces)
            inboxes: List[List[Any]] = [[] for _ in interfaces]
            for interface, inbox in zip(interfaces, inboxes):
                interface.subscribe(inbox.append)
            for interface in interfaces:
                interface.publish(SkiRental("shop", 10.0, "brand", 1))
            # Everyone hears the other two (never their own publish).
            assert [len(inbox) for inbox in inboxes] == [2, 2, 2]
            # A re-registration resets the cache: the next request, however
            # spelled, gets a fresh bus.
            assert unregister_binding("SHARDED")
            register_sharded_binding()
            fresh = TPSEngine(SkiRental).new_interface("SHARDED")
            interfaces.append(fresh)
            assert fresh.bus is not interfaces[0].bus
            again = TPSEngine(SkiRental).new_interface("SHARDED", shards=8)
            interfaces.append(again)
            assert again.bus is fresh.bus
        finally:
            for interface in interfaces:
                interface.close()

    def test_content_key_implies_content_partition(self):
        interface = TPSEngine(SkiRental).new_interface(
            "SHARDED", shards=3, content_key="shop"
        )
        assert interface.bus.partition == "content"
        assert interface.bus.content_key == "shop"
        assert interface.bus.intra_hierarchy

    def test_plain_local_bus_still_rejected(self):
        engine = TPSEngine(SkiRental, local_bus=LocalBus())
        with pytest.raises(PSException):
            engine.new_interface("SHARDED")


class TestJxtaConfigOverrides:
    def test_params_override_config_fields(self, two_peers):
        peer, _, builder = two_peers
        interface = TPSEngine(SkiRental, peer=peer).new_interface(
            "JXTA", search_timeout=1.5, serve_history=True
        )
        assert interface.config.search_timeout == 1.5
        assert interface.config.serve_history is True
        # Unspecified fields keep their defaults.
        assert interface.config.create_if_missing is True

    def test_params_layer_on_top_of_an_engine_config(self, two_peers):
        peer, _, builder = two_peers
        base = TPSConfig(search_timeout=9.0, message_padding=128)
        interface = TPSEngine(SkiRental, peer=peer, config=base).new_interface(
            "JXTA", search_timeout=1.0
        )
        assert interface.config.search_timeout == 1.0
        assert interface.config.message_padding == 128
        # The engine's config object itself is untouched.
        assert base.search_timeout == 9.0


class TestCustomBindingParams:
    def test_custom_schema_via_public_api(self):
        seen: List[BindingRequest] = []

        def factory(request: BindingRequest) -> LocalTPSEngine:
            seen.append(request)
            return LocalTPSEngine(request.event_type, bus=LocalBus())

        register_binding(
            "PARAMETRIC",
            factory,
            params=[
                BindingParam("level", (int,), "verbosity"),
                "label",  # bare name: untyped parameter
            ],
        )
        try:
            engine = TPSEngine(SkiRental)
            engine.new_interface("PARAMETRIC", level=3, label=object())
            (request,) = seen
            assert request.param("level") == 3
            assert request.param("missing", "fallback") == "fallback"
            with pytest.raises(PSException) as excinfo:
                engine.new_interface("PARAMETRIC", level="high")
            assert "'level'" in str(excinfo.value)
            with pytest.raises(PSException) as excinfo:
                engine.new_interface("PARAMETRIC", other=1)
            assert "level" in str(excinfo.value) and "label" in str(excinfo.value)
        finally:
            assert unregister_binding("PARAMETRIC")

    def test_duplicate_param_declaration_rejected(self):
        with pytest.raises(PSException):
            register_binding(
                "DUPPARAM", lambda request: None, params=["a", BindingParam("a")]
            )
        assert "DUPPARAM" not in registered_bindings()


class TestReviewRegressions:
    def test_callable_partition_param_rejected_with_guidance(self):
        # Registry-built buses share by parameter equality; two equal-looking
        # lambdas compare unequal, so callables must be rejected at the
        # params layer (construct the bus explicitly instead).
        engine = TPSEngine(SkiRental)
        with pytest.raises(PSException) as excinfo:
            engine.new_interface("SHARDED", partition=lambda event: event.shop)
        message = str(excinfo.value)
        assert "'partition'" in message and "local_bus" in message
        # The explicit-bus route still supports callables.
        bus = ShardedLocalBus(2, partition=lambda event: event.shop)
        interface = TPSEngine(SkiRental, local_bus=bus).new_interface("SHARDED")
        assert interface.bus is bus

    def test_bool_rejected_for_float_config_overrides(self):
        engine = TPSEngine(SkiRental)
        with pytest.raises(PSException) as excinfo:
            engine.new_interface("JXTA", search_timeout=True)
        assert "'search_timeout'" in str(excinfo.value)
