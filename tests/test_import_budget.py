"""What a LOCAL program imports: the in-process bindings carry no wire stack.

The six ``repro`` packages resolve their public names lazily (PEP 562, see
``repro._exports``) and the binding registry imports a built-in binding's
module when the binding is first asked for, so a LOCAL round trip loads the
TPS core and nothing of the JXTA substrate, the simulator or asyncio.  Each
check runs in a child interpreter, where nothing else has been imported yet.

:data:`IMPORT_CEILING` is a ratchet like ``SRC_CEILING``: lower it when a
LOCAL round trip loads fewer ``repro`` modules, never raise it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``repro`` modules a cold LOCAL round trip may load.
IMPORT_CEILING = 18

#: Modules a LOCAL program must never load.
WIRE_STACK = (
    "repro.jxta",
    "repro.net.simclock",
    "repro.net.network",
    "repro.serialization.xml_codec",
    "repro.core.jxta_engine",
    "repro.core.async_engine",
    "asyncio",
    "concurrent.futures",
)

#: The packages' public surfaces, as they were before the exports went lazy.
PUBLIC_NAMES = {
    "repro": ["TPSNetwork", "__version__", "tps_network"],
    "repro.core": [
        "AsyncEventStream", "AsyncLocalBus", "AsyncTPSEngine", "BindingParam",
        "BindingRequest", "BindingSpec", "CallBackException", "CollectingCallback",
        "CollectingExceptionHandler", "Criteria", "DEFAULT_SHARD_COUNT", "DynamicEvent",
        "EventStream", "FilteringCallback", "FunctionCallback", "FunctionExceptionHandler",
        "JxtaTPSEngine", "LocalBus", "LocalTPSEngine", "NotInitializedError",
        "PSException", "PS_PREFIX", "PrintingExceptionHandler", "PublishReceipt",
        "Reply", "ReplyEndpoint", "Replyable", "ShardedJxtaTPSEngine", "ShardedLocalBus",
        "StreamCore", "Subscription", "SubscriptionBuilder", "SubscriptionHandle",
        "TPSAdvertisementsCreator", "TPSAdvertisementsFinder", "TPSBinding",
        "TPSCallBackInterface", "TPSConfig", "TPSEngine", "TPSExceptionHandler",
        "TPSInterface", "TPSInterfaceCore", "TPSSubscriberManager", "TPSWireServiceFinder",
        "TypeMismatchError", "TypeRegistry", "XmlEventCodec", "XmlTypeDescription",
        "all_subtypes", "binding_capabilities", "binding_params", "describe_type",
        "get_binding", "hierarchy_root", "register_binding", "registered_bindings",
        "reply", "type_name", "unregister_binding",
    ],
    "repro.net": [
        "CostModel", "Counter", "EventHandle", "FaultPlan", "Firewall", "FirewallRule",
        "HttpTransport", "Link", "LinkFaults", "LinkSpec", "MetricsRegistry",
        "MulticastTransport", "Network", "NetworkError", "NetworkInterface",
        "NoRouteError", "Node", "PAPER_TESTBED", "Packet", "SimClock", "Simulator",
        "TcpTransport", "TimeSeries", "Timer", "Transport", "TransportKind",
    ],
    "repro.jxta": [
        "Advertisement", "AdvertisementFactory", "InputPipe", "JxtaError", "JxtaID",
        "JxtaNetworkBuilder", "Message", "MessageElement", "ModuleAdvertisement",
        "ModuleID", "Peer", "PeerAdvertisement", "PeerConfig", "PeerGroup",
        "PeerGroupAdvertisement", "PeerGroupID", "PeerID", "PipeAdvertisement",
        "PipeError", "PipeID", "PipeKind", "ResolverError", "ServiceAdvertisement",
        "ServiceNotFoundError", "WireService", "create_peer",
    ],
    "repro.serialization": [
        "ObjectCodec", "SerializationError", "UnregisteredTypeError", "XmlElement",
        "XmlParseError", "escape_element_text", "escape_text", "parse_xml", "to_xml",
        "unescape_text",
    ],
    "repro.storage": ["LogHistory"],
}

BUILTINS = ("ASYNC", "JXTA", "LOCAL", "SHARDED", "SHARDED+JXTA")


def _child(script: str):
    """Run ``script`` in a fresh interpreter; the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")])
    )
    produced = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=60,
    )
    assert produced.returncode == 0, produced.stderr
    return json.loads(produced.stdout.strip().splitlines()[-1])


LOCAL_ROUND_TRIP = """
    import json, sys
    from repro.core import TPSEngine

    class Greeting:
        def __init__(self, text):
            self.text = text

    got = []
    publisher = TPSEngine(Greeting).new_interface("LOCAL")
    subscriber = TPSEngine(Greeting).new_interface("LOCAL")
    subscriber.subscribe(lambda greeting: got.append(greeting.text))
    publisher.publish(Greeting("hello"))
    print(json.dumps({
        "got": got,
        "modules": sorted(sys.modules),
    }))
"""


class TestLocalRoundTrip:
    @pytest.fixture(scope="class")
    def loaded(self):
        result = _child(LOCAL_ROUND_TRIP)
        assert result["got"] == ["hello"]
        return result["modules"]

    def test_loads_no_wire_stack(self, loaded):
        assert [name for name in WIRE_STACK if name in loaded] == []

    def test_repro_modules_within_the_ceiling(self, loaded):
        repro = [name for name in loaded if name == "repro" or name.startswith("repro.")]
        assert len(repro) <= IMPORT_CEILING, (
            f"a LOCAL round trip loads {len(repro)} repro modules, ceiling "
            f"{IMPORT_CEILING}: {repro}"
        )


class TestPublicSurface:
    def test_all_lists_are_unchanged_and_every_name_resolves(self):
        result = _child(
            """
            import importlib, json
            surface = {}
            for package in %r:
                module = importlib.import_module(package)
                listed = set(module.__all__) <= set(dir(module))
                missing = [name for name in module.__all__ if not hasattr(module, name)]
                surface[package] = {
                    "all": list(module.__all__), "listed": listed, "missing": missing
                }
            print(json.dumps(surface))
            """
            % (sorted(PUBLIC_NAMES),)
        )
        for package, names in PUBLIC_NAMES.items():
            exported = result[package]["all"]
            assert sorted(exported) == sorted(names), package
            assert len(set(exported)) == len(exported), package
            assert result[package]["missing"] == [], package
            assert result[package]["listed"], package  # dir() before first use

    def test_unknown_names_still_raise_attribute_error(self):
        import repro.core

        with pytest.raises(AttributeError):
            repro.core.NoSuchName  # noqa: B018 - the lookup is the test

    def test_package_from_import_keeps_working(self):
        result = _child(
            """
            import json
            from repro import tps_network, __version__
            from repro.core import history, async_engine
            print(json.dumps([callable(tps_network), __version__,
                              history.__name__, async_engine.__name__]))
            """
        )
        assert result[0] is True and result[1]
        assert result[2:] == ["repro.core.history", "repro.core.async_engine"]

    @pytest.mark.parametrize(
        "first",
        ["import repro.core.reply", "from repro.core.reply import ReplyEndpoint", "pass"],
    )
    def test_reply_is_the_function_whatever_was_imported_first(self, first):
        result = _child(
            f"""
            import json
            {first}
            from repro.core import reply
            import repro.core.reply
            from repro.core import reply as again
            print(json.dumps([callable(reply), reply is again, type(reply).__name__]))
            """
        )
        assert result == [True, True, "function"]


class TestBindingRegistry:
    def test_registered_bindings_lists_every_builtin_before_any_use(self):
        assert _child(
            """
            import json
            from repro.core import registered_bindings
            print(json.dumps(list(registered_bindings())))
            """
        ) == list(BUILTINS)

    def test_unregistering_an_unused_builtin_sticks(self):
        result = _child(
            """
            import json
            from repro.core import PSException, get_binding, unregister_binding
            removed = unregister_binding("JXTA")
            get_binding("SHARDED+JXTA")  # imports the JXTA engine's module
            try:
                get_binding("JXTA")
                raised = False
            except PSException:
                raised = True
            print(json.dumps([removed, raised, unregister_binding("JXTA")]))
            """
        )
        assert result == [True, True, False]

    def test_an_application_binding_replaces_an_unused_builtin(self):
        result = _child(
            """
            import json
            from repro.core import PSException, get_binding, register_binding
            try:
                register_binding("LOCAL", lambda request: None)
                refused = False
            except PSException:
                refused = True
            mine = lambda request: None
            register_binding("LOCAL", mine, replace=True)
            import repro.core.local_engine  # a later import must not clobber it
            print(json.dumps([refused, get_binding("LOCAL").factory is mine]))
            """
        )
        assert result == [True, True]

    def test_params_and_capabilities_load_the_builtin(self):
        result = _child(
            """
            import json, sys
            from repro.core import binding_capabilities, binding_params
            names = [param.name for param in binding_params("SHARDED")]
            print(json.dumps([names, sorted(binding_capabilities("LOCAL")),
                              "repro.core.jxta_engine" in sys.modules]))
            """
        )
        assert "shards" in result[0]
        assert result[1] == ["in-process", "synchronous"]
        assert result[2] is False
