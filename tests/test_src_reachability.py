"""Every definition in ``src/repro`` has a reference outside itself.

The scan parses ``src``, ``examples/``, ``tpsbench/`` and ``benchmarks/``
and collects the references their syntax trees make: every ``Name``, every
``Attribute``'s attribute, each dotted part of an import ``alias`` and every
keyword argument's name.  An f-string's fields are expressions, so a name
read only inside an f-string is referenced; a name that appears only in a
comment, a docstring or any other string is not, so prose cannot hide dead
code.  A function or class defined in ``src/repro`` (dunders excepted) is
*unreferenced* when every reference to its name lies inside its own
definition: nothing outside ``tests/`` uses it.  Names are matched without
their owner, so a use of one ``ready`` keeps every ``ready`` alive -- the
scan can miss dead code, never flag live code.

:data:`UNREFERENCED` is a ratchet: the test fails when a new unreferenced
name appears, and also when a listed name is gone or has gained a
reference -- so the list can only shrink.  Each entry says why it stays:
paper or JXTA API, public API, a read by name, or an inspection or
fault-injection hook the tests use on purpose.

A second check holds imports to zero waste: every name a ``src/repro``
module imports is used in it, as a name or a word in one of its strings
(which covers ``__all__`` re-exports).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "examples", "tpsbench", "benchmarks")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Why the ski-rental applications' unreferenced ``ready`` properties stay.
_PROTECTED_APP = "Section 4.4 application code: byte-identical, its line count feeds the comparison"

#: Dotted path (below ``repro.``) -> why the unreferenced definition stays.
UNREFERENCED = {
    "apps.skirental.jxta_app._SkiRentalJxtaBase.ready": _PROTECTED_APP,
    "apps.skirental.tps_app.SkiRentalTPSPublisher.ready": _PROTECTED_APP,
    "apps.skirental.tps_app.SkiRentalTPSSubscriber.ready": _PROTECTED_APP,
    "apps.skirental.wire_app.WirePublisher.ready": _PROTECTED_APP,
    "apps.skirental.wire_app.WireSubscriber.ready": _PROTECTED_APP,
    "bench.code_size.CodeSizeReport.application_ratio": "Section 4.4's JXTA/TPS size ratio, asserted by the bench-harness tests",
    "bench.scenario.Scenario.total_received": "inspection: a scenario's delivery total, for the bench-harness tests",
    "core.async_engine.AsyncEventStream.resume": "public API: repositions a resumable ASYNC stream (docs/DURABILITY.md)",
    "core.bindings.TPSBinding": "public API: the structural contract a third-party binding's interface meets; exported from repro.core",
    "core.bindings.binding_capabilities": "public API: binding-registry introspection exported from repro.core",
    "core.bindings.binding_params": "public API: binding-registry introspection exported from repro.core",
    "core.bindings.unregister_binding": "public API: register_binding's inverse for third-party bindings (runs on_unregister)",
    "core.callbacks.CollectingCallback": "public API: callback adapter exported from repro.core for application code",
    "core.callbacks.FilteringCallback": "public API: callback adapter exported from repro.core for application code",
    "core.engine.TPSEngine.newInterface": "paper API: Figure 8's camelCase name",
    "core.exceptions.CallBackException": "paper API: the exception typed callbacks may throw (Section 3)",
    "core.interface.TPSInterfaceCore.objectsReceived": "paper API: Figure 8's camelCase name",
    "core.interface.TPSInterfaceCore.objectsSent": "paper API: Figure 8's camelCase name",
    "core.interface.TPSInterfaceCore.set_breaker_policy": "public API: arms circuit breakers on an interface's subscriptions",
    "core.jxta_engine.JxtaTPSEngine.ready": "read by name: apps/skirental/tps_app.py getattr(tps_interface, 'ready', True)",
    "core.reply.ReplyEndpoint.replies_for": "inspection: the replies one published request collected",
    "core.subscriptions.EventStream.resume": "public API: repositions a resumable stream (docs/DURABILITY.md)",
    "core.type_registry.TypeRegistry.in_hierarchy": "inspection: hierarchy membership beside conforms()",
    "core.type_registry.TypeRegistry.registered_types": "inspection: what refresh() and encode() registered",
    "core.xml_types.XmlEventCodec.known_type_names": "inspection: the XML codec's registered names",
    "jxta.advertisement.Advertisement.document_size": "inspection: an advertisement's document size",
    "jxta.advertisement.AdvertisementFactory.new_advertisement": "JXTA API: AdvertisementFactory.newAdvertisement",
    "jxta.advertisement.PeerGroupAdvertisement.get_pid": "JXTA API: PeerGroupAdvertisement.getPid",
    "jxta.discovery.DiscoveryService.flush_advertisements": "paper API: Figure 16, lines 9-11",
    "jxta.endpoint.EndpointService.client_connections": "inspection: a rendez-vous's connected clients",
    "jxta.endpoint.EndpointService.forget_address": "fault injection: drops an address-book entry",
    "jxta.endpoint.EndpointService.rendezvous_connections": "inspection: the rendez-vous a peer is connected to",
    "jxta.peer.Peer.joined_groups": "inspection: the groups a peer instantiated",
    "jxta.peer.Peer.restart_at_address": "fault injection: a peer back at a new address; ROADMAP item 2's crash-restart leg may call it",
    "jxta.peergroup.PeerGroup.get_id": "paper API: Figure 15's rootGroup.getID()",
    "jxta.peergroup.PeerGroup.service_names": "inspection: the services a group hosts",
    "jxta.pipe_binding.PipeBindingService.has_local_binding": "inspection: whether a pipe is bound on this peer",
    "jxta.pipe_binding.PipeBindingService.local_pipes": "inspection: the input pipes bound to a pipe id",
    "jxta.pipes.InputPipe.listener_count": "inspection: an input pipe's listeners",
    "jxta.platform.JxtaNetworkBuilder.peer_named": "the test bed's lookup of a built peer by name, used across the suite's simulated networks",
    "jxta.rendezvous.RendezvousService.disconnect": "JXTA API: lease cancellation, the inverse of connect",
    "jxta.rendezvous.RendezvousService.expire_leases": "JXTA API: a rendez-vous's lease expiry sweep",
    "jxta.rendezvous.RendezvousService.granted_leases": "inspection: a rendez-vous's granted leases",
    "jxta.rendezvous.RendezvousService.held_leases": "inspection: the leases a peer holds",
    "jxta.rendezvous.RendezvousService.is_connected": "inspection: whether a peer holds a valid lease",
    "jxta.rendezvous.RendezvousService.start_lease_renewal": "JXTA API: periodic lease renewal",
    "jxta.rendezvous.RendezvousService.stop_lease_renewal": "JXTA API: periodic lease renewal",
    "jxta.resolver.ResolverService.handler_names": "inspection: a resolver's registered handlers",
    "jxta.resolver.ResolverService.unregister_handler": "JXTA API: the inverse of register_handler",
    "jxta.routing.EndpointRouter.can_reach": "inspection: the router's reachability answer",
    "jxta.wire.WireService.connected_publishers": "inspection: the remote publishers a wire pipe has heard",
    "jxta.wire.WireService.input_pipes": "inspection: the wire input pipes open for a pipe id",
    "net.cost.CostModel.transmission_time": "inspection: the cost model's serialisation delay",
    "net.cost.CostModel.without_noise": "a jitter- and loss-free cost model for deterministic tests",
    "net.faults.FaultPlan.clear_link": "fault injection: removes a per-link rule",
    "net.faults.FaultPlan.set_link": "fault injection: installs a per-link rule",
    "net.membership.MembershipMonitor.forget": "the inverse of watch, for membership tests",
    "net.membership.MembershipMonitor.state_of": "inspection: one watched peer's state",
    "net.metrics.Timer.observe": "read by name: tpsbench/trace.py wraps (metrics.Timer, 'observe')",
    "net.network.Network.create_node": "builds and attaches a bare node, for network tests",
    "net.network.Network.has_node": "inspection: whether an address is attached",
    "net.node.Node.go_online": "fault injection: the inverse of go_offline",
    "serialization.object_codec.ObjectCodec.class_for": "inspection: the class behind a wire name",
    "serialization.object_codec.ObjectCodec.encoded_size": "inspection: an event's encoded size",
    "serialization.object_codec.ObjectCodec.is_registered": "inspection: whether a class is registered",
    "serialization.object_codec.ObjectCodec.registered_name": "inspection: a class's wire name",
    "storage.log.LogHistory.sync": "public API: the durable store's explicit group-commit flush (docs/DURABILITY.md); ROADMAP item 2 drives it",
}


def references(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    """``(name, line)`` for every reference ``tree`` makes (module docs)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg, node.lineno


def unreferenced_definitions(sources: Dict[str, str]) -> Dict[str, int]:
    """Unreferenced ``src/repro`` definitions among ``sources`` (repo-relative
    path -> source text): dotted path below ``repro.`` -> line number."""
    where: Dict[str, List[Tuple[str, int]]] = {}
    modules = []
    for path, source in sources.items():
        tree = ast.parse(source)
        for name, line in references(tree):
            where.setdefault(name, []).append((path, line))
        parts = Path(path).with_suffix("").parts
        if parts[:2] == ("src", "repro"):
            dotted = [part for part in parts[2:] if part != "__init__"]
            modules.append((".".join(dotted), path, tree))
    found: Dict[str, int] = {}

    def visit(node: ast.AST, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, prefix, path)
                continue
            name = child.name
            dotted = f"{prefix}.{name}" if prefix else name
            if not (name.startswith("__") and name.endswith("__")):
                outside = [
                    (at, line) for at, line in where.get(name, ())
                    if not (at == path and child.lineno <= line <= child.end_lineno)
                ]
                if not outside:
                    found[dotted] = child.lineno
            visit(child, dotted, path)

    for module, path, tree in modules:
        visit(tree, module, path)
    return found


def scanned_sources() -> Dict[str, str]:
    return {
        path.relative_to(REPO_ROOT).as_posix(): path.read_text(encoding="utf-8")
        for directory in SCANNED
        for path in sorted((REPO_ROOT / directory).rglob("*.py"))
    }


def test_a_name_read_only_inside_an_f_string_is_referenced():
    sources = {
        "src/repro/shop.py": "def price_of(offer):\n    return offer.price\n",
        "examples/show.py": "def show(offer):\n    return f\"{price_of(offer):.2f}\"\n",
    }
    assert unreferenced_definitions(sources) == {}


def test_a_name_only_in_a_comment_or_docstring_is_unreferenced():
    sources = {
        "src/repro/shop.py": "def price_of(offer):\n    return offer.price\n",
        "examples/show.py": (
            '"""Uses price_of to render offers."""\n'
            "# price_of(offer) would work here too\n"
            'LABEL = "price_of"\n'
        ),
    }
    assert unreferenced_definitions(sources) == {"shop.price_of": 1}


def test_a_reference_inside_its_own_definition_does_not_count():
    sources = {
        "src/repro/shop.py": (
            "def countdown(n):\n    return countdown(n - 1) if n else 0\n"
        ),
    }
    assert unreferenced_definitions(sources) == {"shop.countdown": 1}


def test_unreferenced_definitions_only_shrink():
    assert all(reason.strip() for reason in UNREFERENCED.values())
    found = unreferenced_definitions(scanned_sources())
    new = sorted(set(found) - set(UNREFERENCED))
    gone = sorted(set(UNREFERENCED) - set(found))
    assert not new, (
        "definitions nothing outside tests/ references -- delete them, or call "
        "them from src/examples/tpsbench/benchmarks:\n"
        + "\n".join(f"  repro.{name} (line {found[name]})" for name in new)
    )
    assert not gone, (
        "allowlisted names that are deleted or now referenced -- drop them "
        "from UNREFERENCED:\n" + "\n".join(f"  repro.{name}" for name in gone)
    )


def unused_imports() -> List[str]:
    """``path:line name`` for each name a ``src/repro`` module imports and
    never mentions again."""
    found = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        imported: Dict[str, int] = {}
        used = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) != "__future__":
                    for alias in node.names:
                        imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(_WORD.findall(node.value))
        relative = path.relative_to(REPO_ROOT)
        found += [f"{relative}:{line} {name}" for name, line in imported.items() if name not in used]
    return found


def test_no_unused_imports():
    assert unused_imports() == []
