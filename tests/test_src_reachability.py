"""Every definition in ``src/repro`` has a reference outside itself.

The scan tokenizes ``src``, ``examples/``, ``tpsbench/`` and ``benchmarks/``
once and counts every identifier-shaped word in their names, strings and
comments.  A function or class defined in ``src/repro`` (dunders excepted)
is *unreferenced* when its name's count, minus the occurrences inside its
own definition, is zero: nothing outside ``tests/`` even mentions it.  Any
mention counts, a docstring's included, so the scan under-counts.

:data:`UNREFERENCED` is a ratchet: the test fails when a new unreferenced
name appears, and also when a listed name is gone or has gained a
reference -- so the list can only shrink.  Each entry says why it stays.

A second check holds imports to zero waste: every name a ``src/repro``
module imports is used in it, as a name or a word in one of its strings
(which covers ``__all__`` re-exports).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "examples", "tpsbench", "benchmarks")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_WORDY = (tokenize.NAME, tokenize.STRING, tokenize.COMMENT)

#: Dotted path (below ``repro.``) -> why the unreferenced definition stays.
UNREFERENCED = {
    "bench.code_size.CodeSizeReport.application_ratio": "test-only",
    "bench.scenario.Scenario.total_received": "test-only",
    "core.interface.TPSInterfaceCore.sent_history_since": "test-only",
    "core.reply.ReplyEndpoint.replies_for": "test-only",
    "core.type_registry.TypeRegistry.in_hierarchy": "test-only",
    "core.type_registry.TypeRegistry.registered_types": "test-only",
    "core.xml_types.XmlEventCodec.known_type_names": "test-only",
    "jxta.advertisement.Advertisement.document_size": "test-only",
    "jxta.advertisement.AdvertisementFactory.new_advertisement": "test-only",
    "jxta.advertisement.PeerGroupAdvertisement.get_pid": "test-only",
    "jxta.endpoint.EndpointService.client_connections": "test-only",
    "jxta.endpoint.EndpointService.forget_address": "test-only",
    "jxta.endpoint.EndpointService.rendezvous_connections": "test-only",
    "jxta.peer.Peer.joined_groups": "test-only",
    "jxta.peer.Peer.restart_at_address": "test-only; ROADMAP item 2's crash-restart leg may call it",
    "jxta.peergroup.PeerGroup.get_id": "test-only",
    "jxta.peergroup.PeerGroup.service_names": "test-only",
    "jxta.pipe_binding.PipeBindingService.has_local_binding": "test-only",
    "jxta.pipe_binding.PipeBindingService.local_pipes": "test-only",
    "jxta.pipes.InputPipe.listener_count": "test-only",
    "jxta.rendezvous.RendezvousService.disconnect": "test-only",
    "jxta.rendezvous.RendezvousService.expire_leases": "test-only",
    "jxta.rendezvous.RendezvousService.granted_leases": "test-only",
    "jxta.rendezvous.RendezvousService.held_leases": "test-only",
    "jxta.rendezvous.RendezvousService.is_connected": "test-only",
    "jxta.rendezvous.RendezvousService.start_lease_renewal": "test-only",
    "jxta.rendezvous.RendezvousService.stop_lease_renewal": "test-only",
    "jxta.resolver.ResolverService.handler_names": "test-only",
    "jxta.resolver.ResolverService.unregister_handler": "test-only",
    "jxta.routing.EndpointRouter.can_reach": "test-only",
    "jxta.wire.WireService.connected_publishers": "test-only",
    "jxta.wire.WireService.input_pipes": "test-only",
    "net.cost.CostModel.transmission_time": "test-only",
    "net.cost.CostModel.without_noise": "test-only",
    "net.faults.FaultPlan.clear_link": "test-only",
    "net.faults.FaultPlan.pending_scripted_drops": "test-only",
    "net.faults.FaultPlan.set_link": "test-only",
    "net.membership.MembershipMonitor.forget": "test-only",
    "net.membership.MembershipMonitor.state_of": "test-only",
    "net.network.Network.create_node": "test-only",
    "net.network.Network.has_node": "test-only",
    "net.node.Node.go_online": "test-only",
    "serialization.object_codec.ObjectCodec.class_for": "test-only",
    "serialization.object_codec.ObjectCodec.encoded_size": "test-only",
    "serialization.object_codec.ObjectCodec.is_registered": "test-only",
    "serialization.object_codec.ObjectCodec.registered_name": "test-only",
}


def _words(source: str) -> Dict[str, List[int]]:
    """Identifier-shaped word -> the line of each of its occurrences in the
    source's name, string and comment tokens."""
    words: Dict[str, List[int]] = {}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _WORDY:
            for word in _WORD.findall(token.string):
                words.setdefault(word, []).append(token.start[0])
    return words


def unreferenced_definitions() -> Dict[str, int]:
    """Unreferenced ``src/repro`` definitions: dotted path -> line number."""
    counts: Counter = Counter()
    modules = []
    for directory in SCANNED:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            words = _words(source)
            counts.update({word: len(lines) for word, lines in words.items()})
            parts = path.relative_to(REPO_ROOT).with_suffix("").parts
            if parts[:2] == ("src", "repro"):
                dotted = [part for part in parts[2:] if part != "__init__"]
                modules.append((".".join(dotted), source, words))
    found: Dict[str, int] = {}

    def visit(node: ast.AST, prefix: str, words: Dict[str, List[int]]) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, prefix, words)
                continue
            name = child.name
            dotted = f"{prefix}.{name}" if prefix else name
            if not (name.startswith("__") and name.endswith("__")):
                own = sum(child.lineno <= line <= child.end_lineno for line in words[name])
                if counts[name] == own:
                    found[dotted] = child.lineno
            visit(child, dotted, words)

    for module, source, words in modules:
        visit(ast.parse(source), module, words)
    return found


def test_unreferenced_definitions_only_shrink():
    assert all(reason.strip() for reason in UNREFERENCED.values())
    found = unreferenced_definitions()
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
