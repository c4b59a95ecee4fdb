"""A simulated wire run is a pure function of its seed and script.

:func:`run_digest` plays one script on a fresh simulated network -- a
rendez-vous, one publisher peer and :data:`SUBSCRIBERS` subscriber peers,
each with one interface of the given binding -- and hashes the ordered
trace of what happened:

* one entry per delivery: the virtual time, the receiving peer, the
  subscriber and the TPS message id;
* the final counter snapshot of every peer.

Two runs with the same seed and binding must hash alike: in one process,
and across fresh interpreters whatever their ``PYTHONHASHSEED``.  A
difference is an order or identity dependence (set or dict iteration,
``id()``, a process-global counter) that the static RL004 rule cannot see;
the fix belongs at its root, never in this hash.

The script has the shape of tpsbench's ``wire_lossy`` workload: 1910-byte
messages, reliable delivery, :meth:`FaultPlan.chaos
<repro.net.faults.FaultPlan.chaos>` on every link once discovery settled,
and :data:`IN_FLIGHT` publishes between two settles of the network.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, List, Tuple

from repro.core import TPSConfig, TPSEngine
from repro.jxta.ids import seed_ids
from repro.jxta.platform import JxtaNetworkBuilder
from repro.net.faults import FaultPlan

#: Events one script publishes, and the subscriber peers that receive them.
PUBLISHES = 100
SUBSCRIBERS = 2
#: Publishes between two one-second settles of the network.
IN_FLIGHT = 4
#: Virtual seconds of settling after the last publish: longer than the
#: reliable wire's retry ladder plus its receiver gap timeout.
DRAIN_ROUNDS = 20


@dataclass
class ScriptEvent:
    """The event a script publishes: its position in the script."""

    index: int


def _recorder(trace: List[Tuple[Any, ...]], tps: Any, name: str) -> Callable[[Any], None]:
    def record(event: Any) -> None:
        # The store records before it dispatches, so its newest entry is this
        # delivery; its metadata leads with the TPS message id.
        ((_, _, meta),) = tps._received.since(tps.history_offset - 1)
        trace.append((tps.peer.now, tps.peer.name, name, meta[0]))

    return record


def run_digest(seed: int, binding: str = "JXTA") -> str:
    """The SHA-256 hex digest of one scripted wire run (see module docs) on
    ``binding``: ``"JXTA"`` or ``"SHARDED+JXTA"`` (publishing
    single-threaded)."""
    seed_ids(seed)
    builder = JxtaNetworkBuilder(seed=seed)
    engines: List[TPSEngine] = []
    trace: List[Tuple[Any, ...]] = []

    def interface(name: str, create: bool) -> Any:
        config = TPSConfig(
            search_timeout=2.0 if create else 6.0,
            create_if_missing=create,
            message_padding=1910,
            reliable_delivery=True,
        )
        engines.append(TPSEngine(ScriptEvent, peer=builder.add_peer(name), config=config))
        return engines[-1].new_interface(binding)

    try:
        builder.add_rendezvous("rdv-0")
        publisher = interface("pub", create=True)
        builder.settle(rounds=8)
        for index in range(SUBSCRIBERS):
            name = f"sub-{index}"
            subscriber = interface(name, create=False)
            subscriber.subscribe(_recorder(trace, subscriber, name))
        builder.settle(rounds=12)
        builder.network.fault_plan = FaultPlan.chaos(seed=seed)
        for index in range(PUBLISHES):
            publisher.publish(ScriptEvent(index))
            if (index + 1) % IN_FLIGHT == 0:
                builder.settle(rounds=1)
        builder.settle(rounds=DRAIN_ROUNDS)
        counters = [(peer.name, sorted(peer.metrics.counters().items())) for peer in builder.peers]
    finally:
        for engine in engines:
            engine.close()
        seed_ids(None)
    return hashlib.sha256(repr((trace, counters)).encode()).hexdigest()


__all__ = ["run_digest"]
