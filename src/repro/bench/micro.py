"""Micro-benchmark helpers: the real (wall-clock) cost of the TPS layer's work.

The paper attributes the (small) gap between SR-TPS and SR-JXTA to the extra
work the TPS layer performs per message: typed serialisation, type-registry
lookups, subtype matching, duplicate filtering and callback dispatch.  The
simulated figures charge calibrated virtual-time costs for that work; the
micro-benchmarks in ``benchmarks/test_micro_overheads.py`` measure the
*actual* Python cost of each step with pytest-benchmark, documenting where
the layer's overhead comes from.

This module provides ready-made fixtures for those benchmarks so they stay
one-liners.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.apps.skirental.types import PremiumSkiRental, SkiRental
from repro.core.local_engine import LocalBus, LocalTPSEngine
from repro.core.type_registry import TypeRegistry
from repro.jxta.message import Message


def sample_offer(index: int = 0) -> SkiRental:
    """A representative event instance."""
    return SkiRental(
        shop=f"shop-{index}", price=100.0 + index, brand="Salomon", number_of_days=7
    )


def sample_registry() -> TypeRegistry:
    """A type registry covering the ski-rental hierarchy."""
    registry = TypeRegistry(SkiRental)
    registry.register(PremiumSkiRental)
    return registry


@dataclass
class EncodedEvent:
    """An event together with its serialised form (for decode benchmarks)."""

    event: SkiRental
    payload: bytes
    registry: TypeRegistry


def sample_encoded_event(index: int = 0) -> EncodedEvent:
    """An event plus its encoded payload, ready for decode benchmarks."""
    registry = sample_registry()
    event = sample_offer(index)
    return EncodedEvent(event=event, payload=registry.encode(event), registry=registry)


def sample_wire_message(size: int = 1910) -> Message:
    """A message padded to the paper's 1910-byte size (serialisation benchmarks)."""
    registry = sample_registry()
    message = Message()
    message.add("TPSType", "SkiRental")
    message.add("TPSMsgId", "bench/1")
    message.add("TPSEvent", registry.encode(sample_offer()))
    message.pad_to(size)
    return message


def local_pair(subscribers: int = 1) -> tuple[LocalTPSEngine, List[LocalTPSEngine]]:
    """A publisher plus N subscribers on a private in-process bus."""
    bus = LocalBus()
    publisher = LocalTPSEngine(SkiRental, bus=bus)
    receivers: List[LocalTPSEngine] = []
    for _ in range(subscribers):
        engine = LocalTPSEngine(SkiRental, bus=bus)
        engine.subscribe(lambda event: None)
        receivers.append(engine)
    return publisher, receivers


def dispatch_cost_workload(events: int = 100) -> Callable[[], int]:
    """A closure publishing ``events`` events through the local binding.

    Measures the pure Python cost of the TPS semantics (type check, codec
    round-trip, subtype matching, callback dispatch) without any simulated
    substrate.
    """
    publisher, _receivers = local_pair(subscribers=1)
    offers = [sample_offer(i) for i in range(events)]

    def run() -> int:
        for offer in offers:
            publisher.publish(offer)
        return events

    return run


__all__ = [
    "EncodedEvent",
    "dispatch_cost_workload",
    "local_pair",
    "sample_encoded_event",
    "sample_offer",
    "sample_registry",
    "sample_wire_message",
]
