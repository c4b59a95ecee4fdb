"""Experiment E5 -- where the TPS layer's per-message overhead comes from.

The simulated figures charge calibrated virtual-time costs for the SR/TPS
layer work; these micro-benchmarks measure the *real* wall-clock cost of each
ingredient on the machine running the reproduction, using pytest-benchmark's
normal calibrated loop:

* typed serialisation (encode + decode of a ski-rental event);
* wire-message framing at the paper's 1910-byte message size;
* type conformance checks (subtype matching);
* end-to-end TPS dispatch through the in-process binding;
* the hand-rolled SR-JXTA field encoding, for comparison;
* two live same-process pairs whose ratio is pinned: the v2 subscription
  handle's ``cancel()`` against Figure 8's ``unsubscribe(callback)`` scan,
  and content-keyed intra-hierarchy sharding against the 1-shard bus.  Both
  sides of a pair run in alternating repeats, so host noise hits them
  equally and only the ratio is asserted.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from collections import Counter

from repro.apps.skirental.types import PremiumSkiRental, SkiRental
from repro.bench.micro import (
    dispatch_cost_workload,
    sample_encoded_event,
    sample_offer,
    sample_registry,
    sample_wire_message,
)
from repro.core.local_engine import LocalBus, LocalTPSEngine
from repro.core.sharded_engine import ShardedLocalBus
from repro.core.type_registry import type_name
from repro.jxta.message import Message
from repro.serialization.xml_codec import parse_xml, to_xml, XmlElement


def test_encode_event(benchmark):
    """Typed serialisation of one event (publisher-side TPS work)."""
    registry = sample_registry()
    offer = sample_offer()
    payload = benchmark(lambda: registry.encode(offer))
    assert isinstance(payload, bytes) and payload


def test_decode_event(benchmark):
    """Typed deserialisation of one event (subscriber-side TPS work)."""
    encoded = sample_encoded_event()
    event = benchmark(lambda: encoded.registry.decode(encoded.payload))
    assert isinstance(event, SkiRental)


def test_type_conformance_check(benchmark):
    """Subtype matching: the per-event isinstance check of Figure 7 semantics."""
    registry = sample_registry()
    events = [sample_offer(i) for i in range(50)] + [
        PremiumSkiRental("shop", 200.0, "Atomic", 7, extras=("boots",)) for _ in range(50)
    ]

    def check_all():
        return sum(1 for event in events if registry.conforms(event))

    assert benchmark(check_all) == len(events)


def test_wire_message_roundtrip(benchmark):
    """Framing and unframing a 1910-byte wire message (both layers pay this)."""
    message = sample_wire_message(1910)

    def roundtrip():
        return Message.from_bytes(message.to_bytes())

    restored = benchmark(roundtrip)
    assert restored.size >= 1910


def test_local_tps_dispatch(benchmark):
    """Full TPS semantics (type check, codec round-trip, dispatch), no substrate."""
    workload = dispatch_cost_workload(events=100)
    assert benchmark(workload) == 100


def test_sr_jxta_manual_encoding(benchmark):
    """The hand-rolled SR-JXTA field encoding, for comparison with typed encode."""
    offer = sample_offer()

    def encode_by_hand():
        message = Message()
        message.add("SkiRental.Shop", offer.shop)
        message.add("SkiRental.Price", repr(offer.price))
        message.add("SkiRental.Brand", offer.brand)
        message.add("SkiRental.NumberOfDays", repr(offer.number_of_days))
        return message.to_bytes()

    assert benchmark(encode_by_hand)


def test_advertisement_xml_roundtrip(benchmark):
    """Parsing and serialising a discovery-sized XML document."""
    root = XmlElement("DiscoveryResponse")
    for index in range(10):
        root.add("Adv", f"<advertisement id='{index}'>payload {index}</advertisement>")
    document = to_xml(root)

    def roundtrip():
        return parse_xml(to_xml(parse_xml(document)))

    assert benchmark(roundtrip).name == "DiscoveryResponse"


def _best_of_alternating(baseline, fast, repeats):
    """Best-of-``repeats`` seconds for each side, the sides timed in turn."""
    best = [float("inf"), float("inf")]
    for _ in range(repeats):
        for side, run in enumerate((baseline, fast)):
            start = time.perf_counter()
            run()
            best[side] = min(best[side], time.perf_counter() - start)
    return best[0], best[1]


def _sink(event):
    """Shared no-op callback (a named function so the unsubscribe scan is fair)."""


def test_subscribe_churn_handle_beats_unsubscribe_scan():
    """One subscribe + cancel cycle against 50 resident subscriptions: the
    v2 handle discards its subscription by identity, Figure 8's
    ``unsubscribe(cb)`` calls ``matches`` on every resident one."""
    engine = LocalTPSEngine(SkiRental, bus=LocalBus())
    for _ in range(50):
        engine.subscribe(lambda event: None)

    def handle_cancel():
        for _ in range(2_000):
            engine.subscribe(_sink).cancel()

    def unsubscribe_scan():
        for _ in range(2_000):
            engine.subscribe(_sink)
            engine.unsubscribe(_sink)

    scan, cancel = _best_of_alternating(unsubscribe_scan, handle_cancel, repeats=7)
    assert scan / cancel > 1.0


#: One hot hierarchy, sharded by the ``key`` attribute's value.
_HotEvent = dataclasses.make_dataclass(
    "_HotShardEvent", [("key", str, ""), ("price", float, 0.0)]
)


def _even_keys(bus, keys):
    """``keys`` content keys of which every shard of ``bus`` owns an equal share."""
    root = type_name(_HotEvent)
    quota = keys // len(bus.shards)
    owned = [0] * len(bus.shards)
    chosen = []
    for index in itertools.count():
        key = f"key-{index}"
        shard = bus.partition_index(root, _HotEvent(key=key))
        if owned[shard] < quota:
            owned[shard] += 1
            chosen.append(key)
            if len(chosen) == keys:
                return chosen


def test_intra_shard_fanout_beats_the_single_shard_bus():
    """A single hot hierarchy whose subscribers do a short GIL-releasing wait
    per event (standing in for per-event I/O): ``publish_all`` over four
    content-keyed shards runs the key groups concurrently, the 1-shard bus
    an unsharded hierarchy amounts to runs them in turn.  Same batch, same
    entry point; only the partition differs."""
    sharded = ShardedLocalBus(shards=4, partition="content", content_key="key")
    single = ShardedLocalBus(shards=1)
    corpus = _even_keys(sharded, 16)
    root = type_name(_HotEvent)
    shares = Counter(sharded.partition_index(root, _HotEvent(key=key)) for key in corpus)
    assert shares == {shard: 4 for shard in range(4)}  # four evenly loaded shards
    batch = [_HotEvent(key=corpus[index % 16], price=float(index)) for index in range(120)]

    def publisher_on(bus):
        publisher = LocalTPSEngine(_HotEvent, bus=bus)
        for _ in range(2):
            LocalTPSEngine(_HotEvent, bus=bus).subscribe(lambda event: time.sleep(50e-6))
        return lambda: bus.publish_all([(publisher, event) for event in batch])

    try:
        one_shard, four_shards = _best_of_alternating(
            publisher_on(single), publisher_on(sharded), repeats=5
        )
    finally:
        sharded.shutdown()
        single.shutdown()
    assert one_shard / four_shards > 1.0
