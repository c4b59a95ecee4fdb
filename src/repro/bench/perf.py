"""Persistent wall-clock micro-benchmarks for the hot-path event fabric.

The paper's quantitative story (Figures 18-20) is that the TPS layer adds
only a small, bounded overhead per event -- which makes the reproduction's
own hot path (serialise -> route -> deliver) the thing to keep fast.  This
module measures that path with real (not simulated) time and writes a JSON
trajectory file (``python -m repro bench --json BENCH_1.json``) so every
perf-touching PR has a recorded before/after.

Each *comparison* reports a fast path against a baseline, and the baseline
is one of two kinds:

* **live** -- the baseline is a product path that still ships (a codec flag,
  the legacy parser, ``unsubscribe(cb)``, the 1-shard bus, ...).  Both sides
  are timed in the same process in alternating repeats, so host noise hits
  them equally and the ratio is a same-host pair.
* **frozen** -- the baseline is a design the repository no longer contains:
  the seed's publish loop (``fanout_*``) and a bus holding one lock across
  the whole delivery (``mt_fanout``, ``async_fanout``).  Up to BENCH_11 the
  harness carried replicas of both; the replicas ran over the *current*
  engine objects, so their numbers drifted with every engine change
  (``fanout_100``: 55 -> 76 -> 114 -> 57 -> 59 us/op over BENCH_1/8/9/10/11)
  and the speedup column hid half of the PR 10 regression.  Their last
  recorded values are now the constants in :data:`FROZEN_BASELINES_US`;
  such rows carry ``"baseline_source": "frozen"``, only their
  ``fast_per_op_us`` is measured, and ``speedup`` is a pure function of it.
  Read those rows by **absolute us/op against the previous file**.

The comparisons:

* ``codec_encode`` / ``codec_decode`` -- the compiled per-type codec plans of
  :class:`~repro.serialization.object_codec.ObjectCodec` versus the generic
  recursive codec (``compiled=False``), on a representative event;
* ``xml_parse`` -- the scanning XML parser (``parse_xml``) versus the legacy
  character-at-a-time parser (``parse_xml(..., fast=False)``), over a corpus
  of representative wire documents (an encoded event, a peer advertisement,
  a discovery response with embedded advertisements);
* ``xml_roundtrip`` -- :class:`~repro.core.xml_types.XmlEventCodec` with
  cached type-description fragments and the cached-document decode fast path
  versus the tree-building encoder + tree-parsing decoder;
* ``fanout_1`` / ``fanout_10`` / ``fanout_100`` (frozen) -- a full local-bus
  publish to N subscribers through the type-indexed routing table; the
  baseline was the seed's per-publish list copy + per-engine ``isinstance``
  + per-dispatch subscription-list copy over the generic codec;
* ``subscribe_churn`` -- one subscribe/cancel cycle against an interface
  with resident subscriptions: the v2 ``SubscriptionHandle.cancel()``
  (identity discard) versus the Figure 8 ``unsubscribe(callback)``
  matching scan;
* ``filtered_fanout`` -- a publish fanned out to subscribers that filter
  most events away: v2 predicate push-down (the predicate lives in the
  dispatch rows, rejected events never open a callback frame) versus
  post-dispatch filtering (the pre-v2 idiom: a plain subscribed callable
  that applies the predicate in its body, adapted through
  ``FunctionCallback`` -- ``FilteringCallback`` is the named class form of
  the same pattern);
* ``mt_fanout`` (frozen) -- concurrent fan-out over N independent
  hierarchies whose subscribers do per-event GIL-releasing work (a short
  wait standing in for the socket writes and disk appends real subscribers
  perform) through the executor-backed ``publish_all`` cross-shard batch
  path of :class:`~repro.core.sharded_engine.ShardedLocalBus` (one shard per
  hierarchy, lock-free snapshot publish, N pool workers as the publisher
  threads); the baseline was N publisher threads over a single ``LocalBus``
  whose delivery ran under one big lock, serialising every hierarchy's
  subscriber waits behind one another;
* ``intra_shard_fanout`` -- the same threaded-workload style applied to a
  *single* hot hierarchy: a content-keyed
  :class:`~repro.core.sharded_engine.ShardedLocalBus`
  (``partition="content"``) spreading one hierarchy's events across N
  shards by event key versus the 1-shard bus an unsharded hierarchy
  amounts to, both driven through the identical ``publish_all`` batch
  entry point (per-key order preserved on both sides);
* ``async_fanout`` (frozen) -- the ``mt_fanout`` workload as coroutines on
  one event loop over the ``"ASYNC"`` binding's bus, against the same
  locked-bus baseline.

Two *scenario* entries record the real wall-clock cost of running the
simulated Figure 19/20 experiments (SR-TPS variant), so regressions in the
simulator's own hot path show up too.  A third scenario, ``lossy_publish``,
runs the at-least-once wire protocol (``reliable_delivery=True``) over a
fault-injected network at 0%/1%/5% link drop and records the per-rate
wall-clock plus delivery/retry counters -- the real cost of the ack/retry
machinery as loss grows.

The JSON schema (``repro-bench/v1``) is validated by
``tests/test_perf_harness.py``; the committed ``BENCH_*.json`` files form the
perf trajectory of the repository.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro._version import __version__
from repro.apps.skirental.types import SkiRental
from repro.core.async_engine import AsyncLocalBus, AsyncTPSEngine
from repro.core.local_engine import LocalBus, LocalTPSEngine
from repro.core.sharded_engine import ShardedLocalBus
from repro.core.type_registry import type_name
from repro.core.xml_types import XmlEventCodec
from repro.serialization.object_codec import ObjectCodec

#: Identifier of the JSON document layout written by :func:`run_perf_suite`.
SCHEMA = "repro-bench/v1"

#: Comparison names every suite run must produce (schema contract).  The set
#: grows as PRs add sections; older committed BENCH_*.json files are held to
#: the baseline set they were generated under (see BASELINE_COMPARISON_NAMES).
COMPARISON_NAMES = (
    "codec_encode",
    "codec_decode",
    "xml_parse",
    "xml_roundtrip",
    "fanout_1",
    "fanout_10",
    "fanout_100",
    "subscribe_churn",
    "filtered_fanout",
    "mt_fanout",
    "intra_shard_fanout",
    "async_fanout",
)

#: The PR-1 comparison set: the minimum every historical repro-bench/v1
#: document contains.
BASELINE_COMPARISON_NAMES = (
    "codec_encode",
    "codec_decode",
    "xml_roundtrip",
    "fanout_1",
    "fanout_10",
    "fanout_100",
)

#: Scenario names every suite run must produce (schema contract).
SCENARIO_NAMES = (
    "figure19_sr_tps",
    "figure20_sr_tps",
    "lossy_publish",
    "reshard_live",
    "history_replay",
)

#: The pre-PR-6 scenario set: the minimum every historical repro-bench/v1
#: document contains (``lossy_publish`` arrived with the reliability layer).
BASELINE_SCENARIO_NAMES = ("figure19_sr_tps", "figure20_sr_tps")

#: Iteration counts per profile.  ``full`` is what BENCH_*.json files are
#: generated with; ``quick`` is for interactive runs; ``smoke`` exists so the
#: test suite can execute every code path in well under a second.
PROFILES: Dict[str, Dict[str, Any]] = {
    "full": {
        "repeats": 7,
        "codec_iterations": 20_000,
        "xml_iterations": 2_000,
        "fanout_iterations": {1: 5_000, 10: 1_000, 100: 400},
        "churn_iterations": 4_000,
        "churn_resident": 50,
        "filtered_iterations": 1_000,
        "filtered_subscribers": 200,
        "mt_publishers": 4,
        "mt_events": 75,
        "mt_subscribers": 2,
        "mt_io_s": 50e-6,
        "async_publishers": 4,
        "async_events": 75,
        "async_subscribers": 2,
        "async_io_s": 50e-6,
        "intra_shards": 4,
        "intra_keys": 16,
        "intra_events": 240,
        "intra_subscribers": 2,
        "intra_io_s": 50e-6,
        "figure19_events": 100,
        "figure20_duration": 10.0,
        "figure20_events": 2_000,
        "lossy_events": 60,
        "reshard_shards": 4,
        "reshard_keys": 24,
        "reshard_events": 4_000,
        "history_events": 20_000,
    },
    "quick": {
        "repeats": 3,
        "codec_iterations": 4_000,
        "xml_iterations": 400,
        "fanout_iterations": {1: 800, 10: 200, 100: 30},
        "churn_iterations": 800,
        "churn_resident": 50,
        "filtered_iterations": 200,
        "filtered_subscribers": 100,
        "mt_publishers": 4,
        "mt_events": 30,
        "mt_subscribers": 2,
        "mt_io_s": 50e-6,
        "async_publishers": 4,
        "async_events": 30,
        "async_subscribers": 2,
        "async_io_s": 50e-6,
        "intra_shards": 4,
        "intra_keys": 16,
        "intra_events": 96,
        "intra_subscribers": 2,
        "intra_io_s": 50e-6,
        "figure19_events": 40,
        "figure20_duration": 4.0,
        "figure20_events": 400,
        "lossy_events": 20,
        "reshard_shards": 4,
        "reshard_keys": 24,
        "reshard_events": 1_000,
        "history_events": 4_000,
    },
    "smoke": {
        "repeats": 1,
        "codec_iterations": 30,
        "xml_iterations": 10,
        "fanout_iterations": {1: 10, 10: 4, 100: 2},
        "churn_iterations": 10,
        "churn_resident": 5,
        "filtered_iterations": 10,
        "filtered_subscribers": 4,
        "mt_publishers": 2,
        "mt_events": 3,
        "mt_subscribers": 1,
        "mt_io_s": 100e-6,
        "async_publishers": 2,
        "async_events": 3,
        "async_subscribers": 1,
        "async_io_s": 100e-6,
        "intra_shards": 2,
        "intra_keys": 8,
        "intra_events": 8,
        "intra_subscribers": 1,
        "intra_io_s": 100e-6,
        "figure19_events": 10,
        "figure20_duration": 1.0,
        "figure20_events": 10,
        "lossy_events": 4,
        "reshard_shards": 2,
        "reshard_keys": 8,
        "reshard_events": 40,
        "history_events": 50,
    },
}

#: Link drop probabilities exercised by the ``lossy_publish`` scenario.
LOSSY_DROP_RATES = (0.0, 0.01, 0.05)

#: ``baseline_per_op_us`` of the comparisons whose baseline design no longer
#: exists in the repository (module docstring, "frozen"): the values its
#: in-process replica last recorded, BENCH_11.json (full profile).
FROZEN_BASELINES_US = {
    "fanout_1": 15.2297,
    "fanout_10": 19.3275,
    "fanout_100": 59.2788,
    "mt_fanout": 257.086,
    "async_fanout": 291.366,
}


@dataclass
class Comparison:
    """Baseline-versus-fast timing of one hot-path operation."""

    name: str
    baseline_per_op_us: float
    fast_per_op_us: float
    iterations: int
    repeats: int
    #: ``"frozen"`` when the baseline is a recorded constant rather than a
    #: path timed beside the fast one; absent from the JSON otherwise.
    baseline_source: Optional[str] = None

    @property
    def speedup(self) -> float:
        """How many times faster the fast path is than the baseline."""
        if self.fast_per_op_us <= 0:
            return 0.0
        return self.baseline_per_op_us / self.fast_per_op_us

    def to_json(self) -> Dict[str, Any]:
        document = {
            "name": self.name,
            "baseline_per_op_us": round(self.baseline_per_op_us, 4),
            "fast_per_op_us": round(self.fast_per_op_us, 4),
            "speedup": round(self.speedup, 3),
            "iterations": self.iterations,
            "repeats": self.repeats,
        }
        if self.baseline_source is not None:
            document["baseline_source"] = self.baseline_source
        return document


def _against_frozen(
    name: str, fast_seconds: float, iterations: int, repeats: int
) -> Comparison:
    """``name``'s frozen baseline against a fast path measured as the best
    whole-run wall time ``fast_seconds`` over ``iterations`` operations."""
    return Comparison(
        name,
        FROZEN_BASELINES_US[name],
        fast_seconds / iterations * 1e6,
        iterations,
        repeats,
        baseline_source="frozen",
    )


def _time_pair(
    baseline_fn: Callable[[], Any],
    fast_fn: Callable[[], Any],
    iterations: int,
    repeats: int,
) -> "tuple[float, float]":
    """Best-of-``repeats`` per-op times for both paths, in microseconds.

    The two closures are timed in *alternating* repeats so transient machine
    noise (CPU contention, frequency scaling) hits both sides equally and the
    recorded speedup ratio stays stable even on busy hosts.
    """
    best_baseline = float("inf")
    best_fast = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iterations):
            baseline_fn()
        best_baseline = min(best_baseline, (time.perf_counter() - start) / iterations)
        start = time.perf_counter()
        for _ in range(iterations):
            fast_fn()
        best_fast = min(best_fast, (time.perf_counter() - start) / iterations)
    return best_baseline * 1e6, best_fast * 1e6


def _sample_event(index: int = 0) -> SkiRental:
    return SkiRental(f"shop-{index}", 100.0 + index, "Salomon", 7)


# ------------------------------------------------------------------- codecs


def _bench_codec(profile: Dict[str, Any]) -> List[Comparison]:
    iterations = profile["codec_iterations"]
    repeats = profile["repeats"]
    event = _sample_event()
    fast = ObjectCodec()
    baseline = ObjectCodec(compiled=False)
    for codec in (fast, baseline):
        codec.register(SkiRental, "bench.SkiRental")
    payload = fast.encode(event)
    assert payload == baseline.encode(event)  # byte-compatibility sanity
    encode_baseline, encode_fast = _time_pair(
        lambda: baseline.encode(event), lambda: fast.encode(event), iterations, repeats
    )
    decode_baseline, decode_fast = _time_pair(
        lambda: baseline.decode(payload), lambda: fast.decode(payload), iterations, repeats
    )
    return [
        Comparison("codec_encode", encode_baseline, encode_fast, iterations, repeats),
        Comparison("codec_decode", decode_baseline, decode_fast, iterations, repeats),
    ]


def _parse_corpus() -> List[str]:
    """Representative wire documents for the parser benchmark.

    One encoded XML event (the TPS hot path), one peer advertisement
    (discovery/publish traffic) and one discovery response embedding three
    advertisement documents as text (the largest documents the stack
    routinely parses).
    """
    from repro.jxta.advertisement import PeerAdvertisement
    from repro.serialization.xml_codec import XmlElement, to_xml

    event_doc = XmlEventCodec().encode(_sample_event()).decode("utf-8")
    advertisement = PeerAdvertisement(
        name="bench-peer",
        endpoints=["tcp://host-0", "http://host-0"],
        is_rendezvous=True,
    )
    adv_doc = advertisement.to_document()
    response = XmlElement("DiscoveryResponse")
    response.add("Kind", "2")
    for _ in range(3):
        response.add("Adv", adv_doc)
    return [event_doc, adv_doc, to_xml(response, declaration=False)]


def _bench_xml_parse(profile: Dict[str, Any]) -> Comparison:
    from repro.serialization.xml_codec import parse_xml

    iterations = profile["xml_iterations"]
    repeats = profile["repeats"]
    corpus = _parse_corpus()
    for document in corpus:  # tree-equality sanity before timing
        assert parse_xml(document) == parse_xml(document, fast=False)

    def run_fast() -> None:
        for document in corpus:
            parse_xml(document)

    def run_legacy() -> None:
        for document in corpus:
            parse_xml(document, fast=False)

    baseline_us, fast_us = _time_pair(run_legacy, run_fast, iterations, repeats)
    return Comparison("xml_parse", baseline_us, fast_us, iterations, repeats)


def _bench_xml(profile: Dict[str, Any]) -> Comparison:
    iterations = profile["xml_iterations"]
    repeats = profile["repeats"]
    event = _sample_event()
    cached = XmlEventCodec()
    uncached = XmlEventCodec(cache_descriptions=False, cache_documents=False)
    for codec in (cached, uncached):
        codec.register(SkiRental)
    assert cached.encode(event) == uncached.encode(event)
    baseline_us, fast_us = _time_pair(
        lambda: uncached.decode(uncached.encode(event)),
        lambda: cached.decode(cached.encode(event)),
        iterations,
        repeats,
    )
    return Comparison("xml_roundtrip", baseline_us, fast_us, iterations, repeats)


# ------------------------------------------------------------------ fan-out


def _bench_fanout(profile: Dict[str, Any]) -> List[Comparison]:
    repeats = profile["repeats"]
    comparisons: List[Comparison] = []
    for subscribers, iterations in sorted(profile["fanout_iterations"].items()):
        event = _sample_event()
        bus = LocalBus()
        publisher = LocalTPSEngine(SkiRental, bus=bus)
        for _ in range(subscribers):
            LocalTPSEngine(SkiRental, bus=bus).subscribe(lambda event: None)
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(iterations):
                publisher.publish(event)
            best = min(best, time.perf_counter() - start)
        comparisons.append(
            _against_frozen(f"fanout_{subscribers}", best, iterations, repeats)
        )
    return comparisons


# --------------------------------------------------- v2 subscription paths


def _bench_subscribe_churn(profile: Dict[str, Any]) -> Comparison:
    """One subscribe + cancel cycle against an interface with resident load.

    The fast path is the v2 handle: ``subscribe()`` returns a
    ``SubscriptionHandle`` whose ``cancel()`` discards the exact subscription
    objects by identity.  The baseline is the Figure 8 cycle the seed API
    forced: ``subscribe(cb)`` then ``unsubscribe(cb)``, a matching scan that
    calls ``Subscription.matches`` on every resident subscription.
    """
    iterations = profile["churn_iterations"]
    repeats = profile["repeats"]
    resident = profile["churn_resident"]
    engine = LocalTPSEngine(SkiRental, bus=LocalBus())
    for _ in range(resident):
        engine.subscribe(lambda event: None)

    def churn_fast() -> None:
        engine.subscribe(_sink).cancel()

    def churn_seed() -> None:
        engine.subscribe(_sink)
        engine.unsubscribe(_sink)

    baseline_us, fast_us = _time_pair(churn_seed, churn_fast, iterations, repeats)
    return Comparison("subscribe_churn", baseline_us, fast_us, iterations, repeats)


def _sink(event: Any) -> None:
    """Shared no-op callback (a named function so churn matching is fair)."""


def _cheap(offer: Any) -> bool:
    """The filtered-fanout predicate; rejects 15 of the 16 corpus events."""
    return offer.price < 50.0


def _build_filtered(subscribers: int, *, pushdown: bool) -> LocalTPSEngine:
    """A publisher plus N subscribers that each filter with ``_cheap``.

    The post-dispatch side subscribes the pre-v2 idiom: a plain callable
    that applies the predicate inside the callback body (adapted through
    ``FunctionCallback``, exactly as application code wrote it before
    ``where`` existed).
    """
    bus = LocalBus()
    publisher = LocalTPSEngine(SkiRental, bus=bus)
    for _ in range(subscribers):
        engine = LocalTPSEngine(SkiRental, bus=bus)
        if pushdown:
            engine.subscription(_sink).where(_cheap).start()
        else:
            engine.subscribe(lambda event: _sink(event) if _cheap(event) else None)
    return publisher


def _bench_filtered_fanout(profile: Dict[str, Any]) -> Comparison:
    """Publish with per-subscription filtering: push-down vs post-dispatch.

    Both sides publish the identical 16-event corpus (1 accepted, 15
    rejected by ``_cheap``) to the same number of subscribers.  The fast side
    carries the predicate in the dispatch rows (v2 ``where`` push-down), so a
    rejected event costs one predicate call; the baseline filters inside the
    subscribed callable, so every rejected event still pays the dispatch
    try/except frame plus the adapter and wrapper calls before the predicate
    even runs.
    """
    iterations = profile["filtered_iterations"]
    repeats = profile["repeats"]
    subscribers = profile["filtered_subscribers"]
    corpus = [_sample_event(index) for index in range(16)]
    corpus[0] = SkiRental("shop-cheap", 10.0, "Salomon", 7)  # the one match
    fast_publisher = _build_filtered(subscribers, pushdown=True)
    seed_publisher = _build_filtered(subscribers, pushdown=False)
    fast_events = itertools.cycle(corpus)
    seed_events = itertools.cycle(corpus)

    def run_fast() -> None:
        fast_publisher.publish(next(fast_events))

    def run_seed() -> None:
        seed_publisher.publish(next(seed_events))

    baseline_us, fast_us = _time_pair(run_seed, run_fast, iterations, repeats)
    return Comparison("filtered_fanout", baseline_us, fast_us, iterations, repeats)


# ------------------------------------------------------- concurrent fan-out


#: Candidate event types for the multi-threaded benchmark, one hierarchy
#: each.  More candidates than publisher threads so the greedy selection in
#: :func:`_mt_types` can cover every shard of the benchmark bus (ring
#: placement is stable but arbitrary).
_MT_EVENT_TYPES = tuple(
    dataclasses.make_dataclass(f"_MtEvent{index}", [("price", float, 0.0)])
    for index in range(12)
)


def _mt_types(publishers: int) -> List[type]:
    """``publishers`` event types whose hierarchies land on distinct shards.

    Greedy, deterministic pick from the candidate pool; if the pool cannot
    cover every shard (it can, for the committed profiles) the remainder is
    filled with unused candidates and the benchmark merely loses some
    parallelism -- it never breaks.
    """
    probe = ShardedLocalBus(shards=publishers)
    chosen: List[type] = []
    used: "set[int]" = set()
    for cls in _MT_EVENT_TYPES:
        index = probe.shard_index(type_name(cls))
        if index not in used:
            used.add(index)
            chosen.append(cls)
            if len(chosen) == publishers:
                return chosen
    for cls in _MT_EVENT_TYPES:
        if len(chosen) == publishers:
            break
        if cls not in chosen:
            chosen.append(cls)
    return chosen


def _bench_mt_fanout(profile: Dict[str, Any]) -> Comparison:
    """N-hierarchy concurrent fan-out through the sharded ``publish_all``.

    Each subscriber callback performs a short GIL-releasing wait
    (``mt_io_s``), standing in for the per-event I/O real subscribers do
    (socket writes, disk appends, handing off to a blocking
    ``EventStream``).  Pre-built event batches are delivered at the bus
    level (no codec work), so the number isolates the bus architecture: one
    ``publish_all`` batch over a
    :class:`~repro.core.sharded_engine.ShardedLocalBus` with one shard per
    hierarchy -- the executor's N workers are the publisher threads, each
    shard's lock-free delivery runs independently, and the waits overlap.
    (The same cross-shard path backs ``tps.publish_many``; there it
    degenerates to the inline single-shard case because one interface is one
    hierarchy.)  The frozen baseline is what N publisher threads cost over
    one bus whose delivery ran under a single lock, where every hierarchy's
    subscriber waits serialised behind one another.
    """
    publishers = profile["mt_publishers"]
    events = profile["mt_events"]
    subscribers = profile["mt_subscribers"]
    io_wait = profile["mt_io_s"]
    repeats = profile["repeats"]
    types = _mt_types(publishers)
    bus = ShardedLocalBus(shards=publishers)
    engines = []
    for cls in types:
        engines.append(LocalTPSEngine(cls, bus=bus))
        for _ in range(subscribers):
            LocalTPSEngine(cls, bus=bus).subscribe(lambda event: time.sleep(io_wait))
    jobs = [
        (publisher, cls(float(index)))
        for index in range(events)
        for publisher, cls in zip(engines, types)
    ]
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        bus.publish_all(jobs)
        best = min(best, time.perf_counter() - start)
    bus.shutdown()
    return _against_frozen("mt_fanout", best, publishers * events, repeats)


def _bench_async_fanout(profile: Dict[str, Any]) -> Comparison:
    """Coroutine fan-out on one event loop (the ``mt_fanout`` workload).

    N publisher *tasks* on one event loop over an
    :class:`~repro.core.async_engine.AsyncLocalBus` with
    ``dispatch="concurrent"``, each hierarchy with ``async_subscribers``
    coroutine subscribers awaiting ``asyncio.sleep``: one event's subscriber
    waits overlap and the loop interleaves the publishers' awaitable
    backpressure instead of parking threads.  Bus-level delivery of
    pre-built batches, no codec work.  The frozen baseline is the threaded
    locked-bus leg ``mt_fanout`` is read against.

    Engine construction is loop-confined, so the engines are rebuilt inside
    each repeat's fresh ``asyncio.run`` loop; the clock starts after the
    build.
    """
    publishers = profile["async_publishers"]
    events = profile["async_events"]
    subscribers = profile["async_subscribers"]
    io_wait = profile["async_io_s"]
    repeats = profile["repeats"]
    types = _mt_types(publishers)
    batches = {cls: [cls(float(index)) for index in range(events)] for cls in types}

    async def wait(event: Any) -> None:
        await asyncio.sleep(io_wait)

    async def main() -> float:
        bus = AsyncLocalBus(dispatch="concurrent")
        engines = []
        for cls in types:
            engines.append(AsyncTPSEngine(cls, bus=bus))
            for _ in range(subscribers):
                AsyncTPSEngine(cls, bus=bus).subscribe(wait)

        async def work(publisher: AsyncTPSEngine, cls: type) -> None:
            publish = bus.publish
            for event in batches[cls]:
                await publish(publisher, event)

        start = time.perf_counter()
        await asyncio.gather(
            *(work(publisher, cls) for publisher, cls in zip(engines, types))
        )
        return time.perf_counter() - start

    best = min(asyncio.run(main()) for _ in range(repeats))
    return _against_frozen("async_fanout", best, publishers * events, repeats)


#: The intra-hierarchy benchmark's single hot event type: one hierarchy,
#: sharded by the ``key`` attribute's value.
_HotEvent = dataclasses.make_dataclass(
    "_HotShardEvent", [("key", str, ""), ("price", float, 0.0)]
)


def _intra_keys(bus: ShardedLocalBus, keys: int) -> List[str]:
    """``keys`` content keys of which every shard of ``bus`` owns an equal share.

    Greedy, deterministic pick from ``key-0, key-1, ...`` against the bus's
    own placement (as :func:`_mt_types` picks hierarchies), so the recorded
    speedup measures N evenly loaded shards rather than whatever grouping a
    fixed corpus happens to hash to.
    """
    root = type_name(_HotEvent)
    quota = -(-keys // len(bus.shards))  # ceil: terminates for any profile
    owned = [0] * len(bus.shards)
    chosen: List[str] = []
    for index in itertools.count():
        key = f"key-{index}"
        shard = bus.partition_index(root, _HotEvent(key=key))
        if owned[shard] < quota:
            owned[shard] += 1
            chosen.append(key)
            if len(chosen) == keys:
                return chosen


def _bench_intra_shard_fanout(profile: Dict[str, Any]) -> Comparison:
    """Single hot hierarchy: content-keyed N-shard bus vs the 1-shard baseline.

    The ``mt_fanout``-style workload (subscribers perform a short
    GIL-releasing wait per event, standing in for socket writes and disk
    appends) applied to the shape ``mt_fanout`` cannot cover: *every* event
    belongs to one hierarchy, so root-partitioned sharding degenerates to a
    single shard and the whole fan-out serialises.  Content-keyed
    partitioning (``partition="content"``, ``content_key="key"``) spreads
    the hierarchy across N shards by event key; ``publish_all`` then runs
    the per-key shard groups on the executor's threads concurrently while
    preserving per-key order.  Both sides run the identical batch through
    the identical ``ShardedLocalBus.publish_all`` entry point -- the only
    difference is the partition: N content shards (fast) versus the 1-shard
    bus (baseline, equivalent to an unsharded hierarchy), so the recorded
    speedup isolates intra-hierarchy sharding itself.
    """
    shards = profile["intra_shards"]
    keys = profile["intra_keys"]
    events = profile["intra_events"]
    subscribers = profile["intra_subscribers"]
    io_wait = profile["intra_io_s"]
    repeats = profile["repeats"]

    def build(bus: ShardedLocalBus) -> LocalTPSEngine:
        publisher = LocalTPSEngine(_HotEvent, bus=bus)
        for _ in range(subscribers):
            engine = LocalTPSEngine(_HotEvent, bus=bus)
            engine.subscribe(lambda event: time.sleep(io_wait))
        return publisher

    sharded_bus = ShardedLocalBus(shards=shards, partition="content", content_key="key")
    single_bus = ShardedLocalBus(shards=1)
    corpus = _intra_keys(sharded_bus, keys)
    batch = [
        _HotEvent(key=corpus[index % keys], price=float(index)) for index in range(events)
    ]
    sharded_publisher = build(sharded_bus)
    single_publisher = build(single_bus)

    def run(bus: ShardedLocalBus, publisher: LocalTPSEngine) -> float:
        jobs = [(publisher, event) for event in batch]
        start = time.perf_counter()
        bus.publish_all(jobs)
        return time.perf_counter() - start

    best_single = float("inf")
    best_sharded = float("inf")
    for _ in range(repeats):
        best_single = min(best_single, run(single_bus, single_publisher))
        best_sharded = min(best_sharded, run(sharded_bus, sharded_publisher))
    sharded_bus.shutdown()
    single_bus.shutdown()
    return Comparison(
        "intra_shard_fanout",
        best_single / events * 1e6,
        best_sharded / events * 1e6,
        events,
        repeats,
    )


# ---------------------------------------------------------------- scenarios


def _bench_scenarios(profile: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Wall-clock cost of the simulated Figure 19/20 experiments (SR-TPS)."""
    from repro.bench.figures import run_publisher_throughput, run_subscriber_throughput
    from repro.bench.scenario import SR_TPS

    scenarios: List[Dict[str, Any]] = []
    events = profile["figure19_events"]
    start = time.perf_counter()
    series = run_publisher_throughput(
        SR_TPS, subscribers=1, events=events, epochs=min(10, events)
    )
    wall = time.perf_counter() - start
    scenarios.append(
        {
            "name": "figure19_sr_tps",
            "wall_clock_s": round(wall, 4),
            "events": events,
            "mean_rate_events_per_s": round(series.mean_rate, 3),
        }
    )
    duration = profile["figure20_duration"]
    per_publisher = profile["figure20_events"]
    start = time.perf_counter()
    series20 = run_subscriber_throughput(
        SR_TPS, publishers=1, duration=duration, events_per_publisher=per_publisher
    )
    wall = time.perf_counter() - start
    scenarios.append(
        {
            "name": "figure20_sr_tps",
            "wall_clock_s": round(wall, 4),
            "events_per_publisher": per_publisher,
            "duration_virtual_s": duration,
            "received_total": sum(series20.per_second),
        }
    )
    scenarios.append(_bench_lossy_publish(profile))
    scenarios.append(_bench_reshard_live(profile))
    scenarios.append(_bench_history_replay(profile))
    return scenarios


def _bench_history_replay(profile: Dict[str, Any]) -> Dict[str, Any]:
    """Append and replay throughput of the two history stores (PR 10).

    Same event corpus through a :class:`~repro.core.history.RingHistory`
    (the paper-faithful in-memory bound) and a durable
    :class:`~repro.storage.log.LogHistory` (length-prefixed codec records,
    group-commit fsync): append the full batch, then replay it with
    ``since(0)`` -- the exact path a resumable stream or a catching-up peer
    takes.  The ratio quantifies what durability costs: the log pays codec
    encode + file I/O per append and codec decode per replayed record,
    where the ring only rotates a deque.
    """
    import os
    import tempfile

    from repro.core.history import RingHistory
    from repro.core.type_registry import TypeRegistry
    from repro.storage.log import LogHistory

    events = profile["history_events"]
    batch = [
        _HotEvent(key=f"key-{index % 16}", price=float(index))
        for index in range(events)
    ]
    codec = TypeRegistry(_HotEvent).codec

    ring = RingHistory(events)
    start = time.perf_counter()
    for event in batch:
        ring.append(event)
    ring_append_wall = time.perf_counter() - start
    start = time.perf_counter()
    ring_replayed = len(ring.since(0))
    ring_replay_wall = time.perf_counter() - start

    with tempfile.TemporaryDirectory(prefix="repro-bench-history-") as tmp:
        log = LogHistory(
            os.path.join(tmp, "sent.log"),
            encode=codec.encode,
            decode=codec.decode,
        )
        start = time.perf_counter()
        for event in batch:
            log.append(event)
        log.sync()
        log_append_wall = time.perf_counter() - start
        start = time.perf_counter()
        log_replayed = len(log.since(0))
        log_replay_wall = time.perf_counter() - start
        log.close()
    assert ring_replayed == log_replayed == events, "a history store lost records"
    return {
        "name": "history_replay",
        "wall_clock_s": round(
            ring_append_wall + ring_replay_wall + log_append_wall + log_replay_wall,
            4,
        ),
        "events": events,
        "ring_append_events_per_s": round(events / ring_append_wall, 1),
        "ring_replay_events_per_s": round(events / ring_replay_wall, 1),
        "log_append_events_per_s": round(events / log_append_wall, 1),
        "log_replay_events_per_s": round(events / log_replay_wall, 1),
        "replay_slowdown_log_vs_ring": round(log_replay_wall / ring_replay_wall, 3),
    }


def _bench_reshard_live(profile: Dict[str, Any]) -> Dict[str, Any]:
    """Publish throughput during a live ``add_shard`` versus steady state.

    One content-keyed ring bus (the PR 7 elastic default), one subscriber,
    one publisher streaming the same key corpus twice: first against a
    fixed topology (steady), then again while a background thread grows the
    bus by one shard mid-stream (a reshard is one snapshot swap that no
    publish waits for, so throughput should hold).  The scenario
    also records the placement-layer movement bound in action: how many of
    the corpus keys the migration actually re-homed (consistent hashing
    promises ~1/(N+1) of them; mod-N rehashing would move ~N/(N+1)).
    """
    from repro.core.placement import moved_keys

    shards = profile["reshard_shards"]
    keys = profile["reshard_keys"]
    events = profile["reshard_events"]
    bus = ShardedLocalBus(shards=shards, partition="content", content_key="key")
    publisher = LocalTPSEngine(_HotEvent, bus=bus)
    subscriber = LocalTPSEngine(_HotEvent, bus=bus)
    delivered = [0]
    subscriber.subscribe(lambda event: delivered.__setitem__(0, delivered[0] + 1))
    corpus = [f"key-{index}" for index in range(keys)]
    batch = [
        _HotEvent(key=corpus[index % keys], price=float(index))
        for index in range(events)
    ]

    def stream() -> float:
        start = time.perf_counter()
        for event in batch:
            bus.publish(publisher, event)
        return time.perf_counter() - start

    steady_wall = stream()

    placement_before = bus.placement
    go = threading.Event()
    done = threading.Event()

    def grow() -> None:
        go.wait()
        bus.add_shard()
        done.set()

    churn = threading.Thread(target=grow, name="reshard-bench", daemon=True)
    churn.start()
    start = time.perf_counter()
    for index, event in enumerate(batch):
        if index == events // 3:
            go.set()
        bus.publish(publisher, event)
    churn.join()
    reshard_wall = time.perf_counter() - start
    moved = moved_keys(placement_before, bus.placement, corpus)
    bus.shutdown()
    assert delivered[0] == 2 * events, "resharding lost or duplicated deliveries"
    return {
        "name": "reshard_live",
        "wall_clock_s": round(steady_wall + reshard_wall, 4),
        "events": events,
        "shards_before": shards,
        "shards_after": shards + 1,
        "epochs": bus.epoch_number,
        "steady_events_per_s": round(events / steady_wall, 1),
        "reshard_events_per_s": round(events / reshard_wall, 1),
        "throughput_ratio": round(
            (events / reshard_wall) / (events / steady_wall), 3
        ),
        "keys_total": keys,
        "keys_moved": len(moved),
    }


def _bench_lossy_publish(profile: Dict[str, Any]) -> Dict[str, Any]:
    """Wall-clock cost of reliable publishing over increasingly lossy links.

    For each rate in :data:`LOSSY_DROP_RATES` the same small JXTA testbed
    (one rendez-vous, one publisher, one subscriber, ``reliable_delivery``
    on) publishes ``lossy_events`` events over a network whose links drop
    packets with that probability -- a seeded
    :class:`~repro.net.faults.FaultPlan`, so every run is deterministic.
    The per-rate figures record the ack/retry machinery's real cost growing
    with loss while delivery stays complete (retries climb, delivered stays
    at the published count, terminal failures stay at zero).
    """
    from repro.core import TPSConfig, TPSEngine
    from repro.jxta.platform import JxtaNetworkBuilder
    from repro.net.faults import FaultPlan, LinkFaults

    events = profile["lossy_events"]
    reliable = {"reliable_delivery": True}
    rates: List[Dict[str, Any]] = []
    total_wall = 0.0
    for rate in LOSSY_DROP_RATES:
        builder = JxtaNetworkBuilder(seed=2002)
        builder.add_rendezvous("rdv-0")
        pub_peer = builder.add_peer("bench-pub")
        publisher = TPSEngine(
            SkiRental,
            peer=pub_peer,
            config=TPSConfig(search_timeout=2.0, **reliable),
        ).new_interface("JXTA")
        builder.settle(rounds=8)
        sub_peer = builder.add_peer("bench-sub")
        subscriber = TPSEngine(
            SkiRental,
            peer=sub_peer,
            config=TPSConfig(search_timeout=6.0, create_if_missing=False, **reliable),
        ).new_interface("JXTA")
        inbox: List[Any] = []
        subscriber.subscribe(inbox.append)
        builder.settle(rounds=12)
        # The plan is installed only after discovery has converged, so every
        # publish (and its acks and retries) crosses the lossy link.
        builder.network.fault_plan = FaultPlan(seed=6, default=LinkFaults(drop=rate))
        start = time.perf_counter()
        for index in range(events):
            receipt = publisher.publish(SkiRental("bench", 10.0 + index, "b", 1))
            builder.simulator.run_until(
                max(builder.simulator.now, receipt.completion_time)
            )
        builder.settle(rounds=16)  # drain the retry window
        wall = time.perf_counter() - start
        total_wall += wall
        counters = pub_peer.metrics.counters()
        rates.append(
            {
                "drop_rate": rate,
                "wall_clock_s": round(wall, 4),
                "published": events,
                "delivered": len(inbox),
                "retries": counters.get("wire_retries", 0),
                "delivery_failures": counters.get("wire_delivery_failed", 0),
            }
        )
    return {
        "name": "lossy_publish",
        "wall_clock_s": round(total_wall, 4),
        "events_per_rate": events,
        "rates": rates,
    }


# -------------------------------------------------------------------- suite


def run_perf_suite(profile: str = "full") -> Dict[str, Any]:
    """Run every micro-benchmark and return the ``repro-bench/v1`` document."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {sorted(PROFILES)}")
    settings = PROFILES[profile]
    comparisons = _bench_codec(settings)
    comparisons.append(_bench_xml_parse(settings))
    comparisons.append(_bench_xml(settings))
    comparisons.extend(_bench_fanout(settings))
    comparisons.append(_bench_subscribe_churn(settings))
    comparisons.append(_bench_filtered_fanout(settings))
    comparisons.append(_bench_mt_fanout(settings))
    comparisons.append(_bench_intra_shard_fanout(settings))
    comparisons.append(_bench_async_fanout(settings))
    return {
        "schema": SCHEMA,
        "version": __version__,
        "unix_time": round(time.time(), 3),
        "profile": profile,
        "comparisons": [comparison.to_json() for comparison in comparisons],
        "scenarios": _bench_scenarios(settings),
    }


def validate_document(
    document: Dict[str, Any],
    *,
    required_comparisons: "tuple[str, ...]" = COMPARISON_NAMES,
    required_scenarios: "tuple[str, ...]" = SCENARIO_NAMES,
) -> List[str]:
    """Return every schema violation in a suite document (empty = valid).

    ``required_comparisons`` and ``required_scenarios`` default to the full
    current sets; pass :data:`BASELINE_COMPARISON_NAMES` /
    :data:`BASELINE_SCENARIO_NAMES` when validating a historical
    ``BENCH_*.json`` generated before newer sections existed.
    """
    problems: List[str] = []
    if document.get("schema") != SCHEMA:
        problems.append(f"schema is {document.get('schema')!r}, expected {SCHEMA!r}")
    for key in ("version", "unix_time", "profile", "comparisons", "scenarios"):
        if key not in document:
            problems.append(f"missing top-level key {key!r}")
    names = [entry.get("name") for entry in document.get("comparisons", [])]
    for expected in required_comparisons:
        if expected not in names:
            problems.append(f"missing comparison {expected!r}")
    for entry in document.get("comparisons", []):
        for key in ("baseline_per_op_us", "fast_per_op_us", "speedup", "iterations", "repeats"):
            value = entry.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(f"comparison {entry.get('name')!r}: bad {key}={value!r}")
    scenario_names = [entry.get("name") for entry in document.get("scenarios", [])]
    for expected in required_scenarios:
        if expected not in scenario_names:
            problems.append(f"missing scenario {expected!r}")
    for entry in document.get("scenarios", []):
        wall = entry.get("wall_clock_s")
        if not isinstance(wall, (int, float)) or wall < 0:
            problems.append(f"scenario {entry.get('name')!r}: bad wall_clock_s={wall!r}")
    return problems


def format_suite(document: Dict[str, Any]) -> str:
    """A plain-text table of one suite document."""
    lines = [
        f"perf suite ({document['profile']}) -- repro {document['version']}",
        f"{'comparison':<18} {'base us/op':>12} {'fast us/op':>12} {'speedup':>9}",
    ]
    for entry in document["comparisons"]:
        frozen = "*" if entry.get("baseline_source") == "frozen" else ""
        lines.append(
            f"{entry['name']:<18} {entry['baseline_per_op_us']:>12.2f} "
            f"{entry['fast_per_op_us']:>12.2f} {entry['speedup']:>8.2f}x{frozen}"
        )
    if any(line.endswith("*") for line in lines):
        lines.append("* baseline frozen at BENCH_11.json, not timed on this host")
    for entry in document["scenarios"]:
        lines.append(f"{entry['name']:<18} wall-clock {entry['wall_clock_s']:.3f}s")
    return "\n".join(lines)


def write_suite(path: str, document: Optional[Dict[str, Any]] = None, *, profile: str = "full") -> Dict[str, Any]:
    """Run (unless given) and write a suite document to ``path``; returns it."""
    if document is None:
        document = run_perf_suite(profile)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return document


__all__ = [
    "BASELINE_COMPARISON_NAMES",
    "BASELINE_SCENARIO_NAMES",
    "COMPARISON_NAMES",
    "Comparison",
    "LOSSY_DROP_RATES",
    "PROFILES",
    "SCENARIO_NAMES",
    "SCHEMA",
    "format_suite",
    "run_perf_suite",
    "validate_document",
    "write_suite",
]
