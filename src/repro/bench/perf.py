"""Persistent wall-clock micro-benchmarks for the hot-path event fabric.

The paper's quantitative story (Figures 18-20) is that the TPS layer adds
only a small, bounded overhead per event -- which makes the reproduction's
own hot path (serialise -> route -> deliver) the thing to keep fast.  This
module measures the parts of that path that need a same-process pair, with
real (not simulated) time, and writes a JSON trajectory file
(``python -m repro bench --json BENCH_1.json``) so every perf-touching PR
has a recorded before/after.

End-to-end delivery through each binding (fan-out, filtering, the asyncio
bus, the reliable wire under loss, the durable log) is measured by the
``tpsbench`` harness at the repository root, which gates every change.
This module keeps only what that harness cannot express: a *live* pair,
where the baseline is a product path that still ships (a codec flag,
``unsubscribe(cb)``, the 1-shard bus) and both sides are
timed in the same process in alternating repeats, so host noise hits them
equally and the ratio is a same-host pair.

The comparisons:

* ``codec_encode`` / ``codec_decode`` -- the compiled per-type codec plans of
  :class:`~repro.serialization.object_codec.ObjectCodec` versus the generic
  recursive codec (``compiled=False``), on a representative event;
* ``xml_roundtrip`` -- an encode + decode round trip through
  :class:`~repro.core.xml_types.XmlEventCodec` with cached type-description
  fragments versus the tree-building encoder (both decode through the one
  XML parser, so the ratio is the encode cache's);
* ``subscribe_churn`` -- one subscribe/cancel cycle against an interface
  with resident subscriptions: the v2 ``SubscriptionHandle.cancel()``
  (identity discard) versus the Figure 8 ``unsubscribe(callback)``
  matching scan;
* ``intra_shard_fanout`` -- a single hot hierarchy whose subscribers do
  per-event GIL-releasing work: a content-keyed
  :class:`~repro.core.sharded_engine.ShardedLocalBus`
  (``partition="content"``) spreading the hierarchy's events across N
  shards by event key versus the 1-shard bus an unsharded hierarchy
  amounts to, both driven through the identical ``publish_all`` batch
  entry point on the bus's executor (per-key order preserved on both
  sides).

Two *scenario* entries record the real wall-clock cost of running the
simulated Figure 19/20 experiments (SR-TPS variant), so regressions in the
simulator's own hot path show up too.

The JSON schema (``repro-bench/v1``) is validated by
``tests/test_perf_harness.py``; the committed ``BENCH_*.json`` files form the
perf trajectory of the repository.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro._version import __version__
from repro.apps.skirental.types import SkiRental
from repro.core.local_engine import LocalBus, LocalTPSEngine
from repro.core.sharded_engine import ShardedLocalBus
from repro.core.type_registry import type_name
from repro.core.xml_types import XmlEventCodec
from repro.serialization.object_codec import ObjectCodec

#: Identifier of the JSON document layout written by :func:`run_perf_suite`.
SCHEMA = "repro-bench/v1"

#: Comparison names every suite run must produce (schema contract).  Older
#: committed BENCH_*.json files carry rows this set has since dropped and
#: lack rows it added; they are held to BASELINE_COMPARISON_NAMES.
COMPARISON_NAMES = (
    "codec_encode",
    "codec_decode",
    "xml_roundtrip",
    "subscribe_churn",
    "intra_shard_fanout",
)

#: The comparisons every historical repro-bench/v1 document contains.
BASELINE_COMPARISON_NAMES = ("codec_encode", "codec_decode", "xml_roundtrip")

#: Scenario names every suite run -- and every historical document -- must
#: produce (schema contract).
SCENARIO_NAMES = ("figure19_sr_tps", "figure20_sr_tps")

#: Iteration counts per profile.  ``full`` is what BENCH_*.json files are
#: generated with; ``smoke`` exists so the test suite can execute every code
#: path in well under a second.
PROFILES: Dict[str, Dict[str, Any]] = {
    "full": {
        "repeats": 7,
        "codec_iterations": 20_000,
        "xml_iterations": 2_000,
        "churn_iterations": 4_000,
        "churn_resident": 50,
        "intra_shards": 4,
        "intra_keys": 16,
        "intra_events": 240,
        "intra_subscribers": 2,
        "intra_io_s": 50e-6,
        "figure19_events": 100,
        "figure20_duration": 10.0,
        "figure20_events": 2_000,
    },
    "smoke": {
        "repeats": 1,
        "codec_iterations": 30,
        "xml_iterations": 10,
        "churn_iterations": 10,
        "churn_resident": 5,
        "intra_shards": 2,
        "intra_keys": 8,
        "intra_events": 8,
        "intra_subscribers": 1,
        "intra_io_s": 100e-6,
        "figure19_events": 10,
        "figure20_duration": 1.0,
        "figure20_events": 10,
    },
}


@dataclass
class Comparison:
    """Baseline-versus-fast timing of one hot-path operation."""

    name: str
    baseline_per_op_us: float
    fast_per_op_us: float
    iterations: int
    repeats: int

    @property
    def speedup(self) -> float:
        """How many times faster the fast path is than the baseline."""
        if self.fast_per_op_us <= 0:
            return 0.0
        return self.baseline_per_op_us / self.fast_per_op_us

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "baseline_per_op_us": round(self.baseline_per_op_us, 4),
            "fast_per_op_us": round(self.fast_per_op_us, 4),
            "speedup": round(self.speedup, 3),
            "iterations": self.iterations,
            "repeats": self.repeats,
        }


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


def _bench_xml(profile: Dict[str, Any]) -> Comparison:
    iterations = profile["xml_iterations"]
    repeats = profile["repeats"]
    event = _sample_event()
    cached = XmlEventCodec()
    uncached = XmlEventCodec(cache_descriptions=False)
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


# ------------------------------------------------------- concurrent fan-out


#: The intra-hierarchy benchmark's single hot event type: one hierarchy,
#: sharded by the ``key`` attribute's value.
_HotEvent = dataclasses.make_dataclass(
    "_HotShardEvent", [("key", str, ""), ("price", float, 0.0)]
)


def _intra_keys(bus: ShardedLocalBus, keys: int) -> List[str]:
    """``keys`` content keys of which every shard of ``bus`` owns an equal share.

    Greedy, deterministic pick from ``key-0, key-1, ...`` against the bus's
    own placement, so the recorded speedup measures N evenly loaded shards
    rather than whatever grouping a fixed corpus happens to hash to.
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

    Each subscriber callback performs a short GIL-releasing wait
    (``intra_io_s``), standing in for the per-event I/O real subscribers do
    (socket writes, disk appends).  *Every* event belongs to one hierarchy,
    so root-partitioned sharding would degenerate to a single shard and the
    whole fan-out would serialise.  Content-keyed partitioning
    (``partition="content"``, ``content_key="key"``) spreads the hierarchy
    across N shards by event key; ``publish_all`` then runs the per-key
    shard groups on the executor's threads concurrently while preserving
    per-key order.  Both sides run the identical pre-built batch (bus-level
    delivery, no codec work) through the identical
    ``ShardedLocalBus.publish_all`` entry point -- the only difference is
    the partition: N content shards (fast) versus the 1-shard bus
    (baseline, equivalent to an unsharded hierarchy), so the recorded
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

    events = profile["figure19_events"]
    start = time.perf_counter()
    series = run_publisher_throughput(
        SR_TPS, subscribers=1, events=events, epochs=min(10, events)
    )
    figure19_wall = time.perf_counter() - start
    duration = profile["figure20_duration"]
    per_publisher = profile["figure20_events"]
    start = time.perf_counter()
    series20 = run_subscriber_throughput(
        SR_TPS, publishers=1, duration=duration, events_per_publisher=per_publisher
    )
    figure20_wall = time.perf_counter() - start
    return [
        {
            "name": "figure19_sr_tps",
            "wall_clock_s": round(figure19_wall, 4),
            "events": events,
            "mean_rate_events_per_s": round(series.mean_rate, 3),
        },
        {
            "name": "figure20_sr_tps",
            "wall_clock_s": round(figure20_wall, 4),
            "events_per_publisher": per_publisher,
            "duration_virtual_s": duration,
            "received_total": sum(series20.per_second),
        },
    ]


# -------------------------------------------------------------------- suite


def run_perf_suite(profile: str = "full") -> Dict[str, Any]:
    """Run every micro-benchmark and return the ``repro-bench/v1`` document."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {sorted(PROFILES)}")
    settings = PROFILES[profile]
    comparisons = _bench_codec(settings)
    comparisons.append(_bench_xml(settings))
    comparisons.append(_bench_subscribe_churn(settings))
    comparisons.append(_bench_intra_shard_fanout(settings))
    return {
        "schema": SCHEMA,
        "version": __version__,
        "unix_time": round(time.time(), 3),
        "profile": profile,
        "comparisons": [comparison.to_json() for comparison in comparisons],
        "scenarios": _bench_scenarios(settings),
    }


def _is_finite_number(value: Any) -> bool:
    """A JSON number that is a real measurement: not a bool, NaN or infinity."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def validate_document(
    document: Dict[str, Any],
    *,
    required_comparisons: "tuple[str, ...]" = COMPARISON_NAMES,
) -> List[str]:
    """Return every schema violation in a suite document (empty = valid).

    ``required_comparisons`` defaults to the current set; pass
    :data:`BASELINE_COMPARISON_NAMES` when validating a historical
    ``BENCH_*.json`` generated under a different set.
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
            if not _is_finite_number(value) or value <= 0:
                problems.append(f"comparison {entry.get('name')!r}: bad {key}={value!r}")
    scenario_names = [entry.get("name") for entry in document.get("scenarios", [])]
    for expected in SCENARIO_NAMES:
        if expected not in scenario_names:
            problems.append(f"missing scenario {expected!r}")
    for entry in document.get("scenarios", []):
        wall = entry.get("wall_clock_s")
        if not _is_finite_number(wall) or wall < 0:
            problems.append(f"scenario {entry.get('name')!r}: bad wall_clock_s={wall!r}")
    return problems


def format_suite(document: Dict[str, Any]) -> str:
    """A plain-text table of one suite document."""
    lines = [
        f"perf suite ({document['profile']}) -- repro {document['version']}",
        f"{'comparison':<18} {'base us/op':>12} {'fast us/op':>12} {'speedup':>9}",
    ]
    for entry in document["comparisons"]:
        lines.append(
            f"{entry['name']:<18} {entry['baseline_per_op_us']:>12.2f} "
            f"{entry['fast_per_op_us']:>12.2f} {entry['speedup']:>8.2f}x"
        )
    for entry in document["scenarios"]:
        lines.append(f"{entry['name']:<18} wall-clock {entry['wall_clock_s']:.3f}s")
    return "\n".join(lines)


def write_suite(path: str, document: Dict[str, Any]) -> None:
    """Write a suite document to ``path`` as indented JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=False)
        handle.write("\n")


__all__ = [
    "BASELINE_COMPARISON_NAMES",
    "COMPARISON_NAMES",
    "Comparison",
    "PROFILES",
    "SCENARIO_NAMES",
    "SCHEMA",
    "format_suite",
    "run_perf_suite",
    "validate_document",
    "write_suite",
]
