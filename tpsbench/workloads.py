"""The six workloads: what each builds, publishes and expects.

Every workload is a closed loop with one publisher in one OS process: the
next event is published only after the previous one (or, on ``wire_lossy``,
the one four back) has reached every subscriber that must see it.  Event
counts are fixed per workload (``events`` below, scaled by ``--seconds``),
never clock-bounded, so two runs of one seed do exactly the same work and
every count the program makes repeats exactly.

A workload imports :mod:`repro` only inside ``setup`` -- the worker starts
the set-up clock before that import.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import tempfile
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from tpsbench import OUT_DIR
from tpsbench.events import Offer, SkiOffer, accept_all, is_cheap
from tpsbench.oracle import DeliveryOracle

#: Share of a round's events published untimed first (route tables, codec
#: plans and document caches fill; lazy set-up finishes).
WARMUP_SHARE = 0.05

#: Virtual seconds a wire event may take before it counts as failed.
WIRE_DEADLINE = 30.0

#: The timed region is stamped at this many evenly spaced event indices, so
#: the runner can take medians over rounds chunk by chunk: a slow phase of
#: the host then spoils one chunk of one round, not the round.
CHUNKS = 20

#: Counts only a traced round keeps (see :meth:`Workload.counting`); the
#: runner compares them among traced rounds, every other count among all.
TRACE_ONLY_COUNTS = ("predicate_calls", "predicate_passes")

Mark = Callable[[str], None]
Predicate = Optional[Callable[[Any], bool]]


def zeros(count: int) -> array:
    """A preallocated ``array('d')`` of ``count`` zeros."""
    return array("d", bytes(8 * count))


def expected_seqs(corpus: Sequence[Offer], event_type: Type[Offer], predicate: Predicate) -> List[int]:
    """The ``seq`` values a subscriber at ``event_type`` with ``predicate`` must see."""
    return [
        event.seq
        for event in corpus
        if isinstance(event, event_type) and (predicate is None or predicate(event))
    ]


class Workload:
    """Shared skeleton: corpus, oracle, stamps, the phase protocol.

    ``run(mark)`` walks set-up -> warm-up -> timed region, calling
    ``mark("timed_start")`` / ``mark("timed_end")`` at the boundaries of the
    timed region so the worker can read its clocks and counters there.
    """

    #: Registry key, one-line rationale and event count of a reference run
    #: (``--seconds 10``, seven rounds: about a second and a half of timed
    #: region per round on the host the benchmark was sized on).
    name = ""
    why = ""
    events = 0
    #: Smallest event count a scaled-down run may use.
    min_events = 40

    def __init__(
        self,
        corpus: Sequence[Offer],
        seed: int,
        seq_cell: List[int],
        *,
        tracing: bool = False,
    ) -> None:
        self.corpus = corpus
        self.seed = seed
        #: ``[seq]`` of the event being published, read by the tracer.
        self.seq_cell = seq_cell
        self.tracing = tracing
        self.total = len(corpus)
        self.warm = max(1, int(self.total * WARMUP_SHARE))
        self.oracle = DeliveryOracle(corpus)
        #: Per-event publish-call -> last expected delivery, seconds (0 = no sample).
        self.latency = zeros(self.total)
        #: Events whose deliveries were not all in when the loop moved on.
        self.late = 0
        #: Predicate tallies (traced rounds only; see ``counting``).
        self.predicate_calls = [0]
        self.predicate_passes = [0]
        #: Coroutine callbacks awaited (ASYNC only).
        self.awaited = [0]
        #: Every interface set-up opened, for :meth:`close`.
        self.interfaces: List[Any] = []

    @classmethod
    def corpus_size(cls, events: int) -> int:
        """How many corpus events a round of ``events`` timed+warm-up events needs."""
        return events

    # ------------------------------------------------------------- protocol

    def run(self, mark: Mark) -> None:
        self.setup()
        self.publish_range(0, self.warm)
        mark("timed_start")
        for lo, hi in self.chunks(self.warm, self.total):
            self.publish_range(lo, hi)
            mark("chunk")
        mark("timed_end")

    def chunks(self, lo: int, hi: int) -> List[Tuple[int, int]]:
        """Split ``[lo, hi)`` into :data:`CHUNKS` contiguous index ranges.

        The boundaries depend only on the counts, so chunk *c* covers the
        same events in every round of one seed.
        """
        edges = [lo + (hi - lo) * step // CHUNKS for step in range(CHUNKS + 1)]
        return [(a, b) for a, b in zip(edges, edges[1:]) if b > a]

    def setup(self) -> None:
        raise NotImplementedError

    def publish_range(self, lo: int, hi: int) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up opened."""
        for interface in self.interfaces:
            interface.close()

    # ------------------------------------------------------------ reporting

    @property
    def timed_events(self) -> int:
        """Events whose delivery the timed region completed."""
        return self.total - self.warm

    @property
    def latency_samples(self) -> array:
        """The timed events' latencies, seconds (unsampled events left out)."""
        return array("d", (value for value in self.latency[self.warm :] if value > 0.0))

    def counts(self) -> Dict[str, float]:
        """Cumulative program-side counts; the worker diffs two snapshots."""
        return {
            "callbacks": self.oracle.delivered[0],
            "predicate_calls": self.predicate_calls[0],
            "predicate_passes": self.predicate_passes[0],
            "awaited": self.awaited[0],
        }

    def facts(self) -> Dict[str, float]:
        """Round-end observations that are not cumulative counters."""
        return {}

    def counting(self, predicate: Callable[[Any], bool]) -> Callable[[Any], bool]:
        """In traced rounds, tally the predicate's calls and passes."""
        if not self.tracing:
            return predicate
        calls, passes = self.predicate_calls, self.predicate_passes

        def counted(event: Any) -> bool:
            calls[0] += 1
            if predicate(event):
                passes[0] += 1
                return True
            return False

        return counted

    def cumulative_expected(self, groups: Sequence[Tuple[Sequence[int], int]]) -> array:
        """``cum[i]`` = deliveries expected once events ``0..i-1`` are out.

        ``groups`` pairs an expected ``seq`` list with how many subscribers share it.
        """
        per_event = [0] * self.total
        for seqs, subscribers in groups:
            for seq in seqs:
                per_event[seq] += subscribers
        cumulative = array("q", [0])
        running = 0
        for value in per_event:
            running += value
            cumulative.append(running)
        return cumulative


# ---------------------------------------------------------------- LOCAL


class _SyncLocal(Workload):
    """LOCAL binding: delivery is synchronous, latency is the publish call."""

    def _build(self, groups: Sequence[Tuple[Type[Offer], Predicate, int]]) -> None:
        from repro.core import LocalBus, TPSEngine

        bus = LocalBus()
        self.publisher = TPSEngine(Offer, local_bus=bus).new_interface("LOCAL")
        self.interfaces.append(self.publisher)
        audited = False
        expected = []
        for event_type, predicate, subscribers in groups:
            seqs = expected_seqs(self.corpus, event_type, predicate)
            expected.append((seqs, subscribers))
            for _ in range(subscribers):
                interface = TPSEngine(event_type, local_bus=bus).new_interface("LOCAL")
                callback = self.oracle.subscriber(seqs, audit_payload=not audited)
                audited = True
                if predicate is None:
                    interface.subscribe(callback)
                else:
                    interface.subscription(callback).where(self.counting(predicate)).start()
                self.interfaces.append(interface)
        self.cumulative = self.cumulative_expected(expected)

    def publish_range(self, lo: int, hi: int) -> None:
        publish, corpus, latency = self.publisher.publish, self.corpus, self.latency
        delivered, cumulative, seq_cell = self.oracle.delivered, self.cumulative, self.seq_cell
        late = 0
        for index in range(lo, hi):
            seq_cell[0] = index
            start = perf_counter()
            publish(corpus[index])
            latency[index] = perf_counter() - start
            if delivered[0] != cumulative[index + 1]:
                late += 1
        seq_cell[0] = -1
        self.late += late


class LocalFanout(_SyncLocal):
    name = "local_fanout"
    why = (
        "LOCAL, 1 publisher, 100 subscriber interfaces with plain callbacks: "
        "per-delivery cost of the sync delivery loop and RingHistory.append"
    )
    events = 11500

    def setup(self) -> None:
        self._build([(Offer, None, 100)])


class LocalFiltered(_SyncLocal):
    name = "local_filtered"
    why = (
        "LOCAL, 200 .where() subscribers (180 accept ~10 %, 20 accept all; half at "
        "Offer, half at SkiOffer): route lookup, type filtering and rejection dominate"
    )
    events = 5700

    def setup(self) -> None:
        self._build(
            [
                (Offer, is_cheap, 90),
                (SkiOffer, is_cheap, 90),
                (Offer, accept_all, 10),
                (SkiOffer, accept_all, 10),
            ]
        )


# ---------------------------------------------------------------- ASYNC


class AsyncFanout(Workload):
    name = "async_fanout"
    why = (
        "ASYNC, one loop, 100 subscribers (50 plain, 50 coroutine callbacks), await "
        "publish: the second copy of the delivery loop in async_engine.py"
    )
    events = 7200

    def run(self, mark: Mark) -> None:
        asyncio.run(self._run(mark))

    async def _run(self, mark: Mark) -> None:
        from repro.core import AsyncLocalBus, TPSEngine

        bus = AsyncLocalBus()
        self.publisher = TPSEngine(Offer, local_bus=bus).new_interface("ASYNC")
        seqs = expected_seqs(self.corpus, Offer, None)
        awaited = self.awaited
        for index in range(100):
            interface = TPSEngine(Offer, local_bus=bus).new_interface("ASYNC")
            callback = self.oracle.subscriber(seqs, audit_payload=index == 0)
            if index % 2:

                async def coroutine_callback(event: Any, _callback: Any = callback) -> None:
                    _callback(event)
                    awaited[0] += 1

                interface.subscribe(coroutine_callback)
            else:
                interface.subscribe(callback)
        self.cumulative = self.cumulative_expected([(seqs, 100)])
        await self._publish_range(0, self.warm)
        mark("timed_start")
        for lo, hi in self.chunks(self.warm, self.total):
            await self._publish_range(lo, hi)
            mark("chunk")
        mark("timed_end")

    async def _publish_range(self, lo: int, hi: int) -> None:
        publish, corpus, latency = self.publisher.publish, self.corpus, self.latency
        delivered, cumulative, seq_cell = self.oracle.delivered, self.cumulative, self.seq_cell
        late = 0
        for index in range(lo, hi):
            seq_cell[0] = index
            start = perf_counter()
            await publish(corpus[index])
            latency[index] = perf_counter() - start
            if delivered[0] != cumulative[index + 1]:
                late += 1
        seq_cell[0] = -1
        self.late += late


# ----------------------------------------------------------------- JXTA

#: Peer counters summed over every peer of the topology.
_PEER_COUNTERS = (
    "wire_retries",
    "wire_acks_received",
    "wire_out_of_order_held",
    "wire_duplicates_suppressed",
    "wire_stale_retransmits",
    "wire_messages_dropped",
    "endpoint_sent",
    "tps_duplicates_filtered",
)
#: Counters of the simulated network itself.
_NETWORK_COUNTERS = (
    "packets_offered",
    "bytes_carried",
    "faults_dropped",
    "faults_duplicated",
    "faults_delayed",
)


class _Wire(Workload):
    """JXTA binding over the simulated network: rendez-vous + publisher + 2 subscribers.

    The subscriber callback stamps the event's completion; the driver pumps
    ``simulator.step()`` until every expected callback of the oldest
    in-flight event has fired.  (Pumping to ``receipt.completion_time`` is
    sender-side only and overruns the receivers' bounded queue.)
    """

    subscribers = 2
    window = 1
    reliable = False
    min_events = 60

    def setup(self) -> None:
        from repro.core import TPSConfig, TPSEngine
        from repro.jxta.ids import seed_ids
        from repro.jxta.platform import JxtaNetworkBuilder

        # Peer, pipe and group IDs are OS-random unless seeded; they order
        # sets and break ties, so leaving them random makes counts wander.
        seed_ids(self.seed)
        self.builder = builder = JxtaNetworkBuilder(seed=self.seed)
        builder.add_rendezvous("rdv-0")
        shared = {"message_padding": 1910, "reliable_delivery": self.reliable}
        self.publisher = TPSEngine(
            Offer,
            peer=builder.add_peer("bench-pub"),
            config=TPSConfig(search_timeout=2.0, **shared),
        ).new_interface("JXTA")
        builder.settle(rounds=8)
        self.simulator = builder.simulator
        self.pending = array("b", [self.subscribers]) * self.total
        self.published_at = zeros(self.total)
        self.virtual_published_at = zeros(self.total)
        self.virtual_latency = zeros(self.total)
        seqs = expected_seqs(self.corpus, Offer, None)
        self.interfaces.append(self.publisher)
        for index in range(self.subscribers):
            interface = TPSEngine(
                Offer,
                peer=builder.add_peer(f"bench-sub-{index}"),
                config=TPSConfig(search_timeout=6.0, create_if_missing=False, **shared),
            ).new_interface("JXTA")
            interface.subscribe(
                self.oracle.subscriber(
                    seqs, audit_payload=index == 0, on_delivery=self._delivered
                )
            )
            self.interfaces.append(interface)
        builder.settle(rounds=12)
        self._after_settle()

    def _after_settle(self) -> None:
        """Hook: runs once discovery has converged, before the first publish."""

    def _delivered(self, seq: int) -> None:
        left = self.pending[seq] - 1
        self.pending[seq] = left
        if left == 0:
            self.latency[seq] = perf_counter() - self.published_at[seq]
            self.virtual_latency[seq] = self.simulator.now - self.virtual_published_at[seq]

    def publish_range(self, lo: int, hi: int) -> None:
        publish, corpus, seq_cell = self.publisher.publish, self.corpus, self.seq_cell
        published_at, virtual_published_at = self.published_at, self.virtual_published_at
        simulator, window = self.simulator, self.window
        # Events stay in flight across chunk boundaries; the window only
        # drains where a phase (warm-up, timed region) ends.
        floor = 0 if lo < self.warm else self.warm
        for index in range(lo, hi):
            seq_cell[0] = index
            virtual_published_at[index] = simulator.now
            published_at[index] = perf_counter()
            publish(corpus[index])
            seq_cell[0] = -1
            oldest = index - window + 1
            if oldest >= floor:
                self._complete(oldest)
        if hi in (self.warm, self.total):
            for index in range(max(floor, hi - window + 1), hi):
                self._complete(index)

    def _complete(self, index: int) -> None:
        """Pump the simulator until event ``index`` reached every subscriber."""
        pending, simulator = self.pending, self.simulator
        step = simulator.step
        deadline = self.virtual_published_at[index] + WIRE_DEADLINE
        while pending[index] > 0:
            if simulator.now > deadline or not step():
                self.late += 1
                return

    def _registries(self) -> List[Any]:
        return [peer.metrics for peer in self.builder.peers]

    def counts(self) -> Dict[str, float]:
        counts = super().counts()
        for name in _PEER_COUNTERS:
            counts[name] = 0
        for registry in self._registries():
            values = registry.counters()
            for name in _PEER_COUNTERS:
                counts[name] += values.get(name, 0)
        network = self.builder.network.metrics.counters()
        for name in _NETWORK_COUNTERS:
            counts[name] = network.get(name, 0)
        counts["simulator_steps"] = self.simulator.processed
        counts["virtual_s"] = self.simulator.now
        return counts

    def facts(self) -> Dict[str, float]:
        retained = 0
        for registry in self._registries() + [self.builder.network.metrics]:
            retained += sum(len(timer.samples) for timer in registry.timers().values())
            retained += sum(len(series) for series in registry.all_series().values())
        virtual = [value for value in self.virtual_latency[self.warm :] if value > 0.0]
        return {
            "samples_retained": retained,
            "virtual_latency_p50_ms": quantile(virtual, 0.50) * 1e3,
            "virtual_latency_p99_ms": quantile(virtual, 0.99) * 1e3,
        }

    def close(self) -> None:
        from repro.jxta.ids import seed_ids

        super().close()
        seed_ids(None)


class WirePlain(_Wire):
    name = "wire_plain"
    why = (
        "JXTA wire, rendez-vous + publisher + 2 subscriber peers, 1910-byte messages, "
        "no faults, window 1: codec, framing, endpoint, simulated network, parse, dedup"
    )
    events = 1450


class WireLossy(_Wire):
    name = "wire_lossy"
    why = (
        "same topology with reliable_delivery and FaultPlan.chaos, 4 in flight: acks, "
        "retries, dedup, hold-back; exactly-once and per-source order checked"
    )
    events = 1100
    window = 4
    reliable = True

    def _after_settle(self) -> None:
        from repro.net.faults import FaultPlan

        # Installed only after discovery converged, so every fault lands on
        # benchmark traffic (and its acks and retries), not on set-up.
        self.builder.network.fault_plan = FaultPlan.chaos(seed=self.seed)


# -------------------------------------------------------------- durable


class DurableTail(Workload):
    name = "durable_tail"
    why = (
        'LOCAL with history="log": a stream(from_offset=0) consumer drains a backlog '
        "then tails live publishes; log appends beside LogHistory.since reads"
    )
    #: Live events; the backlog written during set-up is four times as many.
    events = 1000
    backlog_factor = 4
    min_events = 20

    @classmethod
    def corpus_size(cls, events: int) -> int:
        return events * (cls.backlog_factor + 1)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.backlog = self.total * self.backlog_factor // (self.backlog_factor + 1)
        # The backlog is written untimed during set-up and is what warms the
        # codec plans; every event is then delivered inside the timed region.
        self.warm = 0
        self.directory: Optional[str] = None
        self.stream: Any = None

    def run(self, mark: Mark) -> None:
        self.setup()
        mark("timed_start")
        self.open_stream()
        mark("chunk")
        for lo, hi in self.chunks(self.backlog, self.total):
            self.publish_range(lo, hi)
            mark("chunk")
        mark("timed_end")

    def setup(self) -> None:
        from repro.core import LocalBus, TPSEngine

        os.makedirs(OUT_DIR, exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="durable-", dir=OUT_DIR)
        bus = LocalBus()
        self.publisher = TPSEngine(Offer, local_bus=bus).new_interface(
            "LOCAL", history="log", history_path=os.path.join(self.directory, "pub")
        )
        self.subscriber = TPSEngine(Offer, local_bus=bus).new_interface(
            "LOCAL", history="log", history_path=os.path.join(self.directory, "sub")
        )
        self.interfaces += [self.publisher, self.subscriber]
        # An interface records received events only while it has a
        # subscription, so a plain callback keeps the backlog flowing into
        # received.log until the stream takes over.
        handle = self.subscriber.subscribe(
            self.oracle.subscriber(range(self.backlog), audit_payload=True)
        )
        publish, corpus = self.publisher.publish, self.corpus
        for index in range(self.backlog):
            publish(corpus[index])
        handle.cancel()
        self.consume = self.oracle.subscriber(range(self.total))

    def open_stream(self) -> None:
        """Open the resumable stream and consume the replayed backlog."""
        self.stream = self.subscriber.stream(from_offset=0)
        consume = self.consume
        for event in self.stream.drain():
            consume(event)

    def publish_range(self, lo: int, hi: int) -> None:
        publish, corpus, latency = self.publisher.publish, self.corpus, self.latency
        consume, seq_cell, get = self.consume, self.seq_cell, self.stream.get
        for index in range(lo, hi):
            seq_cell[0] = index
            start = perf_counter()
            publish(corpus[index])
            event = get(timeout=5.0)
            latency[index] = perf_counter() - start
            consume(event)
        seq_cell[0] = -1

    def counts(self) -> Dict[str, float]:
        counts = super().counts()
        counts["log_bytes"] = _tree_size(self.directory) if self.directory else 0
        return counts

    def close(self) -> None:
        try:
            if self.stream is not None:
                self.stream.close()
            super().close()
        finally:
            if self.directory:
                shutil.rmtree(self.directory, ignore_errors=True)


def _tree_size(directory: str) -> int:
    total = 0
    for root, _, files in os.walk(directory):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


WORKLOADS: Dict[str, Type[Workload]] = {
    cls.name: cls
    for cls in (LocalFanout, LocalFiltered, AsyncFanout, WirePlain, WireLossy, DurableTail)
}
