"""Span tracing of :mod:`repro`'s layer boundaries, from outside ``src/``.

:func:`install` wraps the public entry points of each layer *at class level*
(and the module-level ``parse_xml``/``to_xml`` functions in every module that
imported them) before the workload builds its topology, so bound methods the
program stores later (route rows, endpoint listeners, history ``encode``
hooks) already resolve to the wrappers.  Nothing under ``src/`` is edited.

A span is ``(name, start, end, parent, event_seq)``, kept in parallel
preallocated-growth ``array`` columns (28 bytes per span instead of a tuple
per span: ``local_fanout`` records ~200 spans per event).  ``parent`` is the
index of the enclosing open span; ``event_seq`` is the benchmark event that
*caused* the span: the harness sets :attr:`Tracer.seq` around each publish
and the ``Simulator.schedule_at`` wrapper carries it across the simulated
network's deferred callbacks, so the deliver/receive/ack/retry steps of
event *n* are tagged *n* while background discovery traffic stays ``-1``.

Self time of a span is its duration minus the time its direct children
cover.  Each wrapper costs about a microsecond, part of it inside the
measured interval and part of it in the parent's; :meth:`Tracer.calibrate`
measures both on a no-op and :meth:`Tracer.totals` subtracts them, which
matters where a 40 us publish contains 100 history appends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: How many spans of the timed region a span file keeps (totals cover all).
SPAN_FILE_LIMIT = 20000


class Tracer:
    """In-memory span and counter store for one traced round."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.seqs = array("q")
        #: Indices of the currently open spans, innermost last.
        self.stack: List[int] = []
        #: The benchmark event whose publish is running (``[-1]`` between
        #: publishes); a one-element list so hot loops can write it cheaply.
        self.seq: List[int] = [-1]
        #: Plain tallies kept by the counting wrappers and value hooks.
        self.counters: Dict[str, float] = {}
        #: Calibrated per-span wrapper cost, seconds: the part that lands
        #: inside the span's own interval, and the part its parent sees.
        self.overhead_inside = 0.0
        self.overhead_outside = 0.0
        self._restore: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------- wrappers

    def name_id(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
        return found

    def span(
        self,
        name: str,
        fn: Callable[..., Any],
        measure: Optional[Callable[[Any], float]] = None,
    ) -> Callable[..., Any]:
        """Wrap ``fn`` so every call records one span named ``name``.

        ``measure(result)`` optionally adds a number derived from the return
        value to ``counters[name + ".value"]`` (bytes encoded, entries read).
        """
        nid = self.name_id(name)
        add_name, add_start, add_end = self.name_ids.append, self.starts.append, self.ends.append
        add_parent, add_seq = self.parents.append, self.seqs.append
        ends, stack, seq, starts = self.ends, self.stack, self.seq, self.starts
        counters, value_key = self.counters, name + ".value"

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                index = len(starts)
                add_name(nid)
                add_parent(stack[-1] if stack else -1)
                add_seq(seq[0])
                add_end(0.0)
                stack.append(index)
                add_start(perf_counter())
                try:
                    return await fn(*args, **kwargs)
                finally:
                    ends[index] = perf_counter()
                    stack.pop()

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_seq(seq[0])
            add_end(0.0)
            stack.append(index)
            add_start(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if measure is not None:
                counters[value_key] = counters.get(value_key, 0.0) + measure(result)
            return result

        return wrapper

    def count(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap ``fn`` so every call bumps ``counters[name]`` (no span)."""
        counters = self.counters
        counters.setdefault(name, 0.0)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------ patching

    def patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``make(original)``; undone by :meth:`uninstall`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement: Any = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Put every patched attribute back (idempotent)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------- calibration

    def calibrate(self, calls: int = 2000) -> None:
        """Measure the wrapper's own cost on a no-op, inside and outside."""
        child = self.span("trace.calibration_child", lambda: None)

        def parent_body() -> None:
            for _ in range(calls):
                child()

        first = len(self.starts)
        self.span("trace.calibration_parent", parent_body)()
        parent_duration = self.ends[first] - self.starts[first]
        inside = sorted(
            self.ends[index] - self.starts[index]
            for index in range(first + 1, first + 1 + calls)
        )[calls // 2]
        self.overhead_inside = inside
        self.overhead_outside = max(0.0, parent_duration / calls - inside)

    # ------------------------------------------------------------ reduction

    def totals(self, first: int = 0) -> Dict[str, Dict[str, float]]:
        """Per-name ``count``/``total_s``/``self_s`` of spans ``first`` onwards.

        ``self_s`` is duration minus direct children, minus the calibrated
        wrapper cost (its own inside part, its children's outside part),
        floored at zero per name.  ``root_s`` is the time of spans with no
        parent: what the trace attributes to *some* named layer.
        """
        starts, ends, parents, name_ids = self.starts, self.ends, self.parents, self.name_ids
        size = len(starts)
        child_time = [0.0] * (size - first)
        child_count = [0] * (size - first)
        for index in range(first, size):
            parent = parents[index]
            if parent >= first:
                child_time[parent - first] += ends[index] - starts[index]
                child_count[parent - first] += 1
        names = len(self.names)
        count = [0] * names
        total = [0.0] * names
        self_time = [0.0] * names
        children = [0] * names
        root = [0.0] * names
        for index in range(first, size):
            nid = name_ids[index]
            duration = ends[index] - starts[index]
            count[nid] += 1
            total[nid] += duration
            self_time[nid] += duration - child_time[index - first]
            children[nid] += child_count[index - first]
            if parents[index] < first:
                root[nid] += duration
        result: Dict[str, Dict[str, float]] = {}
        for nid, name in enumerate(self.names):
            if not count[nid]:
                continue
            adjusted = (
                self_time[nid]
                - count[nid] * self.overhead_inside
                - children[nid] * self.overhead_outside
            )
            result[name] = {
                "count": count[nid],
                "total_s": total[nid],
                "self_s": max(0.0, adjusted),
                "raw_self_s": self_time[nid],
                "root_s": root[nid],
            }
        return result

    def seq_time(self, name: str, first: int, *, tagged: bool) -> float:
        """Summed duration of ``name`` spans caused (or not) by a benchmark event."""
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        starts, ends, seqs, name_ids = self.starts, self.ends, self.seqs, self.name_ids
        return sum(
            ends[index] - starts[index]
            for index in range(first, len(starts))
            if name_ids[index] == nid and (seqs[index] >= 0) == tagged
        )

    def write(
        self,
        path: str,
        first: int,
        origin: float,
        totals: Dict[str, Dict[str, float]],
        extra: Dict[str, Any],
    ) -> None:
        """Write the timed region's spans (capped) and their ``totals`` as JSON."""
        size = len(self.starts)
        kept = min(size, first + SPAN_FILE_LIMIT)
        document = dict(extra)
        document.update(
            {
                "schema": "tpsbench-trace/v1",
                "columns": ["name", "start_us", "end_us", "parent", "event_seq"],
                "names": self.names,
                "spans_total": size - first,
                "spans_written": kept - first,
                "wrapper_overhead_us": {
                    "inside": self.overhead_inside * 1e6,
                    "outside": self.overhead_outside * 1e6,
                },
                "totals": totals,
                "spans": [
                    [
                        self.name_ids[index],
                        round((self.starts[index] - origin) * 1e6, 3),
                        round((self.ends[index] - origin) * 1e6, 3),
                        self.parents[index] - first if self.parents[index] >= first else -1,
                        self.seqs[index],
                    ]
                    for index in range(first, kept)
                ],
            }
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


def _rebind_function(tracer: Tracer, module: Any, attr: str, name: str) -> None:
    """Wrap a module-level function in its home module and every importer.

    ``from repro.serialization.xml_codec import parse_xml`` copies the
    function into the importing module's globals, so patching the home
    module alone would miss those call sites.
    """
    original = getattr(module, attr)
    wrapped = tracer.span(name, original)
    for candidate in list(sys.modules.values()):
        module_name = getattr(candidate, "__name__", "")
        if not module_name.startswith("repro"):
            continue
        if candidate.__dict__.get(attr) is original:
            tracer.patch(candidate, attr, lambda _original, _wrapped=wrapped: _wrapped)


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points listed in the README's span table.

    Must run after ``repro`` is importable and before the workload creates
    any engine, peer or bus.
    """
    from repro.core import async_engine, history, jxta_engine, local_engine
    from repro.core import subscriber, subscriptions, xml_types
    from repro.jxta import endpoint, message, resolver, wire
    from repro.net import metrics, network, simclock
    from repro.serialization import object_codec, xml_codec
    from repro.storage import log

    spans = [
        (object_codec.ObjectCodec, "encode", "object_codec.encode", len),
        (object_codec.ObjectCodec, "decode", "object_codec.decode", None),
        (xml_types.XmlEventCodec, "encode", "xml_types.encode", len),
        (xml_types.XmlEventCodec, "decode", "xml_types.decode", None),
        (message.Message, "to_bytes", "message.to_bytes", None),
        (message.Message, "from_bytes", "message.from_bytes", None),
        (wire.WireService, "send", "wire.send", None),
        (wire.WireService, "_on_wire_envelope", "wire.receive", None),
        (wire.WireService, "_on_ack_envelope", "wire.on_ack", None),
        (endpoint.EndpointService, "send", "endpoint.send", None),
        (endpoint.EndpointService, "_on_packet", "endpoint.on_packet", None),
        (network.Network, "transmit", "network.transmit", None),
        (simclock.Simulator, "step", "simclock.step", None),
        (resolver.ResolverService, "_on_envelope", "resolver.on_envelope", None),
        (jxta_engine.JxtaTPSEngine, "publish", "jxta_engine.publish", None),
        (jxta_engine.JxtaTPSEngine, "_on_wire_message", "jxta_engine.on_wire_message", None),
        (history.RingHistory, "append", "history.ring_append", None),
        (log.LogHistory, "append", "storage_log.append", None),
        (log.LogHistory, "since", "storage_log.since", len),
        (local_engine.LocalTPSEngine, "publish", "local_engine.publish", None),
        (local_engine.LocalBus, "publish", "local_engine.bus_publish", None),
        (async_engine.AsyncTPSEngine, "publish", "async_engine.publish", None),
        (async_engine.AsyncLocalBus, "publish", "async_engine.bus_publish", None),
        (subscriber.TPSSubscriberManager, "dispatch", "dispatch.dispatch", None),
        (subscriptions.EventStream, "get", "stream.get", None),
        (subscriptions.EventStream, "_pump", "stream.pump", None),
    ]
    for owner, attr, name, measure in spans:
        tracer.patch(
            owner,
            attr,
            lambda original, _name=name, _measure=measure: tracer.span(
                _name, original, _measure
            ),
        )
    _rebind_function(tracer, xml_codec, "parse_xml", "xml_codec.parse")
    _rebind_function(tracer, xml_codec, "to_xml", "xml_codec.to_xml")

    counts = [
        (metrics.Timer, "observe", "metrics.observe_calls"),
        (metrics.TimeSeries, "record", "metrics.observe_calls"),
        (log.LogHistory, "_sync_locked", "storage_log.fsyncs"),
    ]
    for owner, attr, name in counts:
        tracer.patch(
            owner, attr, lambda original, _name=name: tracer.count(_name, original)
        )
    for bus in (local_engine.LocalBus, async_engine.AsyncLocalBus):
        tracer.patch(bus, "_route", lambda original: _route_rebuild_counter(tracer, original))
    tracer.patch(
        simclock.Simulator, "schedule_at", lambda original: _causal_schedule(tracer, original)
    )


def _route_rebuild_counter(tracer: Tracer, original: Callable[..., Any]) -> Callable[..., Any]:
    """Count route-row tuples ``_route`` hands out for the first time.

    A row tuple is immutable and cached per (root, class); a new identity
    for a known key means an attach/detach invalidated and rebuilt it.
    """
    counters = tracer.counters
    counters.setdefault("local_engine.route_rebuilds", 0.0)
    last: Dict[Tuple[int, str, type], Any] = {}

    @functools.wraps(original)
    def wrapper(self: Any, root: str, event_class: type) -> Any:
        rows = original(self, root, event_class)
        key = (id(self), root, event_class)
        if last.get(key) is not rows:
            last[key] = rows
            counters["local_engine.route_rebuilds"] += 1
        return rows

    return wrapper


def _causal_schedule(tracer: Tracer, original: Callable[..., Any]) -> Callable[..., Any]:
    """Carry the current event ``seq`` into callbacks the simulator defers."""
    seq, stack, seqs = tracer.seq, tracer.stack, tracer.seqs

    @functools.wraps(original)
    def schedule_at(self: Any, time: float, callback: Callable[[], None], *, label: str = "") -> Any:
        cause = seq[0]
        if cause < 0:
            return original(self, time, callback, label=label)

        def caused() -> None:
            seq[0] = cause
            if stack:
                # The enclosing open span is the Simulator.step firing us;
                # it started before the cause was known, so tag it now.
                seqs[stack[-1]] = cause
            try:
                callback()
            finally:
                seq[0] = -1

        return original(self, time, caused, label=label)

    return schedule_at
