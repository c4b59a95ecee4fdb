"""The metric catalogue and the reduction of one traced round to per-layer numbers.

Names are ``<layer>.<metric>``; layers are this repo's modules.
``*_self_us`` is a span's self time (duration minus child spans, wrapper
cost calibrated out) summed over the timed region and divided by the timed
events; ``*_per_event`` is a count divided by the timed events.
``BENCHMARK.json`` lists exactly these names; the smoke test keeps the two
in step.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (name, unit, better, bound): what a user of the library sees.  ``bound``
#: is the share of the parent's value by which the metric may get worse.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("events_per_s", "1/s", "higher", 0.15),
    ("cpu_us_per_event", "us", "lower", 0.15),
    ("e2e_p50_us", "us", "lower", 0.15),
    ("e2e_p99_us", "us", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: (name, unit, better): single layers, traced rounds only, no bound.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("object_codec.encode_self_us", "us", "lower"),
    ("object_codec.decode_self_us", "us", "lower"),
    ("object_codec.encode_calls_per_event", "count", "lower"),
    ("object_codec.decode_calls_per_event", "count", "lower"),
    ("object_codec.bytes_per_encode", "bytes", "lower"),
    ("xml_types.encode_self_us", "us", "lower"),
    ("xml_types.decode_self_us", "us", "lower"),
    ("xml_types.event_bytes", "bytes", "lower"),
    ("xml_codec.parse_self_us", "us", "lower"),
    ("xml_codec.to_xml_self_us", "us", "lower"),
    ("xml_codec.parse_calls_per_event", "count", "lower"),
    ("message.to_bytes_self_us", "us", "lower"),
    ("message.from_bytes_self_us", "us", "lower"),
    ("message.to_bytes_calls_per_event", "count", "lower"),
    ("message.from_bytes_calls_per_event", "count", "lower"),
    ("wire.send_self_us", "us", "lower"),
    ("wire.receive_self_us", "us", "lower"),
    ("wire.retries_per_event", "count", "lower"),
    ("wire.acks_per_event", "count", "lower"),
    ("wire.held_per_event", "count", "lower"),
    ("wire.duplicates_per_event", "count", "lower"),
    ("wire.dropped_per_event", "count", "lower"),
    ("endpoint.send_self_us", "us", "lower"),
    ("endpoint.on_packet_self_us", "us", "lower"),
    ("endpoint.envelopes_per_event", "count", "lower"),
    ("network.transmit_self_us", "us", "lower"),
    ("network.packets_per_event", "count", "lower"),
    ("network.bytes_per_event", "bytes", "lower"),
    ("network.virtual_latency_p50_ms", "ms", "lower"),
    ("network.virtual_latency_p99_ms", "ms", "lower"),
    ("simclock.steps_per_event", "count", "lower"),
    ("simclock.step_self_us", "us", "lower"),
    ("faults.dropped", "count", "lower"),
    ("faults.duplicated", "count", "lower"),
    ("faults.delayed", "count", "lower"),
    ("resolver.busy_share", "ratio", "lower"),
    ("resolver.envelopes_per_event", "count", "lower"),
    ("jxta_engine.publish_self_us", "us", "lower"),
    ("jxta_engine.on_wire_message_self_us", "us", "lower"),
    ("jxta_engine.dedup_dropped_per_event", "count", "lower"),
    ("history.ring_append_self_us", "us", "lower"),
    ("history.ring_append_calls_per_event", "count", "lower"),
    ("storage_log.append_self_us", "us", "lower"),
    ("storage_log.since_self_us", "us", "lower"),
    ("storage_log.since_returned_per_call", "count", "higher"),
    ("storage_log.since_us_per_returned", "us", "lower"),
    ("storage_log.fsyncs_per_kevent", "count", "lower"),
    ("storage_log.bytes_per_event", "bytes", "lower"),
    ("local_engine.bus_publish_self_us", "us", "lower"),
    ("local_engine.route_rebuilds", "count", "lower"),
    ("dispatch.callbacks_per_event", "count", "higher"),
    ("dispatch.predicate_calls_per_event", "count", "lower"),
    ("dispatch.predicate_pass_ratio", "ratio", "higher"),
    ("dispatch.self_us_per_delivery", "us", "lower"),
    ("dispatch.harness_callback_us", "us", "lower"),
    ("stream.get_self_us", "us", "lower"),
    ("stream.pump_self_us", "us", "lower"),
    ("async_engine.bus_publish_self_us", "us", "lower"),
    ("async_engine.awaited_per_event", "count", "lower"),
    ("metrics.observe_calls_per_event", "count", "lower"),
    ("metrics.samples_retained", "count", "lower"),
    ("host.calib_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.attributed_share", "ratio", "higher"),
]

#: Per-layer metrics that are counts made by the program or the simulated
#: network: they must repeat exactly between rounds of one seed.
DETERMINISTIC = tuple(
    name
    for name, unit, _ in PER_LAYER
    if unit in ("count", "bytes") or name.startswith("network.virtual_latency")
)

#: Metrics the runner fills in from several rounds (not from one round's trace).
ACROSS_ROUNDS = ("host.calib_ms", "trace.overhead_ratio")


def layer_metrics(
    totals: Dict[str, Dict[str, float]],
    tallies: Dict[str, float],
    counts: Dict[str, float],
    facts: Dict[str, float],
    *,
    timed_events: int,
    timed_wall: float,
    background_step_s: float,
    harness_callback_us: float,
) -> Dict[str, float]:
    """Reduce one traced round to every :data:`PER_LAYER` metric it can know.

    ``totals`` are the tracer's per-span-name sums over the timed region,
    ``tallies`` the counting wrappers' deltas, ``counts`` the workload's
    program-side counter deltas and ``facts`` its round-end observations.
    """
    events = float(timed_events)

    def self_us(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0) * 1e6 / events

    def calls(name: str) -> float:
        return totals.get(name, {}).get("count", 0)

    def per_event(value: float) -> float:
        return value / events

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    callbacks = counts.get("callbacks", 0)
    # The loop that walks the handler rows: TPSSubscriberManager.dispatch on
    # the wire path; inlined into the bus's publish on LOCAL and ASYNC.
    dispatch_self_s = sum(
        totals.get(name, {}).get("self_s", 0.0)
        for name in ("dispatch.dispatch", "local_engine.bus_publish", "async_engine.bus_publish")
    )
    dispatch_self_us = max(0.0, dispatch_self_s * 1e6 - callbacks * harness_callback_us)
    since_returned = tallies.get("storage_log.since.value", 0.0)
    duplicates = counts.get("wire_duplicates_suppressed", 0) + counts.get(
        "wire_stale_retransmits", 0
    )
    metrics: Dict[str, float] = {
        "object_codec.encode_self_us": self_us("object_codec.encode"),
        "object_codec.decode_self_us": self_us("object_codec.decode"),
        "object_codec.encode_calls_per_event": per_event(calls("object_codec.encode")),
        "object_codec.decode_calls_per_event": per_event(calls("object_codec.decode")),
        "object_codec.bytes_per_encode": ratio(
            tallies.get("object_codec.encode.value", 0.0), calls("object_codec.encode")
        ),
        "xml_types.encode_self_us": self_us("xml_types.encode"),
        "xml_types.decode_self_us": self_us("xml_types.decode"),
        "xml_types.event_bytes": ratio(
            tallies.get("xml_types.encode.value", 0.0), calls("xml_types.encode")
        ),
        "xml_codec.parse_self_us": self_us("xml_codec.parse"),
        "xml_codec.to_xml_self_us": self_us("xml_codec.to_xml"),
        "xml_codec.parse_calls_per_event": per_event(calls("xml_codec.parse")),
        "message.to_bytes_self_us": self_us("message.to_bytes"),
        "message.from_bytes_self_us": self_us("message.from_bytes"),
        "message.to_bytes_calls_per_event": per_event(calls("message.to_bytes")),
        "message.from_bytes_calls_per_event": per_event(calls("message.from_bytes")),
        "wire.send_self_us": self_us("wire.send"),
        "wire.receive_self_us": self_us("wire.receive"),
        "wire.retries_per_event": per_event(counts.get("wire_retries", 0)),
        "wire.acks_per_event": per_event(counts.get("wire_acks_received", 0)),
        "wire.held_per_event": per_event(counts.get("wire_out_of_order_held", 0)),
        "wire.duplicates_per_event": per_event(duplicates),
        "wire.dropped_per_event": per_event(counts.get("wire_messages_dropped", 0)),
        "endpoint.send_self_us": self_us("endpoint.send"),
        "endpoint.on_packet_self_us": self_us("endpoint.on_packet"),
        "endpoint.envelopes_per_event": per_event(counts.get("endpoint_sent", 0)),
        "network.transmit_self_us": self_us("network.transmit"),
        "network.packets_per_event": per_event(counts.get("packets_offered", 0)),
        "network.bytes_per_event": per_event(counts.get("bytes_carried", 0)),
        "network.virtual_latency_p50_ms": facts.get("virtual_latency_p50_ms", 0.0),
        "network.virtual_latency_p99_ms": facts.get("virtual_latency_p99_ms", 0.0),
        "simclock.steps_per_event": per_event(counts.get("simulator_steps", 0)),
        "simclock.step_self_us": self_us("simclock.step"),
        "faults.dropped": counts.get("faults_dropped", 0),
        "faults.duplicated": counts.get("faults_duplicated", 0),
        "faults.delayed": counts.get("faults_delayed", 0),
        "resolver.busy_share": ratio(background_step_s, timed_wall),
        "resolver.envelopes_per_event": per_event(calls("resolver.on_envelope")),
        "jxta_engine.publish_self_us": self_us("jxta_engine.publish"),
        "jxta_engine.on_wire_message_self_us": self_us("jxta_engine.on_wire_message"),
        "jxta_engine.dedup_dropped_per_event": per_event(
            counts.get("tps_duplicates_filtered", 0)
        ),
        "history.ring_append_self_us": self_us("history.ring_append"),
        "history.ring_append_calls_per_event": per_event(calls("history.ring_append")),
        "storage_log.append_self_us": self_us("storage_log.append"),
        "storage_log.since_self_us": self_us("storage_log.since"),
        "storage_log.since_returned_per_call": ratio(since_returned, calls("storage_log.since")),
        "storage_log.since_us_per_returned": ratio(
            totals.get("storage_log.since", {}).get("self_s", 0.0) * 1e6, since_returned
        ),
        "storage_log.fsyncs_per_kevent": per_event(tallies.get("storage_log.fsyncs", 0.0))
        * 1e3,
        "storage_log.bytes_per_event": per_event(counts.get("log_bytes", 0)),
        "local_engine.bus_publish_self_us": self_us("local_engine.bus_publish"),
        "local_engine.route_rebuilds": tallies.get("local_engine.route_rebuilds", 0.0),
        "dispatch.callbacks_per_event": per_event(callbacks),
        "dispatch.predicate_calls_per_event": per_event(counts.get("predicate_calls", 0)),
        "dispatch.predicate_pass_ratio": ratio(
            counts.get("predicate_passes", 0), counts.get("predicate_calls", 0)
        ),
        "dispatch.self_us_per_delivery": ratio(dispatch_self_us, callbacks),
        "dispatch.harness_callback_us": harness_callback_us,
        "stream.get_self_us": self_us("stream.get"),
        "stream.pump_self_us": self_us("stream.pump"),
        "async_engine.bus_publish_self_us": self_us("async_engine.bus_publish"),
        "async_engine.awaited_per_event": per_event(counts.get("awaited", 0)),
        "metrics.observe_calls_per_event": per_event(tallies.get("metrics.observe_calls", 0.0)),
        "metrics.samples_retained": facts.get("samples_retained", 0),
        "trace.attributed_share": ratio(
            sum(entry["root_s"] for entry in totals.values()), timed_wall
        ),
    }
    return metrics

