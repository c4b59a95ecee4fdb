"""One round of one workload, in a fresh process.

``python3 -m tpsbench.worker --workload W --seed S --events N --trace 0|1``
runs the host calibration loop, generates the corpus, then starts the
set-up clock *before* ``import repro`` and walks the workload through
set-up, warm-up and the timed region.  The last line of standard output is
one JSON object: the round's end-to-end metrics, the oracle's tallies, the
program-side counts and -- in a traced round -- the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from tpsbench import add_repro_to_path
from tpsbench.events import make_corpus
from tpsbench.oracle import DeliveryOracle
from tpsbench.workloads import WORKLOADS, quantile


#: Latency samples per window: the latency quantiles are taken window by
#: window (at least five samples beyond each p99) so that one slow phase of
#: the host moves one window of one round, not the whole round.
LATENCY_WINDOW = 500


def calibrate() -> float:
    """A fixed pure-Python loop; its wall time (ms) gauges the host's speed now.

    Best of three passes: the gate compares rounds, so a pass that lost its
    time slice must not read as a slow host.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for index in range(200000):
            total += index * index % 7
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def harness_callback_cost(corpus: Sequence[Any]) -> float:
    """Cost (us) of the oracle's own callback, to subtract from dispatch.

    Mean over up to 2000 calls, fastest of five passes (see ``runner.quiet``).
    """
    sample = corpus[: min(len(corpus), 2000)]
    best = float("inf")
    for _ in range(5):
        callback = DeliveryOracle(corpus).subscriber(range(len(sample)))
        start = time.perf_counter()
        for event in sample:
            callback(event)
        best = min(best, time.perf_counter() - start)
    return best / len(sample) * 1e6


def run_round(
    workload_name: str,
    seed: int,
    events: int,
    *,
    trace: bool = False,
    trace_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one round in this process and return its result document."""
    calib_ms = calibrate()
    cls = WORKLOADS[workload_name]
    corpus = make_corpus(seed, cls.corpus_size(events))
    gc.collect()
    entry = time.perf_counter()
    add_repro_to_path()
    import repro  # noqa: F401 - the import is part of the measured set-up

    tracer = None
    if trace:
        from tpsbench.trace import Tracer, install

        tracer = Tracer()
    workload = cls(corpus, seed, tracer.seq if tracer else [-1], tracing=trace)
    stamps: Dict[str, Any] = {}
    chunk_stamps: List[Tuple[float, float]] = []

    def mark(phase: str) -> None:
        if phase == "chunk":
            chunk_stamps.append((time.perf_counter(), time.process_time()))
        elif phase == "timed_start":
            gc.collect()
            stamps["counts_start"] = workload.counts()
            stamps["first_span"] = len(tracer.starts) if tracer else 0
            stamps["tally_start"] = dict(tracer.counters) if tracer else {}
            stamps["cpu_start"] = time.process_time()
            stamps["wall_start"] = time.perf_counter()
        else:
            stamps["wall_end"] = time.perf_counter()
            stamps["cpu_end"] = time.process_time()
            stamps["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            stamps["counts_end"] = workload.counts()

    try:
        if tracer is not None:
            install(tracer)
            tracer.calibrate()
        workload.run(mark)
        wall = stamps["wall_end"] - stamps["wall_start"]
        cpu = stamps["cpu_end"] - stamps["cpu_start"]
        timed = workload.timed_events
        samples = workload.latency_samples
        edges = [(stamps["wall_start"], stamps["cpu_start"])] + chunk_stamps
        pieces = max(1, len(samples) // LATENCY_WINDOW)
        windows = [
            samples[len(samples) * index // pieces : len(samples) * (index + 1) // pieces]
            for index in range(pieces)
        ]
        oracle = workload.oracle.finish(workload.total)
        counts = {
            key: stamps["counts_end"][key] - stamps["counts_start"][key]
            for key in stamps["counts_end"]
        }
        result: Dict[str, Any] = {
            "workload": workload_name,
            "seed": seed,
            "events": events,
            "traced": trace,
            "timed_events": timed,
            "latency_samples": len(samples),
            "calib_ms": calib_ms,
            "late": workload.late,
            "oracle": oracle,
            "counts": counts,
            # Raw material of the runner's piece-by-piece reduction over rounds.
            "chunk_wall_s": [after[0] - before[0] for before, after in zip(edges, edges[1:])],
            "chunk_cpu_s": [after[1] - before[1] for before, after in zip(edges, edges[1:])],
            "window_p50_us": [quantile(window, 0.50) * 1e6 for window in windows],
            "window_p99_us": [quantile(window, 0.99) * 1e6 for window in windows],
            "end_to_end": {
                "setup_s": stamps["wall_start"] - entry,
                "events_per_s": timed / wall,
                "cpu_us_per_event": cpu / timed * 1e6,
                "e2e_p50_us": quantile(samples, 0.50) * 1e6,
                "e2e_p99_us": quantile(samples, 0.99) * 1e6,
                "peak_rss_mb": stamps["rss_kb"] / 1024.0,
            },
        }
        if tracer is not None:
            from tpsbench.layers import layer_metrics

            tallies = {
                key: value - stamps["tally_start"].get(key, 0.0)
                for key, value in tracer.counters.items()
            }
            totals = tracer.totals(stamps["first_span"])
            result["per_layer"] = layer_metrics(
                totals,
                tallies,
                counts,
                workload.facts(),
                timed_events=timed,
                timed_wall=wall,
                background_step_s=tracer.seq_time(
                    "simclock.step", stamps["first_span"], tagged=False
                ),
                harness_callback_us=harness_callback_cost(corpus),
            )
            if trace_path:
                os.makedirs(os.path.dirname(trace_path), exist_ok=True)
                tracer.write(
                    trace_path,
                    stamps["first_span"],
                    stamps["wall_start"],
                    totals,
                    {
                        "workload": workload_name,
                        "seed": seed,
                        "timed_events": timed,
                        "timed_wall_us": wall * 1e6,
                    },
                )
        return result
    finally:
        try:
            workload.close()
        finally:
            if tracer is not None:
                tracer.uninstall()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="tpsbench.worker", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--events", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None, help="span file of a traced round")
    args = parser.parse_args(argv)
    result = run_round(
        args.workload, args.seed, args.events, trace=bool(args.trace), trace_path=args.trace_out
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
