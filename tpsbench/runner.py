"""Spawns the workers, gates host noise, and reduces rounds to one value.

One OS process measures at a time: the runner starts a fresh worker per
(workload, round), waits for it, and only then starts the next, round-robin
over the workloads so slow phases of the host spread over all of them.  The
rounds of one seed do identical work; :func:`robust_values` says how they
become one number per metric.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Callable, Dict, Iterable, List, Sequence

from tpsbench import OUT_DIR, REPO_ROOT
from tpsbench.layers import ACROSS_ROUNDS, DETERMINISTIC, END_TO_END, PER_LAYER
from tpsbench.workloads import TRACE_ONLY_COUNTS, WORKLOADS

SCHEMA = "tpsbench/v1"
#: ``--seconds`` of the reference run the workloads' event counts are sized for.
REFERENCE_SECONDS = 10.0
DEFAULT_ROUNDS = 7
#: A traced round runs this fraction of the events (a span costs memory and
#: about a microsecond; ``local_fanout`` records ~200 spans per event).
TRACE_DIVISOR = 4
#: A round whose calibration is further than this from the set's median gets
#: an extra round run after it, at most this many per workload.
NOISE_TOLERANCE = 0.10
MAX_EXTRA_ROUNDS = 2
#: Seconds one worker may take before the runner gives up on it.
WORKER_TIMEOUT = 150.0


class WorkerError(RuntimeError):
    """A worker exited non-zero or printed no result."""


def events_for(name: str, seconds: float, *, traced: bool) -> int:
    """The fixed event count of one round: the reference count scaled by ``seconds``."""
    cls = WORKLOADS[name]
    events = int(round(cls.events * seconds / REFERENCE_SECONDS))
    if traced:
        events //= TRACE_DIVISOR
    return max(cls.min_events, events)


def run_worker(
    name: str, seed: int, events: int, *, traced: bool, trace_dir: str = OUT_DIR
) -> Dict[str, Any]:
    """Run one round in a fresh interpreter and return its result document."""
    command = [
        sys.executable, "-m", "tpsbench.worker",
        "--workload", name, "--seed", str(seed), "--events", str(events),
        "--trace", "1" if traced else "0",
        "--trace-out", os.path.join(trace_dir, f"trace-{name}.json"),
    ]
    # A fixed hash seed keeps set iteration order -- and with it the
    # simulated network's event order -- identical from process to process.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            command, cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT,
        )
    except subprocess.TimeoutExpired as error:
        raise WorkerError(f"{name}: worker exceeded {WORKER_TIMEOUT:.0f} s") from error
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise WorkerError(
            f"{name}: worker exited {done.returncode}\n{done.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


#: ``worker(name, seed, events, traced=...)`` -> one round's result document.
#: The smoke test substitutes an in-process one to stay fast.
Worker = Callable[..., Dict[str, Any]]


def interquartile_share(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median (0 below two values)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def run_pass(
    names: Sequence[str],
    seed: int,
    seconds: float,
    rounds: int,
    *,
    traced: bool,
    log: Any = None,
    worker: Worker = run_worker,
) -> Dict[str, Dict[str, Any]]:
    """One pass over ``names``: ``rounds`` rounds each, round-robin, plus noise make-ups.

    In a traced pass even rounds record spans and odd rounds do not (same
    reduced size), which is what ``trace.overhead_ratio`` compares; a traced
    pass therefore runs at least two rounds.
    """
    if traced:
        rounds = max(2, rounds)
    results: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for index in range(rounds):
        for name in names:
            spans = traced and index % 2 == 0
            events = events_for(name, seconds, traced=traced)
            results[name].append(worker(name, seed, events, traced=spans))
            if log:
                log(f"  {name} round {index + 1}/{rounds}{' (spans)' if spans else ''}")
    calibration = statistics.median(
        one["calib_ms"] for per_name in results.values() for one in per_name
    )
    # A round that started on a slow host is kept (its counts and deliveries
    # are as good as any, and a slow round cannot hurt a fastest-of reduction)
    # but is made up for with one more round.
    extra = {}
    for name in names:
        noisy = [
            one for one in results[name]
            if abs(one["calib_ms"] - calibration) > NOISE_TOLERANCE * calibration
        ]
        extra[name] = min(len(noisy), MAX_EXTRA_ROUNDS)
        for one in noisy[:MAX_EXTRA_ROUNDS]:
            results[name].append(worker(name, seed, one["events"], traced=one["traced"]))
            if log:
                log(f"  {name} extra round (host noise)")
    return {name: summarise(results[name], extra[name], traced=traced) for name in names}


def quiet(values: Iterable[float]) -> float:
    """One piece's time on a quiet host: the fastest of the rounds.

    This host alternates between a fast state and one about 1.45 times
    slower, in phases of half a second to ten seconds that steal accounting
    does not show, and over minutes the slow state's share drifts between
    nothing and more than half.  The noise only ever adds time and every
    round does identical work, so what repeats from run to run is the fast
    state, and the least-disturbed round is the best estimate of it (the
    ``timeit`` argument).  Medians and lower quartiles over rounds were
    tried first; their run-to-run spread was two to five times wider.
    """
    return min(values)


def robust_values(rounds: List[Dict[str, Any]]) -> Dict[str, float]:
    """Throughput, CPU cost and latency quantiles, reduced piece by piece.

    Every round of one seed does the same work in the same order, so instead
    of reducing the rounds' totals, each chunk of the timed region (and each
    window of the latency samples) is reduced over the rounds on its own
    (:func:`quiet`), and the pieces are then summed (averaged for the
    quantiles): a slow phase of the host costs one piece of one round
    instead of the round.
    """
    timed = rounds[0]["timed_events"]
    chunks = range(len(rounds[0]["chunk_wall_s"]))
    windows = range(len(rounds[0]["window_p99_us"]))

    def over_windows(key: str) -> float:
        return statistics.fmean(quiet(one[key][w] for one in rounds) for w in windows)

    return {
        "events_per_s": timed / sum(quiet(one["chunk_wall_s"][c] for one in rounds) for c in chunks),
        "cpu_us_per_event": sum(quiet(one["chunk_cpu_s"][c] for one in rounds) for c in chunks)
        / timed
        * 1e6,
        "e2e_p50_us": over_windows("window_p50_us"),
        "e2e_p99_us": over_windows("window_p99_us"),
    }


def summarise(rounds: List[Dict[str, Any]], extra: int, *, traced: bool) -> Dict[str, Any]:
    """Reduce one workload's rounds to values, tallies and a verdict."""
    plain = [one for one in rounds if not one["traced"]]
    spanned = [one for one in rounds if one["traced"]]
    summary: Dict[str, Any] = {
        "events_per_round": rounds[0]["events"],
        "timed_events_per_round": rounds[0]["timed_events"],
        "latency_samples_per_round": rounds[0]["latency_samples"],
        "rounds": len(rounds),
        "extra_rounds": extra,
        "calib_ms": [one["calib_ms"] for one in rounds],
        "attempted": sum(one["oracle"]["expected"] for one in rounds),
        "failed": sum(one["oracle"]["failed"] for one in rounds),
        "late": sum(one["late"] for one in rounds),
        "oracle": rounds[0]["oracle"],
        "counts": rounds[0]["counts"],
    }
    summary["failed_share"] = summary["failed"] / max(1, summary["attempted"])
    # Tracing must not change what the program does, so every round of one
    # size and seed -- spans or not -- must make the same counts.
    unequal = []
    for key in sorted(rounds[0]["counts"]):
        pool = spanned if key in TRACE_ONLY_COUNTS else rounds
        if any(one["counts"][key] != pool[0]["counts"][key] for one in pool):
            unequal.append(key)
    if not traced:
        robust = robust_values(plain)
        without_one = [
            robust_values(plain[:index] + plain[index + 1 :]) for index in range(len(plain))
        ] if len(plain) > 1 else []
        summary["end_to_end"] = {}
        for metric, unit, _, _ in END_TO_END:
            values = [one["end_to_end"][metric] for one in plain]
            if metric in robust:
                value = robust[metric]
                reach = [value] + [other[metric] for other in without_one]
                spread = (max(reach) - min(reach)) / value
            else:
                value = statistics.median(values)
                spread = interquartile_share(values)
            summary["end_to_end"][metric] = {
                "value": value, "unit": unit, "spread": spread, "values": values,
            }
    else:
        per_layer: Dict[str, float] = {}
        for metric, unit, _ in PER_LAYER:
            if metric in ACROSS_ROUNDS:
                continue
            values = [one["per_layer"][metric] for one in spanned]
            # Times reduce like the end-to-end times; counts and ratios by median.
            per_layer[metric] = quiet(values) if unit == "us" else statistics.median(values)
            if metric in DETERMINISTIC and any(value != values[0] for value in values):
                unequal.append(metric)
        per_layer["host.calib_ms"] = statistics.median(one["calib_ms"] for one in rounds)
        per_layer["trace.overhead_ratio"] = quiet(
            one["end_to_end"]["cpu_us_per_event"] for one in spanned
        ) / quiet(one["end_to_end"]["cpu_us_per_event"] for one in plain)
        summary["per_layer"] = per_layer
    summary["nondeterministic"] = unequal
    summary["correct"] = not (summary["failed"] or summary["late"] or unequal)
    return summary


def host_info() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def run_document(
    names: Iterable[str],
    seed: int,
    seconds: float,
    rounds: int,
    *,
    trace: bool,
    log: Any = None,
    worker: Worker = run_worker,
) -> Dict[str, Any]:
    """The full result document: the untraced pass, plus a traced pass on request."""
    names = list(names)
    document: Dict[str, Any] = {
        "schema": SCHEMA,
        "seed": seed,
        "seconds": seconds,
        "rounds": rounds,
        "host": host_info(),
        "workloads": run_pass(
            names, seed, seconds, rounds, traced=False, log=log, worker=worker
        ),
    }
    if trace:
        traced = run_pass(names, seed, seconds, rounds, traced=True, log=log, worker=worker)
        for name in names:
            entry = document["workloads"][name]
            entry["per_layer"] = traced[name]["per_layer"]
            entry["traced_events_per_round"] = traced[name]["events_per_round"]
            entry["trace_file"] = os.path.relpath(
                os.path.join(OUT_DIR, f"trace-{name}.json"), REPO_ROOT
            )
            for key in ("nondeterministic", "failed", "attempted", "late"):
                entry[key] += traced[name][key]
            entry["failed_share"] = entry["failed"] / max(1, entry["attempted"])
            entry["correct"] = entry["correct"] and traced[name]["correct"]
    return document


def load_document(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} result document")
    return document


def write_document(path: str, document: Dict[str, Any]) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
