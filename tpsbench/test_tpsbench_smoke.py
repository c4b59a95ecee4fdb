"""Tier-1 smoke of the benchmark: shape, oracle, determinism gate, comparator.

Runs every workload at about 1 % of its reference size, in-process (the
runner's worker is substituted, so no interpreter start-ups); the traced
pass and the driver's command line use real workers, because only a fresh
process restarts the program's message-id counters and so repeats its
counts exactly.  No assertion here depends on how fast the host is.
"""

from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys

import pytest

from tpsbench import REPO_ROOT
from tpsbench.compare import compare
from tpsbench.events import make_corpus
from tpsbench.layers import DETERMINISTIC, END_TO_END, PER_LAYER
from tpsbench.oracle import DeliveryOracle
from tpsbench.runner import run_document, run_pass, run_worker, summarise
from tpsbench.worker import run_round
from tpsbench.workloads import WORKLOADS

SMOKE_SECONDS = 0.1
#: Workloads whose traced pass the smoke covers: the wire path, the log
#: path, and the one whose predicates only a traced round counts.
TRACED = ["wire_plain", "durable_tail", "local_filtered"]


def quiet_host(result):
    """Pin the calibration so the host-noise gate never adds rounds here."""
    result["calib_ms"] = 1.0
    return result


@pytest.fixture(scope="module")
def smoke_document(tmp_path_factory):
    trace_dir = tmp_path_factory.mktemp("tpsbench-trace")

    def in_process(name, seed, events, *, traced):
        path = str(trace_dir / f"trace-{name}.json") if traced else None
        return quiet_host(run_round(name, seed, events, trace=traced, trace_path=path))

    def fresh_process(name, seed, events, *, traced):
        return quiet_host(run_worker(name, seed, events, traced=traced, trace_dir=str(trace_dir)))

    document = run_document(
        WORKLOADS, 7, SMOKE_SECONDS, 1, trace=False, worker=in_process
    )
    # The wire and log workloads need fresh processes to repeat their counts
    # (message-id counters are process-global); LOCAL does not.
    traced = run_pass(
        TRACED[:2], 7, SMOKE_SECONDS, 2, traced=True,
        worker=fresh_process,
    )
    traced.update(run_pass(TRACED[2:], 7, SMOKE_SECONDS, 2, traced=True, worker=in_process))
    return document, traced, trace_dir


def test_benchmark_json_lists_the_catalogue():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert contract["paths"] == ["tpsbench"]
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == [
        (cls.name, cls.why) for cls in WORKLOADS.values()
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in contract["end_to_end"]
    ] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in contract["per_layer"]] == PER_LAYER
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in contract["workloads"])


def test_every_workload_reports_every_end_to_end_metric(smoke_document):
    document, _, _ = smoke_document
    assert list(document["workloads"]) == list(WORKLOADS)
    for name, entry in document["workloads"].items():
        assert entry["correct"], (name, entry["oracle"], entry["nondeterministic"])
        assert entry["failed"] == 0 and entry["failed_share"] == 0.0
        assert entry["attempted"] > 0
        for metric, unit, _, _ in END_TO_END:
            stats = entry["end_to_end"][metric]
            assert stats["unit"] == unit
            assert math.isfinite(stats["value"]) and stats["value"] > 0, (name, metric)


def test_same_seed_rounds_make_identical_counts(smoke_document):
    _, traced, _ = smoke_document
    for entry in traced.values():
        assert entry["rounds"] >= 2
        assert entry["nondeterministic"] == []
    # ...and the gate has teeth: a count that moves between rounds is named.
    rounds = [
        run_round("local_filtered", 7, 40),
        run_round("local_filtered", 7, 40),
    ]
    rounds[1]["counts"]["callbacks"] += 1
    verdict = summarise(rounds, 0, traced=False)
    assert verdict["nondeterministic"] == ["callbacks"] and not verdict["correct"]


def test_traced_pass_reports_every_per_layer_metric(smoke_document):
    _, traced, trace_dir = smoke_document
    for name in TRACED:
        entry = traced[name]
        assert entry["correct"], (name, entry["nondeterministic"])
        for metric, _, _ in PER_LAYER:
            assert math.isfinite(entry["per_layer"][metric]), (name, metric)
        with open(trace_dir / f"trace-{name}.json", encoding="utf-8") as handle:
            spans = json.load(handle)
        assert spans["spans_written"] == len(spans["spans"]) > 0
        assert entry["per_layer"]["trace.attributed_share"] > 0.5
    wire, durable = traced["wire_plain"], traced["durable_tail"]
    assert wire["per_layer"]["message.to_bytes_calls_per_event"] >= 2
    assert wire["per_layer"]["wire.retries_per_event"] == 0
    assert wire["per_layer"]["storage_log.append_self_us"] == 0
    assert durable["per_layer"]["storage_log.since_returned_per_call"] > 0
    assert durable["per_layer"]["message.to_bytes_calls_per_event"] == 0
    filtered = traced["local_filtered"]["per_layer"]
    assert filtered["dispatch.predicate_calls_per_event"] == 150
    assert 0 < filtered["dispatch.predicate_pass_ratio"] < 0.5
    assert "network.packets_per_event" in DETERMINISTIC


def test_oracle_flags_a_dropped_and_a_repeated_delivery():
    corpus = make_corpus(3, 10)
    oracle = DeliveryOracle(corpus)
    callback = oracle.subscriber(range(10), audit_payload=True)
    for event in corpus:
        if event.seq != 4:
            callback(event)
    callback(corpus[7])
    tallies = oracle.finish(10)
    assert tallies["expected"] == 10
    assert tallies["missing"] == 1 and tallies["repeated"] == 1
    assert tallies["failed"] == 2


def test_compare_flags_a_synthetic_slowdown(smoke_document):
    document, _, _ = smoke_document
    steady = copy.deepcopy(document)
    # Make the rounds agree exactly so only the injected change is judged.
    for entry in steady["workloads"].values():
        for stats in entry["end_to_end"].values():
            stats["values"] = [stats["value"]]
            stats["spread"] = 0.0
    lines, regressed = compare(steady, copy.deepcopy(steady))
    assert not regressed and all("  worse (" not in line for line in lines)
    slow = copy.deepcopy(steady)
    stats = slow["workloads"]["wire_plain"]["end_to_end"]["events_per_s"]
    stats["value"] *= 0.75
    stats["values"] = [value * 0.75 for value in stats["values"]]
    lines, regressed = compare(steady, slow)
    assert regressed
    assert [line for line in lines if "  worse (" in line and "events_per_s" in line]
    lossy = copy.deepcopy(steady)
    lossy["workloads"]["wire_lossy"]["failed_share"] = 0.01
    assert compare(steady, lossy)[1]


def test_driver_command_prints_the_result_object_last():
    done = subprocess.run(
        [sys.executable, "-m", "tpsbench", "--workload", "local_filtered", "--seed", "5",
         "--seconds", "0.05", "--rounds", "1", "--trace", "0"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _, _, _ in END_TO_END]
    assert result["metrics"]["setup_s"]["unit"] == "s"
