"""Smoke tests for the persistent perf harness (repro.bench.perf).

Runs the whole suite at the tiny ``smoke`` profile and validates the
``repro-bench/v1`` JSON schema, so the harness (and the CLI around it) cannot
silently rot between perf-focused PRs.  Also covers the supporting hot-path
structures: the bounded duplicate-filter set and the subscription dispatch
snapshot.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.perf import (
    COMPARISON_NAMES,
    FROZEN_BASELINES_US,
    PROFILES,
    SCENARIO_NAMES,
    SCHEMA,
    format_suite,
    run_perf_suite,
    validate_document,
    write_suite,
)
from repro.core.interface import Subscription
from repro.apps.skirental.types import SkiRental
from repro.core import TPSEngine
from repro.core.jxta_engine import DUPLICATE_WINDOW, BoundedIdSet
from repro.core.callbacks import as_callback, as_exception_handler
from repro.core.subscriber import TPSSubscriberManager


@pytest.fixture(scope="module")
def smoke_document():
    return run_perf_suite("smoke")


class TestPerfSuite:
    def test_document_passes_schema_validation(self, smoke_document):
        assert validate_document(smoke_document) == []

    def test_schema_and_profile_recorded(self, smoke_document):
        assert smoke_document["schema"] == SCHEMA
        assert smoke_document["profile"] == "smoke"
        assert smoke_document["unix_time"] > 0

    def test_every_comparison_present_with_positive_timings(self, smoke_document):
        by_name = {entry["name"]: entry for entry in smoke_document["comparisons"]}
        assert set(by_name) == set(COMPARISON_NAMES)
        for entry in by_name.values():
            assert entry["baseline_per_op_us"] > 0
            assert entry["fast_per_op_us"] > 0
            assert entry["speedup"] > 0

    def test_frozen_rows_report_the_committed_table(self, smoke_document):
        """The five comparisons whose baseline design is gone from the repo
        report the frozen constants (so speedup is a pure function of the
        measured fast path); every live pair carries no such marker."""
        assert set(FROZEN_BASELINES_US) == {
            "fanout_1", "fanout_10", "fanout_100", "mt_fanout", "async_fanout",
        }
        for entry in smoke_document["comparisons"]:
            if entry["name"] in FROZEN_BASELINES_US:
                assert entry["baseline_source"] == "frozen"
                assert entry["baseline_per_op_us"] == FROZEN_BASELINES_US[entry["name"]]
                assert entry["speedup"] == pytest.approx(
                    entry["baseline_per_op_us"] / entry["fast_per_op_us"], abs=1e-3
                )
            else:
                assert "baseline_source" not in entry

    def test_frozen_table_is_the_bench_11_values(self):
        import os

        path = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_11.json")
        with open(path, encoding="utf-8") as handle:
            recorded = {
                entry["name"]: entry["baseline_per_op_us"]
                for entry in json.load(handle)["comparisons"]
            }
        assert FROZEN_BASELINES_US == {name: recorded[name] for name in FROZEN_BASELINES_US}

    def test_format_suite_marks_frozen_rows(self, smoke_document):
        lines = format_suite(smoke_document).splitlines()
        marked = {line.split()[0] for line in lines if line.endswith("x*")}
        assert marked == set(FROZEN_BASELINES_US)
        assert any(line.startswith("* ") and "BENCH_11" in line for line in lines)

    def test_harness_touches_no_private_state(self):
        """perf.py measures the product through its public surface: no
        attribute access whose name starts with an underscore, except on
        ``self`` and on this module's own private helpers."""
        import ast
        import inspect

        import repro.bench.perf as perf

        tree = ast.parse(inspect.getsource(perf))
        offenders = [
            f"{ast.unparse(node)} (line {node.lineno})"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not node.attr.endswith("__")  # dunders are protocol, not private
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")
        ]
        assert offenders == []

    def test_every_scenario_present(self, smoke_document):
        names = [entry["name"] for entry in smoke_document["scenarios"]]
        assert names == list(SCENARIO_NAMES)

    def test_document_is_json_serialisable(self, smoke_document):
        round_tripped = json.loads(json.dumps(smoke_document))
        assert validate_document(round_tripped) == []

    def test_write_suite_round_trips(self, smoke_document, tmp_path):
        path = tmp_path / "BENCH_smoke.json"
        write_suite(str(path), smoke_document)
        with open(path, encoding="utf-8") as handle:
            assert validate_document(json.load(handle)) == []

    def test_format_suite_mentions_every_comparison(self, smoke_document):
        text = format_suite(smoke_document)
        for name in COMPARISON_NAMES:
            assert name in text

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            run_perf_suite("bogus")

    def test_validate_document_reports_problems(self):
        assert validate_document({}) != []
        assert any("schema" in problem for problem in validate_document({}))

    def test_profiles_are_complete(self):
        keys = {
            "repeats", "codec_iterations", "xml_iterations",
            "fanout_iterations", "churn_iterations", "churn_resident",
            "filtered_iterations", "filtered_subscribers",
            "mt_publishers", "mt_events", "mt_subscribers", "mt_io_s",
            "async_publishers", "async_events", "async_subscribers",
            "async_io_s",
            "intra_shards", "intra_keys", "intra_events",
            "intra_subscribers", "intra_io_s",
            "figure19_events", "figure20_duration", "figure20_events",
            "lossy_events",
            "reshard_shards", "reshard_keys", "reshard_events",
        }
        for name, profile in PROFILES.items():
            assert keys <= set(profile), f"profile {name} missing keys"

    def test_schema_covers_the_parse_sections(self):
        """The PR-2 sections are part of the repro-bench/v1 contract: a
        document missing them must fail validation."""
        assert "xml_parse" in COMPARISON_NAMES
        assert "xml_roundtrip" in COMPARISON_NAMES
        document = {
            "schema": SCHEMA, "version": "x", "unix_time": 1.0,
            "profile": "full", "comparisons": [], "scenarios": [],
        }
        problems = validate_document(document)
        assert any("xml_parse" in problem for problem in problems)
        assert any("xml_roundtrip" in problem for problem in problems)

    def test_schema_covers_the_subscription_sections(self):
        """The PR-3 sections (v2 subscription API) are part of the contract:
        a document missing them must fail validation."""
        assert "subscribe_churn" in COMPARISON_NAMES
        assert "filtered_fanout" in COMPARISON_NAMES
        document = {
            "schema": SCHEMA, "version": "x", "unix_time": 1.0,
            "profile": "full", "comparisons": [], "scenarios": [],
        }
        problems = validate_document(document)
        assert any("subscribe_churn" in problem for problem in problems)
        assert any("filtered_fanout" in problem for problem in problems)

    def test_schema_covers_the_concurrency_section(self):
        """The PR-4 section (concurrent sharded fan-out) is part of the
        contract: a document missing it must fail validation."""
        assert "mt_fanout" in COMPARISON_NAMES
        document = {
            "schema": SCHEMA, "version": "x", "unix_time": 1.0,
            "profile": "full", "comparisons": [], "scenarios": [],
        }
        problems = validate_document(document)
        assert any("mt_fanout" in problem for problem in problems)

    def test_schema_covers_the_intra_shard_section(self):
        """The PR-5 section (content-keyed intra-hierarchy sharding) is part
        of the contract: a document missing it must fail validation."""
        assert "intra_shard_fanout" in COMPARISON_NAMES
        document = {
            "schema": SCHEMA, "version": "x", "unix_time": 1.0,
            "profile": "full", "comparisons": [], "scenarios": [],
        }
        problems = validate_document(document)
        assert any("intra_shard_fanout" in problem for problem in problems)

    def test_schema_covers_the_async_section(self):
        """The PR-9 section (coroutine fan-out over the ASYNC binding) is
        part of the contract: a document missing it must fail validation."""
        assert "async_fanout" in COMPARISON_NAMES
        document = {
            "schema": SCHEMA, "version": "x", "unix_time": 1.0,
            "profile": "full", "comparisons": [], "scenarios": [],
        }
        problems = validate_document(document)
        assert any("async_fanout" in problem for problem in problems)

    def test_intra_shard_keys_cover_every_shard(self):
        """The benchmark's key corpus must actually reach all content
        shards for the committed profiles, or the recorded speedup would
        silently measure partial parallelism."""
        from collections import Counter

        from repro.bench.perf import PROFILES, _HotEvent, _intra_keys
        from repro.core.sharded_engine import ShardedLocalBus
        from repro.core.type_registry import type_name

        root = type_name(_HotEvent)
        for profile in PROFILES.values():
            shards = profile["intra_shards"]
            bus = ShardedLocalBus(shards=shards, partition="content", content_key="key")
            corpus = _intra_keys(bus, profile["intra_keys"])
            assert len(set(corpus)) == profile["intra_keys"]
            share = Counter(
                bus.partition_index(root, _HotEvent(key=key)) for key in corpus
            )
            # Every shard, and an equal share each: the speedup measures N
            # evenly loaded shards.
            assert share == {
                index: profile["intra_keys"] // shards for index in range(shards)
            }

    def test_mt_fanout_event_types_cover_distinct_shards(self):
        """The greedy hierarchy selection must place each benchmark
        publisher on its own shard for the committed profiles."""
        from repro.bench.perf import PROFILES, _mt_types
        from repro.core.sharded_engine import ShardedLocalBus
        from repro.core.type_registry import type_name

        for profile in PROFILES.values():
            publishers = profile["mt_publishers"]
            probe = ShardedLocalBus(shards=publishers)
            types = _mt_types(publishers)
            assert len(types) == publishers
            # One hierarchy per shard: an equal share (of one) each.
            shards = sorted(probe.shard_index(type_name(cls)) for cls in types)
            assert shards == list(range(publishers))

    def test_committed_trajectory_files_validate(self):
        """Every committed BENCH_*.json must validate: historical points
        against the baseline comparison/scenario sets they were generated
        under, the newest point against the full current schema."""
        import glob
        import os

        from repro.bench.perf import BASELINE_COMPARISON_NAMES, BASELINE_SCENARIO_NAMES

        root = os.path.join(os.path.dirname(__file__), os.pardir)
        paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
        assert paths, "no committed BENCH_*.json trajectory files found"
        newest = max(paths, key=lambda p: int(p.rsplit("_", 1)[1].split(".")[0]))
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                document = json.load(handle)
            comparisons = COMPARISON_NAMES if path == newest else BASELINE_COMPARISON_NAMES
            scenarios = SCENARIO_NAMES if path == newest else BASELINE_SCENARIO_NAMES
            assert validate_document(
                document,
                required_comparisons=comparisons,
                required_scenarios=scenarios,
            ) == [], path
        with open(newest, encoding="utf-8") as handle:
            document = json.load(handle)
        by_name = {entry["name"]: entry for entry in document["comparisons"]}
        # Trajectory pins: the scanning parser stays >= 2x the legacy parser
        # (PR 2), filtered fan-out with v2 predicate push-down beats
        # post-dispatch filtering (PR 3), and per-shard concurrency beats the
        # locked single bus by >= 1.5x at 4 publisher threads (PR 4).
        assert by_name["xml_parse"]["speedup"] >= 2.0
        assert by_name["filtered_fanout"]["speedup"] > 1.0
        assert by_name["subscribe_churn"]["speedup"] > 1.0
        assert by_name["mt_fanout"]["speedup"] >= 1.5
        # PR 5: content-keyed intra-hierarchy sharding beats the 1-shard
        # baseline on the single hot hierarchy.
        assert by_name["intra_shard_fanout"]["speedup"] > 1.0
        # PR 6: reliable delivery under loss stays complete -- every rate in
        # the lossy_publish sweep delivers all published events with zero
        # terminal failures, and the lossy rates actually exercise retries.
        lossy = next(
            entry for entry in document["scenarios"] if entry["name"] == "lossy_publish"
        )
        for rate in lossy["rates"]:
            assert rate["delivered"] == rate["published"], rate
            assert rate["delivery_failures"] == 0, rate
        assert sum(rate["retries"] for rate in lossy["rates"][1:]) > 0

    def test_schema_covers_the_lossy_scenario(self):
        """The PR-6 scenario (reliable publish over lossy links) is part of
        the contract: a document missing it must fail validation."""
        assert "lossy_publish" in SCENARIO_NAMES
        document = {
            "schema": SCHEMA, "version": "x", "unix_time": 1.0,
            "profile": "full", "comparisons": [], "scenarios": [],
        }
        problems = validate_document(document)
        assert any("lossy_publish" in problem for problem in problems)


class TestPerfCli:
    def test_bench_subcommand_writes_json(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "BENCH_cli.json"
        assert main(["bench", "--profile", "smoke", "--json", str(path)]) == 0
        output = capsys.readouterr().out
        assert "perf suite (smoke)" in output
        with open(path, encoding="utf-8") as handle:
            assert validate_document(json.load(handle)) == []


class TestBoundedIdSet:
    def test_acts_as_a_set(self):
        seen = BoundedIdSet(capacity=10)
        assert "a" not in seen
        seen.add("a")
        assert "a" in seen and len(seen) == 1
        seen.add("a")
        assert len(seen) == 1

    def test_evicts_oldest_beyond_capacity(self):
        seen = BoundedIdSet(capacity=3)
        for item in ("a", "b", "c", "d"):
            seen.add(item)
        assert len(seen) == 3
        assert "a" not in seen
        assert all(item in seen for item in ("b", "c", "d"))

    def test_refreshing_an_id_protects_it_from_eviction(self):
        seen = BoundedIdSet(capacity=3)
        for item in ("a", "b", "c"):
            seen.add(item)
        seen.add("a")  # most recently seen again
        seen.add("d")  # evicts "b", not "a"
        assert "a" in seen and "b" not in seen

    def test_seen_reports_duplicates_and_refreshes_recency(self):
        """The engine's duplicate check is one seen() call: it must both
        report the hit and protect the id from eviction (LRU, not FIFO)."""
        seen = BoundedIdSet(capacity=3)
        assert seen.seen("a") is False
        assert seen.seen("b") is False
        assert seen.seen("c") is False
        assert seen.seen("a") is True  # duplicate hit refreshes "a"
        assert seen.seen("d") is False  # evicts "b", the oldest
        assert seen.seen("a") is True
        assert seen.seen("b") is False  # "b" was evicted, not "a"

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_nonpositive_capacity_rejected(self, capacity):
        # Nothing in a long-running engine may grow without bound.
        with pytest.raises(ValueError):
            BoundedIdSet(capacity)

    def test_duplicate_window_is_wired_into_the_engine(self, two_peers):
        peer, _, _ = two_peers
        interface = TPSEngine(SkiRental, peer=peer).new_interface("JXTA")
        assert interface._seen_message_ids.capacity == DUPLICATE_WINDOW > 0
        interface.close()


class TestDispatchSnapshot:
    def _subscription(self, sink):
        return Subscription(
            callback=as_callback(sink.append),
            exception_handler=as_exception_handler(lambda error: None),
        )

    def test_dispatch_uses_snapshot_rebuilt_on_change(self):
        manager = TPSSubscriberManager()
        received: list = []
        manager.add(self._subscription(received))
        assert manager.dispatch("e1") == 1
        snapshot = manager._handlers
        assert manager.dispatch("e2") == 1
        assert manager._handlers is snapshot  # unchanged between events
        manager.add(self._subscription(received))
        assert manager._handlers is not snapshot  # rebuilt on mutation
        assert manager.dispatch("e3") == 2
        assert received == ["e1", "e2", "e3", "e3"]

    def test_remove_updates_snapshot(self):
        manager = TPSSubscriberManager()
        received: list = []
        subscription = self._subscription(received)
        manager.add(subscription)
        assert manager.remove(subscription.callback) == 1
        assert manager.dispatch("event") == 0
        assert manager.empty and received == []
