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

    def test_format_suite_reports_every_scenario_wall_clock(self, smoke_document):
        lines = format_suite(smoke_document).splitlines()
        for entry in smoke_document["scenarios"]:
            assert f"{entry['name']:<18} wall-clock {entry['wall_clock_s']:.3f}s" in lines

    def test_speedup_of_a_zero_fast_path_is_zero(self):
        from repro.bench.perf import Comparison

        assert Comparison("x", 2.0, 0.5, 1, 1).speedup == 4.0
        assert Comparison("x", 2.0, 0.0, 1, 1).speedup == 0.0

    def test_importing_the_bench_package_does_not_load_the_harness(self):
        """``repro.bench`` serves the figures; the perf harness is imported
        on its own (``python -m repro bench`` or ``repro.bench.perf``)."""
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        code = "import sys, repro.bench; print('repro.bench.perf' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.stdout.strip() == "False"

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            run_perf_suite("bogus")

    def test_validate_document_reports_problems(self):
        assert validate_document({}) != []
        assert any("schema" in problem for problem in validate_document({}))

    def test_profiles_are_complete(self):
        keys = {
            "repeats", "codec_iterations", "xml_iterations",
            "churn_iterations", "churn_resident",
            "intra_shards", "intra_keys", "intra_events",
            "intra_subscribers", "intra_io_s",
            "figure19_events", "figure20_duration", "figure20_events",
        }
        assert set(PROFILES) == {"full", "smoke"}
        for name, profile in PROFILES.items():
            assert set(profile) == keys, f"profile {name} keys drifted"

    def test_schema_covers_the_xml_section(self):
        """The XML codec pair is part of the repro-bench/v1 contract: a
        document missing it must fail validation."""
        assert "xml_roundtrip" in COMPARISON_NAMES
        document = {
            "schema": SCHEMA, "version": "x", "unix_time": 1.0,
            "profile": "full", "comparisons": [], "scenarios": [],
        }
        problems = validate_document(document)
        assert any("xml_roundtrip" in problem for problem in problems)

    def test_schema_covers_the_subscription_sections(self):
        """The PR-3 section (v2 subscription API) is part of the contract:
        a document missing it must fail validation."""
        assert "subscribe_churn" in COMPARISON_NAMES
        document = {
            "schema": SCHEMA, "version": "x", "unix_time": 1.0,
            "profile": "full", "comparisons": [], "scenarios": [],
        }
        problems = validate_document(document)
        assert any("subscribe_churn" in problem for problem in problems)

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

    def test_schema_covers_the_figure_scenarios(self):
        """The two paper scenarios are part of the contract for every
        document, historical or current: one missing them must fail."""
        document = {
            "schema": SCHEMA, "version": "x", "unix_time": 1.0,
            "profile": "full", "comparisons": [], "scenarios": [],
        }
        problems = validate_document(document, required_comparisons=())
        assert problems == [f"missing scenario {name!r}" for name in SCENARIO_NAMES]

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

    def test_committed_trajectory_files_validate(self):
        """Every committed BENCH_*.json must validate: historical points
        against the baseline comparison set every one of them carries, the
        newest point against exactly the current rows -- a deleted row may
        not linger in it and a new one may not be missing."""
        import glob
        import os

        from repro.bench.perf import BASELINE_COMPARISON_NAMES

        root = os.path.join(os.path.dirname(__file__), os.pardir)
        paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
        assert paths, "no committed BENCH_*.json trajectory files found"
        newest = max(paths, key=lambda p: int(p.rsplit("_", 1)[1].split(".")[0]))
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                document = json.load(handle)
            comparisons = COMPARISON_NAMES if path == newest else BASELINE_COMPARISON_NAMES
            assert validate_document(document, required_comparisons=comparisons) == [], path
        with open(newest, encoding="utf-8") as handle:
            document = json.load(handle)
        by_name = {entry["name"]: entry for entry in document["comparisons"]}
        assert list(by_name) == list(COMPARISON_NAMES)
        assert [entry["name"] for entry in document["scenarios"]] == list(SCENARIO_NAMES)
        # Trajectory pins: the v2 handle's identity cancel beats the
        # unsubscribe scan, and content-keyed intra-hierarchy sharding beats
        # the 1-shard baseline on the single hot hierarchy.
        assert by_name["subscribe_churn"]["speedup"] > 1.0
        assert by_name["intra_shard_fanout"]["speedup"] > 1.0

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), True, 0, -1, "1"], ids=repr
    )
    def test_comparison_timings_must_be_finite_positive_numbers(
        self, smoke_document, value
    ):
        document = json.loads(json.dumps(smoke_document))
        document["comparisons"][0]["fast_per_op_us"] = value
        # Through JSON text: ``json.load`` reads the non-standard ``NaN`` /
        # ``Infinity`` literals back as floats, so a corrupt BENCH_*.json
        # reaches the validator exactly like this.
        problems = validate_document(json.loads(json.dumps(document)))
        assert problems == [
            f"comparison 'codec_encode': bad fast_per_op_us={value!r}"
        ]

    @pytest.mark.parametrize(
        "key", ["baseline_per_op_us", "fast_per_op_us", "speedup", "iterations", "repeats"]
    )
    def test_every_comparison_field_rejects_nan(self, smoke_document, key):
        document = json.loads(json.dumps(smoke_document))
        document["comparisons"][-1][key] = float("nan")
        problems = validate_document(json.loads(json.dumps(document)))
        assert problems == [f"comparison 'intra_shard_fanout': bad {key}=nan"]

    def test_zero_scenario_wall_clock_is_valid(self, smoke_document):
        # wall_clock_s is rounded to 0.1 ms, so a very fast run records 0.
        document = json.loads(json.dumps(smoke_document))
        document["scenarios"][1]["wall_clock_s"] = 0
        assert validate_document(document) == []

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), True, -1, "1"], ids=repr
    )
    def test_scenario_wall_clock_must_be_a_finite_number(self, smoke_document, value):
        document = json.loads(json.dumps(smoke_document))
        document["scenarios"][0]["wall_clock_s"] = value
        problems = validate_document(json.loads(json.dumps(document)))
        assert problems == [
            f"scenario 'figure19_sr_tps': bad wall_clock_s={value!r}"
        ]


class TestPerfCli:
    def test_bench_subcommand_writes_json(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "BENCH_cli.json"
        assert main(["bench", "--profile", "smoke", "--json", str(path)]) == 0
        output = capsys.readouterr().out
        assert "perf suite (smoke)" in output
        with open(path, encoding="utf-8") as handle:
            assert validate_document(json.load(handle)) == []

    def test_quick_profile_is_gone(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "BENCH_quick.json"
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--profile", "quick", "--json", str(path)])
        assert exit_info.value.code != 0
        assert "invalid choice: 'quick'" in capsys.readouterr().err
        assert not path.exists()


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
