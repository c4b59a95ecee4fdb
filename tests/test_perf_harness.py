"""The committed ``BENCH_N.json`` perf trajectory validates against its schema.

BENCH_1-22 are ``repro-bench/v1`` documents, written by a same-process pair
harness that no longer exists; this module keeps a frozen copy of that
schema's validator so the historical points stay checkable.  From N = 23 on
each file is a ``tpsbench/v1`` result document
(``python3 -m tpsbench --seed 2002 --trace --out BENCH_N.json``) and must
load through the gate harness's own ``load_document`` with every workload
present and correct.  The two live ratios the old harness pinned
(``subscribe_churn``, ``intra_shard_fanout``) are asserted in
``benchmarks/test_micro_overheads.py``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Any, Dict, List

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:  # tpsbench lives at the repository root
    sys.path.insert(0, str(REPO_ROOT))

#: The layout BENCH_1-22 were written in.
REPRO_BENCH_SCHEMA = "repro-bench/v1"
#: The first BENCH_N written by tpsbench.
FIRST_TPSBENCH_N = 23
#: The comparisons every repro-bench/v1 document contains.
BASELINE_COMPARISON_NAMES = ("codec_encode", "codec_decode", "xml_roundtrip")
#: The last repro-bench/v1 comparison set (BENCH_22).
FINAL_COMPARISON_NAMES = BASELINE_COMPARISON_NAMES + ("subscribe_churn", "intra_shard_fanout")
SCENARIO_NAMES = ("figure19_sr_tps", "figure20_sr_tps")
COMPARISON_FIELDS = ("baseline_per_op_us", "fast_per_op_us", "speedup", "iterations", "repeats")


def _is_finite_number(value: Any) -> bool:
    """A JSON number that is a real measurement: not a bool, NaN or infinity."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def validate_repro_bench(
    document: Dict[str, Any],
    required_comparisons: "tuple[str, ...]" = BASELINE_COMPARISON_NAMES,
) -> List[str]:
    """Every ``repro-bench/v1`` schema violation in ``document`` (empty = valid)."""
    problems: List[str] = []
    if document.get("schema") != REPRO_BENCH_SCHEMA:
        problems.append(f"schema is {document.get('schema')!r}, expected {REPRO_BENCH_SCHEMA!r}")
    for key in ("version", "unix_time", "profile", "comparisons", "scenarios"):
        if key not in document:
            problems.append(f"missing top-level key {key!r}")
    names = [entry.get("name") for entry in document.get("comparisons", [])]
    for expected in required_comparisons:
        if expected not in names:
            problems.append(f"missing comparison {expected!r}")
    for entry in document.get("comparisons", []):
        for key in COMPARISON_FIELDS:
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


def _trajectory() -> Dict[int, Path]:
    return {int(path.stem.split("_")[1]): path for path in REPO_ROOT.glob("BENCH_*.json")}


TRAJECTORY = _trajectory()
REPRO_BENCH_FILES = sorted(n for n in TRAJECTORY if n < FIRST_TPSBENCH_N)
TPSBENCH_FILES = sorted(n for n in TRAJECTORY if n >= FIRST_TPSBENCH_N)


def _load(n: int) -> Dict[str, Any]:
    with open(TRAJECTORY[n], encoding="utf-8") as handle:
        return json.load(handle)


def _valid_document() -> Dict[str, Any]:
    """The newest repro-bench/v1 point: valid against the full final set."""
    return _load(max(REPRO_BENCH_FILES))


def test_trajectory_is_dense_and_split_at_the_switch():
    assert sorted(TRAJECTORY) == list(range(1, max(TRAJECTORY) + 1))
    assert REPRO_BENCH_FILES == list(range(1, FIRST_TPSBENCH_N))
    assert TPSBENCH_FILES, "no tpsbench/v1 trajectory file committed"


@pytest.mark.parametrize("n", REPRO_BENCH_FILES)
def test_repro_bench_file_validates(n):
    document = _load(n)
    required = FINAL_COMPARISON_NAMES if n == max(REPRO_BENCH_FILES) else BASELINE_COMPARISON_NAMES
    assert validate_repro_bench(document, required) == []


@pytest.mark.parametrize("n", TPSBENCH_FILES)
def test_tpsbench_file_loads_with_every_workload_correct(n):
    from tpsbench.runner import load_document

    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        workloads = {entry["name"] for entry in json.load(handle)["workloads"]}
    document = load_document(str(TRAJECTORY[n]))
    assert set(document["workloads"]) == workloads
    for name, entry in document["workloads"].items():
        assert entry["correct"] is True, name
        assert entry["failed_share"] == 0, name
        assert entry["per_layer"], f"{name}: BENCH_N files are written with --trace"


def test_a_tpsbench_document_is_not_a_repro_bench_document(tmp_path):
    from tpsbench.runner import load_document

    path = tmp_path / "BENCH_old.json"
    path.write_text(json.dumps(_valid_document()), encoding="utf-8")
    with pytest.raises(ValueError, match="tpsbench/v1"):
        load_document(str(path))


class TestFrozenValidator:
    def test_the_final_document_is_valid(self):
        assert validate_repro_bench(_valid_document(), FINAL_COMPARISON_NAMES) == []

    def test_an_empty_document_reports_the_schema(self):
        assert any("schema" in problem for problem in validate_repro_bench({}))

    @pytest.mark.parametrize("name", FINAL_COMPARISON_NAMES)
    def test_a_missing_comparison_is_reported(self, name):
        document = _valid_document()
        document["comparisons"] = [
            entry for entry in document["comparisons"] if entry["name"] != name
        ]
        assert validate_repro_bench(document, FINAL_COMPARISON_NAMES) == [
            f"missing comparison {name!r}"
        ]

    def test_the_figure_scenarios_are_required(self):
        document = {
            "schema": REPRO_BENCH_SCHEMA, "version": "x", "unix_time": 1.0,
            "profile": "full", "comparisons": [], "scenarios": [],
        }
        problems = validate_repro_bench(document, required_comparisons=())
        assert problems == [f"missing scenario {name!r}" for name in SCENARIO_NAMES]

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), True, 0, -1, "1"], ids=repr
    )
    def test_comparison_timings_must_be_finite_positive_numbers(self, value):
        document = _valid_document()
        document["comparisons"][0]["fast_per_op_us"] = value
        # Through JSON text: ``json.load`` reads the non-standard ``NaN`` /
        # ``Infinity`` literals back as floats, so a corrupt BENCH_*.json
        # reaches the validator exactly like this.
        problems = validate_repro_bench(json.loads(json.dumps(document)))
        assert problems == [f"comparison 'codec_encode': bad fast_per_op_us={value!r}"]

    @pytest.mark.parametrize("key", COMPARISON_FIELDS)
    def test_every_comparison_field_rejects_nan(self, key):
        document = _valid_document()
        document["comparisons"][-1][key] = float("nan")
        problems = validate_repro_bench(json.loads(json.dumps(document)))
        assert problems == [f"comparison 'intra_shard_fanout': bad {key}=nan"]

    def test_zero_scenario_wall_clock_is_valid(self):
        # wall_clock_s was rounded to 0.1 ms, so a very fast run recorded 0.
        document = _valid_document()
        document["scenarios"][1]["wall_clock_s"] = 0
        assert validate_repro_bench(document) == []

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), True, -1, "1"], ids=repr
    )
    def test_scenario_wall_clock_must_be_a_finite_number(self, value):
        document = _valid_document()
        document["scenarios"][0]["wall_clock_s"] = value
        problems = validate_repro_bench(json.loads(json.dumps(document)))
        assert problems == [f"scenario 'figure19_sr_tps': bad wall_clock_s={value!r}"]


def test_the_bench_subcommand_is_gone(capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "--profile", "smoke"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err
