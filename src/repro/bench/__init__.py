"""Benchmark harness reproducing the paper's evaluation (Section 5).

* :mod:`repro.bench.scenario` -- builds a measurement scenario: a simulated
  LAN, one set of publishers and one set of subscribers, all running the same
  ski-rental application in one of the three variants (JXTA-WIRE, SR-JXTA,
  SR-TPS).
* :mod:`repro.bench.figures` -- the per-figure experiment runners:
  Figure 18 (invocation time), Figure 19 (publisher throughput) and
  Figure 20 (subscriber throughput).
* :mod:`repro.bench.code_size` -- the Section 4.4 programming-effort
  comparison (lines of application code, TPS vs direct JXTA).
* :mod:`repro.bench.micro` -- micro-benchmark helpers for the real
  (wall-clock) cost of the TPS layer's Python work.
* :mod:`repro.bench.reporting` -- plain-text tables for all of the above.

Real (wall-clock) end-to-end and per-layer numbers for every binding come
from the ``tpsbench`` harness at the repository root; each committed
``BENCH_N.json`` from N = 23 on is its result document
(``python3 -m tpsbench --seed 2002 --trace --out BENCH_N.json``).
"""

from __future__ import annotations

from repro.bench.code_size import CodeSizeReport, measure_code_size
from repro.bench.figures import (
    Figure18Result,
    Figure19Result,
    Figure20Result,
    run_figure18,
    run_figure19,
    run_figure20,
    run_invocation_time,
    run_publisher_throughput,
    run_subscriber_throughput,
)
from repro.bench.scenario import (
    JXTA_WIRE,
    SR_JXTA,
    SR_TPS,
    VARIANTS,
    Scenario,
    ScenarioConfig,
    build_scenario,
)

__all__ = [
    "CodeSizeReport",
    "Figure18Result",
    "Figure19Result",
    "Figure20Result",
    "JXTA_WIRE",
    "SR_JXTA",
    "SR_TPS",
    "Scenario",
    "ScenarioConfig",
    "VARIANTS",
    "build_scenario",
    "measure_code_size",
    "run_figure18",
    "run_figure19",
    "run_figure20",
    "run_invocation_time",
    "run_publisher_throughput",
    "run_subscriber_throughput",
]
