"""Command line of the benchmark.

Three ways to call it, all from the repository root:

``python3 -m tpsbench --workload W --seed N --seconds S --trace 0|1``
    One workload (the driver's form).  The last line of standard output is
    one JSON object ``{"correct", "attempted", "failed", "metrics"}`` with
    the end-to-end metrics (``--trace 0``) or the per-layer metrics
    (``--trace 1``).

``python3 -m tpsbench --seed N [--trace] [--out FILE]``
    Every workload, round-robin; prints every metric by name with its unit
    and writes the result document (default ``tpsbench/out/result.json``).

``python3 -m tpsbench --compare A.json B.json``
    The regression gate over two result documents.

Exit status is non-zero when a delivery failed the oracle, a count that must
repeat exactly did not, or ``--compare`` found a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from tpsbench import OUT_DIR
from tpsbench.compare import compare
from tpsbench.layers import END_TO_END, PER_LAYER
from tpsbench.runner import (
    DEFAULT_ROUNDS,
    REFERENCE_SECONDS,
    WorkerError,
    load_document,
    run_document,
    run_pass,
    write_document,
)
from tpsbench.workloads import WORKLOADS


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _print_workload(name: str, entry: Dict[str, Any]) -> None:
    print(
        f"{name}: {entry['events_per_round']} events/round x {entry['rounds']} rounds, "
        f"{entry['extra_rounds']} of them extra for host noise"
    )
    for metric, unit, _, _ in END_TO_END:
        stats = entry.get("end_to_end", {}).get(metric)
        if stats is None:
            continue
        extra = ""
        if metric == "e2e_p99_us":
            extra = f"  ({entry['latency_samples_per_round']} samples/round)"
        print(
            f"  {metric:<38}{stats['value']:>16.4f} {unit:<6}"
            f"spread {stats['spread']:.1%}{extra}"
        )
    print(
        f"  {'failed_share':<38}{entry['failed_share']:>16.6f} ratio "
        f"({entry['failed']} of {entry['attempted']} deliveries)"
    )
    for metric, unit, _ in PER_LAYER:
        if metric in entry.get("per_layer", {}):
            print(f"  {metric:<38}{entry['per_layer'][metric]:>16.4f} {unit}")
    if entry["nondeterministic"]:
        print(f"  NOT REPEATABLE between rounds: {', '.join(entry['nondeterministic'])}")


def _driver(args: argparse.Namespace) -> int:
    entry = run_pass(
        [args.workload], args.seed, args.seconds, args.rounds, traced=bool(args.trace), log=_log
    )[args.workload]
    _print_workload(args.workload, entry)
    if args.trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        values = entry["per_layer"]
    else:
        units = {name: unit for name, unit, _, _ in END_TO_END}
        values = {name: stats["value"] for name, stats in entry["end_to_end"].items()}
    print(
        json.dumps(
            {
                "correct": entry["correct"],
                "attempted": entry["attempted"],
                "failed": entry["failed"],
                "metrics": {
                    name: {"value": values[name], "unit": units[name]} for name in units
                },
            }
        )
    )
    return 0 if entry["correct"] else 1


def _full_set(args: argparse.Namespace) -> int:
    document = run_document(
        WORKLOADS, args.seed, args.seconds, args.rounds, trace=bool(args.trace), log=_log
    )
    for name, entry in document["workloads"].items():
        _print_workload(name, entry)
    out = args.out or os.path.join(OUT_DIR, "result.json")
    write_document(out, document)
    print(f"result document: {out}")
    return 0 if all(entry["correct"] for entry in document["workloads"].values()) else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m tpsbench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run one workload only")
    parser.add_argument("--seed", type=int, default=2002, help="seed of the event corpus, "
                        "JxtaNetworkBuilder and FaultPlan")
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS,
                        help="size of a run: event counts are the reference counts x seconds / "
                        f"{REFERENCE_SECONDS:.0f}")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="record spans and report the per-layer metrics")
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS,
                        help="rounds per workload (identical work, reduced to one value per metric)")
    parser.add_argument("--out", help="where the full-set result document goes")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result documents instead of running")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.rounds < 1:
        parser.error("--seconds must be positive and --rounds at least 1")
    if args.compare:
        lines, regressed = compare(*(load_document(path) for path in args.compare))
        print("\n".join(lines))
        return 1 if regressed else 0
    try:
        return _driver(args) if args.workload else _full_set(args)
    except WorkerError as error:
        _log(f"tpsbench: {error}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
