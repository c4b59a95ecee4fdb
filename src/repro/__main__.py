"""Command-line entry point: ``python -m repro``.

Subcommands:

* ``figures`` -- regenerate the paper's evaluation (same as
  ``examples/reproduce_figures.py``);
* ``demo`` -- run the quickstart scenario and print what happened;
* ``lint`` -- run the concurrency/determinism lint rules (``repro.analysis``)
  over the tree; exit 0 clean, 1 findings, 2 usage error;
* ``info`` -- print the package version and the calibrated cost model.

Wall-clock performance is measured by the ``tpsbench`` harness at the
repository root, not by this CLI: ``python3 -m tpsbench --seed 2002 --trace
--out BENCH_N.json`` writes a trajectory file.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro._version import __version__


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.bench import measure_code_size, run_figure18, run_figure19, run_figure20
    from repro.bench.reporting import (
        format_code_size,
        format_figure18,
        format_figure19,
        format_figure20,
    )

    which = args.figure
    if which in ("18", "all"):
        print(format_figure18(run_figure18()), end="\n\n")
    if which in ("19", "all"):
        print(format_figure19(run_figure19()), end="\n\n")
    if which in ("20", "all"):
        print(format_figure20(run_figure20()), end="\n\n")
    if which in ("code-size", "all"):
        print(format_code_size(measure_code_size()), end="\n\n")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import tps_network
    from repro.apps.skirental import SkiRental, SkiRentalTPSPublisher, SkiRentalTPSSubscriber

    net = tps_network(peers=1 + args.subscribers, seed=args.seed)
    shop = SkiRentalTPSPublisher(net.peer(0))
    net.settle(rounds=8)
    shoppers = [SkiRentalTPSSubscriber(net.peer(1 + index)) for index in range(args.subscribers)]
    net.settle(rounds=12)
    for index in range(args.events):
        receipt = shop.publish_offer(SkiRental(f"shop-{index % 3}", 40.0 + index, "Salomon", 7))
        net.run_until(max(net.now, receipt.completion_time))
    net.settle(rounds=8)
    print(f"published {args.events} offers to {args.subscribers} subscriber(s)")
    for shopper in shoppers:
        best = shopper.best_offer()
        print(f"  {shopper.peer.name}: received {shopper.received_count()}, best offer: {best}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.runner import run

    return run(args)


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.net.cost import PAPER_TESTBED

    print(f"repro {__version__} -- reproduction of 'OS Support for P2P Programming: a Case for TPS'")
    print("calibrated cost model (seconds):")
    for entry in dataclasses.fields(PAPER_TESTBED):
        print(f"  {entry.name:32s} {getattr(PAPER_TESTBED, entry.name)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    figures = subparsers.add_parser("figures", help="regenerate the paper's figures")
    figures.add_argument(
        "--figure", choices=["18", "19", "20", "code-size", "all"], default="all"
    )
    figures.set_defaults(func=_cmd_figures)

    demo = subparsers.add_parser("demo", help="run a small ski-rental scenario")
    demo.add_argument("--subscribers", type=int, default=2)
    demo.add_argument("--events", type=int, default=5)
    demo.add_argument("--seed", type=int, default=2002)
    demo.set_defaults(func=_cmd_demo)

    lint = subparsers.add_parser(
        "lint", help="check the concurrency/determinism invariants (RL001..RL005)"
    )
    lint.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--json", action="store_true",
        help="emit the repro-lint/v1 JSON document instead of the text report",
    )
    lint.add_argument(
        "--rules", action="append", metavar="IDS", default=None,
        help="comma-separated rule ids to run (repeatable; default: all)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="list the rules and their scopes, then exit",
    )
    lint.set_defaults(func=_cmd_lint)

    info = subparsers.add_parser("info", help="print version and cost-model calibration")
    info.set_defaults(func=_cmd_info)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
