"""tpsbench: the repo's end-to-end + per-layer benchmark.

Measures publish-call -> subscriber-callback time and events/s through the
LOCAL, ASYNC, JXTA-wire and durable-log paths of :mod:`repro`, checks every
delivery against an oracle, and (``--trace 1``) attributes the time to the
repo's layers with spans recorded from this package's own files.

Run it from the repository root::

    python3 -m tpsbench --workload wire_plain --seed 2002 --seconds 10 --trace 0
    python3 -m tpsbench --seed 2002            # every workload, one table
    python3 -m tpsbench --compare A.json B.json

See ``tpsbench/README.md`` for the metric and workload definitions;
``BENCHMARK.json`` at the repository root is the contract.
"""

from __future__ import annotations

import os
import sys

#: Directory of this package and of the repository checkout it lives in.
PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(PACKAGE_DIR)
#: Scratch and result directory (git-ignored except the committed baselines).
OUT_DIR = os.path.join(PACKAGE_DIR, "out")


def add_repro_to_path() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/`` tree.

    Called by the worker (never at import time): the parent process that
    spawns workers and compares result files does not import :mod:`repro`.
    """
    src = os.path.join(REPO_ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
