"""Golden Figures 18-20: a simulated result never moves unnoticed.

The figure tables are virtual-time results, a pure function of the code and
the scenarios' seeds.  ``tests/golden/figures_18_20.txt`` holds what ``python
-m repro figures --figure 18``, ``19`` and ``20`` print, in that order.  A
change that means to move a figure rewrites the file with the command the
failure message prints, so the move shows in its diff.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join("tests", "golden", "figures_18_20.txt")

#: Run in a fresh interpreter: module-level counters (resolver query ids, for
#: one) change message sizes in a process that has already run other tests.
SCRIPT = (
    "from repro.__main__ import main; "
    "[main(['figures', '--figure', f]) for f in ('18', '19', '20')]"
)
REWRITE = f'PYTHONPATH=src python -c "{SCRIPT}" > {GOLDEN}'


def test_figures_18_to_20_match_the_golden_file():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")])
    )
    produced = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    with open(os.path.join(REPO_ROOT, GOLDEN), encoding="utf-8") as handle:
        golden = handle.read()
    diff = "".join(
        difflib.unified_diff(
            golden.splitlines(keepends=True),
            produced.splitlines(keepends=True),
            fromfile=GOLDEN,
            tofile="produced",
        )
    )
    assert produced == golden, (
        f"Figures 18-20 moved:\n{diff}\n"
        f"If the move is intended, rewrite the golden file from the repo root:\n"
        f"    {REWRITE}"
    )
