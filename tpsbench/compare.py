"""``--compare A.json B.json``: the regression gate over two result documents.

One row per workload x end-to-end metric: A's value, B's value, how much
worse B is (as a share of A, sign-adjusted for the metric's direction), the
metric's bound and a verdict:

* ``worse``      -- B's value is worse than A's by more than the bound;
* ``unresolved`` -- it is not, but A's or B's own ``spread`` (how far the
  value moves when any one round is left out; the rounds' interquartile
  share for the median-reduced metrics) is wider than the bound, so
  "unchanged" cannot be told from noise -- unless every round of B beats
  every round of A;
* ``ok``         -- otherwise.

Exit status is 1 when any row is ``worse`` or a workload's ``failed_share``
rose, 0 otherwise (``unresolved`` rows are reported, not fatal).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from tpsbench.layers import END_TO_END


def worsening(before: float, after: float, better: str) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``."""
    if not before:
        return 0.0
    change = (after - before) / before
    return change if better == "lower" else -change


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> Tuple[float, str]:
    delta = worsening(a["value"], b["value"], better)
    if delta > bound:
        return delta, "worse"
    if max(a["spread"], b["spread"]) > bound:
        if better == "lower":
            dominated = max(b["values"]) < min(a["values"])
        else:
            dominated = min(b["values"]) > max(a["values"])
        if not dominated:
            return delta, "unresolved"
    return delta, "ok"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Render the comparison table; returns (lines, regression found)."""
    lines = [
        f"{'workload':<15}{'metric':<19}{'A value':>14}{'B value':>14}"
        f"{'worse by':>10}{'bound':>8}  verdict"
    ]
    failed = False
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            lines.append(f"{name:<15}missing from B")
            failed = True
            continue
        for metric, unit, better, bound in END_TO_END:
            delta, word = verdict(
                entry_a["end_to_end"][metric], entry_b["end_to_end"][metric], better, bound
            )
            failed = failed or word == "worse"
            lines.append(
                f"{name:<15}{metric:<19}"
                f"{entry_a['end_to_end'][metric]['value']:>14.4f}"
                f"{entry_b['end_to_end'][metric]['value']:>14.4f}"
                f"{delta:>+10.1%}{bound:>8.0%}  {word} ({unit})"
            )
        share_a, share_b = entry_a["failed_share"], entry_b["failed_share"]
        word = "worse" if share_b > share_a else "ok"
        failed = failed or word == "worse"
        lines.append(
            f"{name:<15}{'failed_share':<19}{share_a:>14.6f}{share_b:>14.6f}"
            f"{'':>10}{'0':>8}  {word} (ratio)"
        )
    return lines, failed
