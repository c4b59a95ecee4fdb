"""repro.analysis: the AST lint that machine-checks the locking model.

The concurrency conventions this repo runs on -- locks held only via
``with``, no user-code call-outs under a lock, immutable dispatch snapshots,
simclock-only time on simulated paths -- are executable rules:

* :mod:`repro.analysis.rules` -- the five rule classes RL001..RL005 and the
  :data:`~repro.analysis.rules.RULES` tuple,
* :mod:`repro.analysis.runner` -- file walker, inline pragmas, the one
  :data:`~repro.analysis.runner.EXEMPTION`, the text and ``repro-lint/v1``
  JSON reports, and ``python -m repro lint``.

The invariants themselves are documented in ``docs/CONCURRENCY.md``; the
tier-1 gate test (``tests/test_lint_gate.py``) keeps the tree clean.
"""

from repro.analysis.findings import Finding
from repro.analysis.rules import RULES, Rule
from repro.analysis.runner import (
    EXEMPTION,
    LintRun,
    PARSE_ERROR_RULE,
    SCHEMA,
    count_by_rule,
    is_exempt,
    lint_paths,
    lint_source,
    module_name,
    select_rules,
)

__all__ = [
    "EXEMPTION",
    "Finding",
    "LintRun",
    "PARSE_ERROR_RULE",
    "RULES",
    "Rule",
    "SCHEMA",
    "count_by_rule",
    "is_exempt",
    "lint_paths",
    "lint_source",
    "module_name",
    "select_rules",
]
