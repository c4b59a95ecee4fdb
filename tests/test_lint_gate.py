"""The tier-1 lint gate: the committed tree stays clean.

This is the test that makes the ``repro.analysis`` invariants binding: any
new raw ``acquire()``, call-out under a lock, snapshot mutation, wall-clock
read on a simulated path, or silent broad catch fails the suite here --
with the offending ``file:line``, the rule id and the fix hint in the
assertion message.  Deliberate exceptions are either inline-suppressed next
to the code they excuse, or (only for files that must not be edited, like
the ROADMAP-protected ski-rental JXTA app) carried in the committed
``lint-baseline.json`` with a note saying why.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    DEFAULT_PROFILE,
    LintEngine,
    SCHEMA,
    validate_document,
)
from repro.__main__ import main
from repro.bench.code_size import count_code_lines

pytestmark = pytest.mark.lint

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_TREE = os.path.join(REPO_ROOT, "src", "repro")
BASELINE_PATH = os.path.join(REPO_ROOT, "lint-baseline.json")


def test_source_tree_is_lint_clean():
    engine = LintEngine(DEFAULT_PROFILE)
    run = engine.lint_paths([SOURCE_TREE])
    findings, _ = Baseline.load(BASELINE_PATH).filter(run.findings)
    report = "\n".join(finding.format() for finding in findings)
    assert findings == [], (
        f"{len(findings)} new lint finding(s) -- fix them or add an inline "
        f"'# repro-lint: disable=...' with a reason (docs/CONCURRENCY.md):\n{report}"
    )
    assert run.files > 70  # the walker really covered the tree


def test_every_core_module_is_covered_by_some_profile_scope():
    """Every module under ``src/repro/core`` must fall inside at least one
    DEFAULT_PROFILE scope -- a new core subsystem that nobody registered
    (the way ``repro.core.async_engine`` is, via the repo-wide RL001/RL002/
    RL005 scopes *and* RL004's ``repro.core`` package) would otherwise ship
    unlinted."""
    from repro.analysis.engine import module_name

    core_dir = os.path.join(SOURCE_TREE, "core")
    modules = [
        module_name(os.path.join(core_dir, name))
        for name in sorted(os.listdir(core_dir))
        if name.endswith(".py")
    ]
    assert "repro.core.async_engine" in modules
    for module in modules:
        covered = [
            rule
            for rule, scope in DEFAULT_PROFILE.items()
            if scope.applies_to(module)
        ]
        assert covered, f"core module {module} matches no DEFAULT_PROFILE scope"
    # The asyncio binding is in the determinism domain, not just the
    # repo-wide lock rules: it must not import wall-clock/RNG modules.
    assert DEFAULT_PROFILE["RL004"].applies_to("repro.core.async_engine")
    # So is the replay harness: a digest that read wall time would prove
    # nothing about the runs it hashes.
    assert DEFAULT_PROFILE["RL004"].applies_to("repro.testing.digest")


def test_every_baseline_entry_still_matches_a_finding():
    """A stale baseline entry means the exception it excused is gone --
    the entry must be deleted, or it will silently grandfather the next,
    unrelated violation with the same snippet."""
    engine = LintEngine(DEFAULT_PROFILE)
    run = engine.lint_paths([SOURCE_TREE])
    baseline = Baseline.load(BASELINE_PATH)
    for entry in baseline.entries:
        assert entry.note, f"baseline entry {entry.key} has no explanatory note"
        assert any(
            baseline.covers(finding)
            and finding.key == (entry.rule, finding.key[1], entry.snippet)
            for finding in run.findings
        ), f"stale baseline entry (no longer matches any finding): {entry.key}"


def test_cli_smoke_json_document(capsys):
    """The acceptance command: exit 0 and a valid repro-lint/v1 document."""
    exit_code = main(
        ["lint", "--json", "--baseline", BASELINE_PATH, SOURCE_TREE]
    )
    document = json.loads(capsys.readouterr().out)
    assert exit_code == 0
    assert document["schema"] == SCHEMA == "repro-lint/v1"
    assert validate_document(document) == []
    assert document["findings"] == []
    assert document["baselined"] >= 1  # the ski-rental JXTA app exception
    assert document["suppressed"] >= 5  # the documented inline pragmas
    assert document["rules"] == ["RL001", "RL002", "RL003", "RL004", "RL005"]


#: ROADMAP's tracked number, as it measures it: source lines mentioning the
#: pragma (`grep -rn "repro-lint: disable" src | wc -l` -- the 9 live pragmas
#: plus the analysis package's 5 documentation mentions).  A ratchet: lower
#: it when a pragma goes, never raise it to make room for a new one.
PRAGMA_CEILING = 14


def test_inline_pragma_count_only_goes_down():
    mentions = []
    for directory, _, names in os.walk(SOURCE_TREE):
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                for number, line in enumerate(handle, start=1):
                    if "repro-lint: disable" in line:
                        mentions.append(f"{os.path.relpath(path, REPO_ROOT)}:{number}")
    assert len(mentions) <= PRAGMA_CEILING, (
        f"{len(mentions)} inline 'repro-lint: disable' pragmas, ceiling "
        f"{PRAGMA_CEILING}: fix the finding instead of suppressing it "
        "(docs/CONCURRENCY.md):\n" + "\n".join(mentions)
    )


#: ROADMAP's tracked code size, as it measures it: ``count_code_lines``
#: summed over ``src/repro/**/*.py``.  A ratchet: lower it when code goes,
#: never raise it to make room for new code -- delete something first.
SRC_CEILING = 11221


def test_source_code_lines_only_go_down():
    total = sum(count_code_lines(path) for path in Path(SOURCE_TREE).rglob("*.py"))
    assert total <= SRC_CEILING, (
        f"src/repro has {total} code lines, ceiling {SRC_CEILING}: "
        f"delete {total - SRC_CEILING} lines elsewhere instead of raising it"
    )


def test_deleting_the_baseline_reveals_only_documented_exceptions():
    """Without the baseline, every surviving finding must be in a file the
    repo explicitly refuses to edit (the paper-faithful JXTA app)."""
    engine = LintEngine(DEFAULT_PROFILE)
    run = engine.lint_paths([SOURCE_TREE])
    assert run.findings, "expected the known baselined exception to fire"
    for finding in run.findings:
        assert finding.path.replace("\\", "/").endswith(
            "apps/skirental/jxta_app.py"
        ), f"undocumented finding outside the protected file: {finding.format()}"
