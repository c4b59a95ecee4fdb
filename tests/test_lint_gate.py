"""The tier-1 lint gate: the committed tree stays clean.

This is the test that makes the ``repro.analysis`` invariants binding: any
new raw ``acquire()``, call-out under a lock, snapshot mutation, wall-clock
read on a simulated path, or silent broad catch fails the suite here --
with the offending ``file:line``, the rule id and the fix hint in the
assertion message.  Deliberate exceptions are inline-suppressed next to the
code they excuse, with a reason; the one file that must not be edited (the
ROADMAP-protected ski-rental JXTA app) has the single ``EXEMPTION`` in
``repro/analysis/runner.py``, with its reason beside it.
"""

from __future__ import annotations

import io
import json
import os
import re
import tokenize
from pathlib import Path

import pytest

from repro.analysis import RULES, SCHEMA, is_exempt, lint_paths, module_name
from repro.analysis.rules import Determinism
from repro.__main__ import main
from repro.bench.code_size import count_code_lines

pytestmark = pytest.mark.lint

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_TREE = os.path.join(REPO_ROOT, "src", "repro")
PROTECTED_FILE = "apps/skirental/jxta_app.py"


def test_source_tree_is_lint_clean():
    run = lint_paths([SOURCE_TREE])
    findings = [finding for finding in run.findings if not is_exempt(finding)]
    report = "\n".join(finding.format() for finding in findings)
    assert findings == [], (
        f"{len(findings)} new lint finding(s) -- fix them or add an inline "
        f"'# repro-lint: disable=...' with a reason (docs/CONCURRENCY.md):\n{report}"
    )
    assert run.files > 70  # the walker really covered the tree


def test_every_core_module_is_covered_by_some_profile_scope():
    """Every module under ``src/repro/core`` must fall inside at least one
    rule's scope -- a core subsystem outside them (``repro.core.async_engine``
    is inside, via the repo-wide RL001/RL002/RL003/RL005 and RL004's
    ``repro.core`` package) would otherwise ship unlinted."""
    core_dir = os.path.join(SOURCE_TREE, "core")
    modules = [
        module_name(os.path.join(core_dir, name))
        for name in sorted(os.listdir(core_dir))
        if name.endswith(".py")
    ]
    assert "repro.core.async_engine" in modules
    for module in modules:
        covered = [rule.rule_id for rule in RULES if rule.applies_to(module)]
        assert covered, f"core module {module} matches no rule's scope"
    # The asyncio binding is in the determinism domain, not just the
    # repo-wide lock rules: it must not import wall-clock/RNG modules.
    assert Determinism.applies_to("repro.core.async_engine")
    # So is the replay harness: a digest that read wall time would prove
    # nothing about the runs it hashes.
    assert Determinism.applies_to("repro.testing.digest")


def test_the_exemption_matches_exactly_one_finding():
    """A stale exemption means the exception it excused is gone -- it must
    be deleted, or it will silently excuse the next, unrelated violation
    with the same snippet in that file."""
    run = lint_paths([SOURCE_TREE])
    exempt = [finding for finding in run.findings if is_exempt(finding)]
    assert len(exempt) == 1, exempt
    assert exempt[0].posix_path.endswith(PROTECTED_FILE)


def test_cli_smoke_json_document(capsys):
    """The acceptance command: exit 0 and a repro-lint/v1 document."""
    exit_code = main(["lint", "--json", SOURCE_TREE])
    document = json.loads(capsys.readouterr().out)
    assert exit_code == 0
    assert document["schema"] == SCHEMA == "repro-lint/v1"
    assert set(document) == {
        "schema", "version", "paths", "rules", "files", "findings", "counts",
        "suppressed", "baselined",
    }
    assert document["findings"] == []
    assert document["baselined"] == 1  # the ski-rental JXTA app exemption
    assert document["suppressed"] >= 5  # the documented inline pragmas
    assert document["rules"] == ["RL001", "RL002", "RL003", "RL004", "RL005"]


def test_cli_is_clean_from_any_directory(tmp_path, monkeypatch, capsys):
    """The exemption lives in code, not in a file found relative to the
    working directory, so the tree is clean wherever the command runs."""
    monkeypatch.chdir(tmp_path)
    assert main(["lint", SOURCE_TREE]) == 0
    assert "1 baselined" in capsys.readouterr().out


#: ROADMAP's tracked number, as it measures it: source lines mentioning the
#: pragma (`grep -rn "repro-lint: disable" src | wc -l` -- the 9 live
#: pragmas).  A ratchet: lower it when a pragma goes, never raise it to make
#: room for a new one.
PRAGMA_CEILING = 9


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


#: A pragma comment: its rule list, then what follows it in the comment.
_PRAGMA_COMMENT = re.compile(
    r"repro-lint:\s*disable(?:-file)?\s*=\s*[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*(?P<rest>.*)"
)


def test_every_pragma_states_a_reason():
    """House rule (docs/CONCURRENCY.md, "Suppressions"): every pragma
    carries a reason after its rule list, in the same comment."""
    pragmas, reasonless = 0, []
    for path in sorted(Path(SOURCE_TREE).rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            match = token.type == tokenize.COMMENT and _PRAGMA_COMMENT.search(token.string)
            if match:
                pragmas += 1
                if not re.search(r"\w", match.group("rest")):
                    reasonless.append(f"{path.relative_to(REPO_ROOT)}:{token.start[0]}")
    assert pragmas >= 9  # the scan really saw the tree's pragmas
    assert reasonless == [], "pragmas without a reason:\n" + "\n".join(reasonless)


#: ROADMAP's tracked code size, as it measures it: ``count_code_lines``
#: summed over ``src/repro/**/*.py``.  A ratchet: lower it when code goes,
#: never raise it to make room for new code -- delete something first.
SRC_CEILING = 9805


def test_source_code_lines_only_go_down():
    total = sum(count_code_lines(path) for path in Path(SOURCE_TREE).rglob("*.py"))
    assert total <= SRC_CEILING, (
        f"src/repro has {total} code lines, ceiling {SRC_CEILING}: "
        f"delete {total - SRC_CEILING} lines elsewhere instead of raising it"
    )


def test_without_the_exemption_only_the_protected_file_has_findings():
    """Unfiltered, every surviving finding must be in the one file the repo
    explicitly refuses to edit (the paper-faithful JXTA app)."""
    run = lint_paths([SOURCE_TREE])
    assert run.findings, "expected the known exempted finding to fire"
    for finding in run.findings:
        assert finding.posix_path.endswith(
            PROTECTED_FILE
        ), f"undocumented finding outside the protected file: {finding.format()}"
