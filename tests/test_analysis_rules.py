"""Fixture-pair tests for the repro.analysis rule pack and its runner.

Every rule gets at least one *bad* fixture (the rule must fire: a proven
true positive) and one *good* fixture (the idiomatic version of the same
code; the rule must stay silent: a proven true negative).  Then the runner
seams: inline suppressions, the one exemption, scoping, the rule pack, and
the CLI exit-code contract.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis import (
    EXEMPTION,
    Finding,
    PARSE_ERROR_RULE,
    RULES,
    is_exempt,
    lint_source,
    module_name,
    select_rules,
)
from repro.analysis.rules import Determinism, NoRawAcquire
from repro.__main__ import main

#: The ``repro-lint/v1`` document's keys, and each finding's.
DOCUMENT_KEYS = {
    "schema", "version", "paths", "rules", "files", "findings", "counts",
    "suppressed", "baselined",
}
FINDING_KEYS = {"rule", "path", "line", "column", "message", "hint", "snippet"}


def findings_for(source: str, module: str = "repro.net.fixture"):
    """Lint a dedented fixture as if it lived at ``module``."""
    run = lint_source(textwrap.dedent(source), module=module)
    return run.findings


def rules_fired(source: str, module: str = "repro.net.fixture"):
    return sorted({finding.rule for finding in findings_for(source, module)})


# --------------------------------------------------------------------- RL001


def test_rl001_flags_raw_acquire_and_release():
    fired = rules_fired(
        """
        def publish(self, event):
            self._lock.acquire()
            try:
                self._pending.append(event)
            finally:
                self._lock.release()
        """
    )
    assert "RL001" in fired


def test_rl001_silent_on_with_statement():
    assert "RL001" not in rules_fired(
        """
        def publish(self, event):
            with self._lock:
                self._pending.append(event)
        """
    )


# --------------------------------------------------------------------- RL002


def test_rl002_flags_callback_under_lock():
    findings = findings_for(
        """
        def dispatch(self, event):
            with self._lock:
                for subscription in self._subscriptions:
                    subscription.callback.handle(event)
        """
    )
    assert [f.rule for f in findings] == ["RL002"]
    assert "with <lock>:" in findings[0].message


def test_rl002_silent_when_snapshot_then_call_out():
    assert "RL002" not in rules_fired(
        """
        def dispatch(self, event):
            with self._lock:
                snapshot = tuple(self._subscriptions)
            for subscription in snapshot:
                subscription.callback.handle(event)
        """
    )


def test_rl002_function_defined_under_lock_is_not_a_call_out():
    # The nested function's body runs at call time, outside the lock.
    assert "RL002" not in rules_fired(
        """
        def build(self):
            with self._lock:
                def runner(event):
                    self.callback.handle(event)
                self._runner = runner
        """
    )


def test_rl002_non_lock_with_is_ignored():
    # ``with open(...)`` is not a lock: call-outs inside it are fine.
    assert "RL002" not in rules_fired(
        """
        def load(self):
            with open("state.json") as handle:
                return self.codec.dispatch(handle.read())
        """
    )


def test_rl002_executor_submit_under_lock():
    assert "RL002" in rules_fired(
        """
        def fan_out(self, groups):
            with self._executor_lock:
                futures = [self._executor.submit(group) for group in groups]
            return futures
        """
    )


def test_rl002_asyncio_handoff_under_lock():
    # Scheduling loop work while holding a lock couples the critical
    # section to the event loop's readiness -- the asyncio hand-off
    # surfaces are call-outs like any other.
    findings = findings_for(
        """
        def wake(self, fn):
            with self._lock:
                self._loop.call_soon(fn)
                self._task = self._loop.create_task(fn())
        """
    )
    assert [f.rule for f in findings] == ["RL002", "RL002"]


def test_rl002_asyncio_handoff_after_release_is_silent():
    assert "RL002" not in rules_fired(
        """
        def wake(self, fn):
            with self._lock:
                loop = self._loop
            loop.call_soon_threadsafe(fn)
            return loop.create_task(fn())
        """
    )


# --------------------------------------------------------------------- RL003


def test_rl003_flags_in_place_mutation_of_snapshot():
    fired = rules_fired(
        """
        def subscribe(self, handler):
            with self._lock:
                self._handlers.append(handler)
        """
    )
    assert "RL003" in fired


def test_rl003_flags_item_assignment_and_del():
    source = """
    def reroute(self, index, row):
        self.placement[index] = row
        del self.shards[index]
    """
    findings = findings_for(source)
    assert [f.rule for f in findings] == ["RL003", "RL003"]


def test_rl003_flags_rebind_to_list():
    assert "RL003" in rules_fired(
        """
        def subscribe(self, handler):
            with self._lock:
                self._handlers = list(self._handlers) + [handler]
        """
    )


def test_rl003_silent_on_tuple_rebind():
    assert "RL003" not in rules_fired(
        """
        def subscribe(self, handler):
            with self._lock:
                self._handlers = self._handlers + (handler,)
        """
    )


def test_rl003_other_attributes_unaffected():
    assert "RL003" not in rules_fired(
        """
        def track(self, token):
            self.inflight.append(token)
            self._pending[token.key] = token
        """
    )


# --------------------------------------------------------------------- RL004


def test_rl004_flags_wall_clock_and_global_random():
    source = """
    import time
    import random

    def jitter(self):
        return time.monotonic() + random.random()
    """
    findings = findings_for(source)
    assert [f.rule for f in findings].count("RL004") == 4  # 2 imports + 2 uses


def test_rl004_flags_datetime_now_and_uuid4():
    fired = rules_fired(
        """
        import uuid
        from datetime import datetime

        def stamp(self):
            return uuid.uuid4(), datetime.now()
        """
    )
    assert "RL004" in fired


def test_rl004_silent_on_injected_entropy():
    assert "RL004" not in rules_fired(
        """
        from repro.net.entropy import monotonic_clock, seeded_rng

        class NoiseSource:
            def __init__(self, seed=2002):
                self._rng = seeded_rng(seed)
                self._clock = monotonic_clock
        """
    )


def test_rl004_skips_type_checking_imports_and_annotations():
    assert "RL004" not in rules_fired(
        """
        from typing import TYPE_CHECKING, Optional

        if TYPE_CHECKING:
            import random

        def configure(rng: Optional["random.Random"] = None) -> "random.Random":
            return rng
        """
    )


def test_rl004_out_of_scope_packages_are_exempt():
    source = """
    import time

    def elapsed(start):
        return time.monotonic() - start
    """
    assert "RL004" in rules_fired(source, module="repro.net.fixture")
    # bench/ measures the real world; apps/ demo against it.
    assert "RL004" not in rules_fired(source, module="repro.bench.fixture")
    assert "RL004" not in rules_fired(source, module="repro.apps.fixture")


# --------------------------------------------------------------------- RL005


def test_rl005_flags_bare_except():
    assert "RL005" in rules_fired(
        """
        def deliver(self, event):
            try:
                self.sink(event)
            except:
                pass
        """
    )


def test_rl005_flags_broad_swallow():
    for body in ("pass", "return False", "return None", "return"):
        source = f"""
        def deliver(self, event):
            try:
                self.sink(event)
            except Exception:
                {body}
        """
        assert "RL005" in rules_fired(source), body
    assert "RL005" in rules_fired(
        """
        def drain(self, events):
            for event in events:
                try:
                    self.sink(event)
                except BaseException:
                    continue
        """
    )


def test_rl005_silent_when_error_is_routed_or_counted():
    assert "RL005" not in rules_fired(
        """
        def deliver(self, event):
            try:
                self.sink(event)
            except Exception as error:
                self.errors.increment()
        """
    )
    assert "RL005" not in rules_fired(
        """
        def parse(self, text):
            try:
                return int(text)
            except ValueError:
                return 0
        """
    )


# --------------------------------------------------------- suppressions


def test_line_pragma_silences_one_rule():
    run = lint_source(
        textwrap.dedent(
            """
            def deliver(self, event):
                try:
                    self.sink(event)
                except Exception:  # repro-lint: disable=RL005 - deliberate
                    pass
            """
        ),
        module="repro.net.fixture",
    )
    assert run.findings == []
    assert run.suppressed == 1


def test_line_pragma_only_covers_its_own_line():
    run = lint_source(
        textwrap.dedent(
            """
            import time  # repro-lint: disable=RL004

            def now(self):
                return time.monotonic()
            """
        ),
        module="repro.net.fixture",
    )
    assert [f.rule for f in run.findings] == ["RL004"]  # the use, not the import
    assert run.suppressed == 1


def test_file_pragma_silences_whole_module():
    run = lint_source(
        textwrap.dedent(
            """
            # repro-lint: disable-file=RL004 - audited entropy module
            import time
            import random

            def draw(self):
                return random.random() + time.monotonic()
            """
        ),
        module="repro.net.fixture",
    )
    assert run.findings == []
    assert run.suppressed == 4


def test_pragma_inside_string_literal_does_not_count():
    run = lint_source(
        textwrap.dedent(
            '''
            DOC = "# repro-lint: disable-file=all"
            import time
            '''
        ),
        module="repro.net.fixture",
    )
    assert [f.rule for f in run.findings] == ["RL004"]


def test_disable_all_wildcard():
    run = lint_source(
        "self._lock.acquire()  # repro-lint: disable=all\n",
        module="repro.net.fixture",
    )
    assert run.findings == []
    assert run.suppressed == 1


# ------------------------------------------------------------ exemption

PROTECTED_PATH = "src/repro/apps/skirental/jxta_app.py"
PROTECTED_SOURCE = f"""\
try:
    deliver()
{EXEMPTION[2]}
    pass
"""


def test_exemption_covers_the_protected_line_wherever_it_moves():
    findings = lint_source(PROTECTED_SOURCE, path=PROTECTED_PATH).findings
    assert [(f.rule, f.line) for f in findings] == [("RL005", 3)]
    assert is_exempt(findings[0])
    # Same offending line, different line number (a comment inserted above).
    moved = lint_source(
        "# an unrelated new comment\n" + PROTECTED_SOURCE, path=PROTECTED_PATH
    ).findings
    assert [(f.rule, f.line) for f in moved] == [("RL005", 4)]
    assert is_exempt(moved[0])


def test_exemption_is_one_rule_one_file_one_snippet():
    # The line itself changed: the exemption no longer covers it.
    changed = lint_source(
        PROTECTED_SOURCE.replace("broad catch", "catch"), path=PROTECTED_PATH
    ).findings
    assert len(changed) == 1 and not is_exempt(changed[0])
    # The same snippet in another file, or one whose name only ends alike.
    for path in (
        "src/repro/apps/skirental/tps_app.py",
        "src/repro/apps/skirental/my_jxta_app.py",
        "src/notrepro/apps/skirental/jxta_app.py",
    ):
        elsewhere = lint_source(PROTECTED_SOURCE, path=path).findings
        assert len(elsewhere) == 1 and not is_exempt(elsewhere[0]), path
    # The same snippet and file under another rule.
    rule, _, snippet = EXEMPTION
    other = Finding(
        rule="RL001", path=PROTECTED_PATH, line=3, column=0, message="", snippet=snippet
    )
    assert rule == "RL005" and not is_exempt(other)


# ------------------------------------------------------ runner plumbing


def test_parse_error_yields_rl000():
    run = lint_source("def broken(:\n", path="pkg/broken.py")
    assert [f.rule for f in run.findings] == [PARSE_ERROR_RULE]


def test_module_name_anchors_at_repro():
    assert module_name("src/repro/net/faults.py") == "repro.net.faults"
    assert module_name("/abs/checkout/src/repro/core/__init__.py") == "repro.core"
    assert module_name("scripts/tool.py") == "tool"


def test_rule_scope_prefix_matching():
    assert "repro.net" in Determinism.packages
    assert Determinism.applies_to("repro.net.faults")
    assert Determinism.applies_to("repro.net")
    assert not Determinism.applies_to("repro.network")  # prefix is package-wise
    assert NoRawAcquire.packages == () and NoRawAcquire.applies_to("anything")


def test_select_rules_rejects_unknown_rule():
    with pytest.raises(ValueError):
        select_rules(["RL999"])
    assert select_rules(["rl005", " RL001"]) == (RULES[0], RULES[4])


def test_rule_pack_is_rl001_to_rl005_in_order():
    assert [rule.rule_id for rule in RULES] == ["RL001", "RL002", "RL003", "RL004", "RL005"]
    for rule in RULES:
        assert rule.title and rule.rationale, rule.rule_id


# ------------------------------------------------------------------ CLI


def _write_fixture(tmp_path, source):
    target = tmp_path / "fixture.py"
    target.write_text(textwrap.dedent(source))
    return str(target)


def test_cli_exit_zero_and_json_schema_on_clean_file(tmp_path, capsys):
    path = _write_fixture(
        tmp_path,
        """
        def publish(self, event):
            with self._lock:
                self._pending = self._pending + (event,)
        """,
    )
    assert main(["lint", "--json", path]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["schema"] == "repro-lint/v1"
    assert set(document) == DOCUMENT_KEYS
    assert document["findings"] == [] and document["files"] == 1


def test_cli_exit_one_on_findings(tmp_path, capsys):
    path = _write_fixture(
        tmp_path,
        """
        def publish(self, event):
            self._lock.acquire()
        """,
    )
    assert main(["lint", path]) == 1
    output = capsys.readouterr().out
    assert "RL001" in output and "hint:" in output


def test_cli_exit_two_on_usage_errors(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "missing.py")]) == 2
    assert main(["lint", "--rules", "RL999", "."]) == 2


def test_cli_rules_filter(tmp_path, capsys):
    path = _write_fixture(
        tmp_path,
        """
        def deliver(self, event):
            self._lock.acquire()
            try:
                self.sink(event)
            except Exception:
                pass
        """,
    )
    assert main(["lint", "--rules", "RL005", "--json", path]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["rules"] == ["RL005"]
    assert {f["rule"] for f in document["findings"]} == {"RL005"}
    assert all(set(finding) == FINDING_KEYS for finding in document["findings"])


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    output = capsys.readouterr().out
    for rule_id in ("RL001", "RL002", "RL003", "RL004", "RL005"):
        assert rule_id in output
