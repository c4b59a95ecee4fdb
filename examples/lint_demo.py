#!/usr/bin/env python3
"""Lint demo: the concurrency rules catching a buggy engine patch.

The snippet below is the kind of change the ``repro.analysis`` lint
exists to reject: it takes the subscriber manager's lock with a bare
``acquire()`` (RL001), calls the subscriber callback while still holding it
(RL002), mutates the ``_handlers`` snapshot in place (RL003), reads the
wall clock on a simulated path (RL004), and swallows callback errors with a
broad silent catch (RL005) -- five invariants, one plausible-looking diff.

The demo lints the snippet in memory (no file is written), prints each
finding with its ``file:line``, rule id and fix hint, then shows the fixed
version passing clean.  The same checks run over the real tree in tier-1
(``tests/test_lint_gate.py``) and on demand via::

    PYTHONPATH=src python -m repro lint --json src/repro

Run it with::

    python examples/lint_demo.py
"""

from __future__ import annotations

from repro.analysis import RULES, count_by_rule, lint_source

BUGGY_PATCH = '''\
import time

class Dispatcher:
    def subscribe(self, handler):
        self._lock.acquire()
        try:
            self._handlers.append(handler)
        finally:
            self._lock.release()

    def dispatch(self, event):
        with self._lock:
            for handler in self._handlers:
                try:
                    handler.callback.handle(event)
                except Exception:
                    pass
        self.last_dispatch = time.monotonic()
'''

FIXED_PATCH = '''\
class Dispatcher:
    def __init__(self, clock):
        self._clock = clock  # injected: the simclock on simulated paths

    def subscribe(self, handler):
        with self._lock:
            self._handlers = self._handlers + (handler,)

    def dispatch(self, event):
        for handler in self._handlers:  # lock-free snapshot read
            try:
                handler.callback.handle(event)
            except Exception as error:
                handler.exception_handler.handle(error)
        self.last_dispatch = self._clock()
'''


def main() -> None:
    print("linting the buggy patch (as if it were repro/core/dispatcher.py):\n")
    run = lint_source(
        BUGGY_PATCH, path="repro/core/dispatcher.py", module="repro.core.dispatcher"
    )
    for finding in run.findings:
        print(finding.format())
    counts = count_by_rule(run.findings)
    print(f"\ncaught {len(run.findings)} violation(s): "
          + ", ".join(f"{rule} x{count}" for rule, count in counts.items()))
    print(f"distinct rules fired: {len(counts)} of {len(RULES)}")

    print("\nlinting the idiomatic fix:\n")
    fixed = lint_source(
        FIXED_PATCH, path="repro/core/dispatcher.py", module="repro.core.dispatcher"
    )
    print(f"findings on the fixed version: {len(fixed.findings)}")


if __name__ == "__main__":
    main()
