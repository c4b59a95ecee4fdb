"""Harnesses that check the system as a whole rather than one feature.

* :func:`~repro.testing.digest.run_digest` -- a hash over the ordered trace
  of one scripted simulated wire run; equal seeds and bindings must give
  equal digests, in one process and across interpreters.

The package is in the lint's determinism scope (RL004, see
:data:`repro.analysis.rules.DEFAULT_PROFILE`): a harness that checks replay
must not read wall clocks or the global RNG itself.
"""

from __future__ import annotations

from repro.testing.digest import run_digest

__all__ = ["run_digest"]
