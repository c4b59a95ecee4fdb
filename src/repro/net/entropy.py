# repro-lint: disable-file=RL004 - this module IS the audited escape hatch
"""The one audited home of wall-clock and RNG access on simulated paths.

The RL004 determinism rule (see ``docs/CONCURRENCY.md#rl004``) bans
``time``, ``random`` and ``datetime`` everywhere in ``repro.net``,
``repro.jxta`` and ``repro.core``: a simulated run must be a pure function
of its seeds and the simclock, or replays and the chaos suite stop being
reproducible.  But the escape hatches have to live *somewhere* --
components need seeded RNGs, and the circuit breaker needs a real monotonic
clock when it guards a real executor.  This module is that somewhere: the
only file-level RL004 suppression in the tree, so every nondeterministic
touchpoint is auditable in one place and "whitelisted by construction" --
callers import these helpers instead of carrying their own pragma.

House rules for the helpers:

* :func:`seeded_rng` is the only way a component builds its RNG.  Pass the
  component's seed; pass ``None`` only where OS entropy is the documented
  intent (and say so at the call site).
* :func:`monotonic_clock` is for *real-time* guards (circuit-breaker
  cool-downs around a real thread pool), never for simulated event time --
  that is the simclock's job.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Optional

__all__ = ["monotonic_clock", "seeded_rng"]


def seeded_rng(seed: Optional[int]) -> random.Random:
    """A private :class:`random.Random` stream for one component.

    With a seed the stream is fully deterministic; with ``None`` it is
    OS-seeded (callers must document why that is acceptable).  Never
    returns the process-global ``random`` module: sharing that stream
    couples every component's draw sequence to import order.
    """
    return random.Random(seed)


#: The real monotonic clock, for real-time guards only.  Exposed as a
#: callable so components accept ``clock=monotonic_clock`` by default and a
#: virtual clock under test.
monotonic_clock: Callable[[], float] = time.monotonic
