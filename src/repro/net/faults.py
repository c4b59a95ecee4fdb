"""Deterministic link-level fault injection.

The paper's substrate (JXTA 1.0, August 2001) was *unreliable*: messages were
lost, duplicated and arbitrarily delayed, to the point that the authors could
not even measure propagation latency (Section 5).  The simulated network is,
by default, far better behaved -- every routed packet arrives exactly once,
in order -- so the robustness claims of the layers above were under-exercised.

A :class:`FaultPlan` closes that gap.  It is a seeded, deterministic oracle
the :class:`~repro.net.network.Network` consults once per scheduled delivery:

* **probabilistic faults** per link (:class:`LinkFaults`): independent
  drop / duplicate / reorder / delay probabilities, resolved per directed
  pair with wildcard fallbacks (``(src, dst)`` > ``(src, "*")`` >
  ``("*", dst)`` > plan default);
* **determinism**: the plan owns its *own* ``random.Random(seed)``, separate
  from the network's :class:`~repro.net.cost.NoiseSource`, so installing a
  plan never perturbs the jitter/loss sequences of existing seeded
  experiments, and two plans built with the same seed and consulted with the
  same call sequence make identical decisions.

Reordering and delaying are expressed as *extra latency* on the faulted
packet: a reordered packet is held back long enough that packets sent after
it overtake it, which is exactly how reordering manifests on a real network.
Duplication schedules a second, independently delayed delivery of the same
packet.

The network surfaces what the plan did through its metrics registry
(``faults_dropped``, ``faults_duplicated``, ``faults_delayed``),
alongside the routing counters
(``packets_no_route``, ``packets_blocked``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, TYPE_CHECKING, Tuple

from repro.net.entropy import seeded_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    import random

#: Wildcard address matching any peer in a fault rule.
ANY = "*"


@dataclass(frozen=True)
class LinkFaults:
    """Probabilistic fault parameters for one directed link.

    Attributes
    ----------
    drop:
        Probability of silently dropping a packet.
    duplicate:
        Probability of delivering a packet twice.
    reorder:
        Probability of holding a packet back long enough for later packets
        to overtake it.
    delay:
        Probability of adding a small extra delay (without necessarily
        reordering).
    reorder_window:
        Extra seconds (upper bound) added to a reordered packet; must
        comfortably exceed the link latency for overtaking to happen.
    delay_window:
        Extra seconds (upper bound) added to a delayed packet or to a
        duplicate's second copy.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    delay: float = 0.0
    reorder_window: float = 0.25
    delay_window: float = 0.05

    @property
    def active(self) -> bool:
        """Whether any fault probability is non-zero."""
        return self.drop > 0 or self.duplicate > 0 or self.reorder > 0 or self.delay > 0


@dataclass(frozen=True)
class FaultDecision:
    """What the plan decided for one packet.

    ``deliveries`` holds one extra-delay value per copy to deliver (empty
    when the packet is dropped; two entries when it is duplicated).
    """

    drop: bool
    deliveries: Tuple[float, ...]


#: The decision taken for an unfaulted packet: one copy, no extra delay.
CLEAN_DECISION = FaultDecision(drop=False, deliveries=(0.0,))


class FaultPlan:
    """A seeded, deterministic schedule of link faults.

    The plan is consulted by :meth:`Network._schedule_delivery` for every
    packet that survived the legacy loss-rate draw.  All randomness comes
    from the plan's private RNG, so a given seed plus a given sequence of
    :meth:`decide` calls always yields the same sequence of decisions --
    property-tested in ``tests/test_faults.py``.
    """

    def __init__(
        self,
        seed: int = 2002,
        default: Optional[LinkFaults] = None,
        *,
        rng: Optional[random.Random] = None,
    ) -> None:
        """``rng`` injects a pre-built random stream (tests sharing one
        across components); by default the plan owns a private
        ``seeded_rng(seed)`` stream."""
        self.seed = seed
        self._rng = rng if rng is not None else seeded_rng(seed)
        #: Directed (source, destination) -> fault parameters; either side
        #: may be the ``"*"`` wildcard.
        self._rules: Dict[Tuple[str, str], LinkFaults] = {}
        #: Plan-wide fallback applied when no rule matches.
        self.default = default
        #: Decisions taken, for observability and determinism tests.
        self.decisions = 0
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0

    @classmethod
    def chaos(
        cls,
        seed: int = 2002,
        *,
        drop: float = 0.02,
        duplicate: float = 0.05,
        reorder: float = 0.08,
        delay: float = 0.05,
    ) -> "FaultPlan":
        """The standard chaos plan used by the conformance matrix.

        Every link drops, duplicates, reorders and delays with small
        probabilities -- enough to exercise the ack/retry/dedup machinery on
        every run while still letting discovery traffic converge.
        """
        return cls(
            seed=seed,
            default=LinkFaults(
                drop=drop, duplicate=duplicate, reorder=reorder, delay=delay
            ),
        )

    # ------------------------------------------------------------------ rules

    def set_link(
        self,
        source: str,
        destination: str,
        faults: LinkFaults,
        *,
        symmetric: bool = False,
    ) -> "FaultPlan":
        """Install fault parameters for the directed pair (or ``"*"`` wildcard).

        With ``symmetric=True`` the reverse direction gets the same faults.
        Returns the plan for chaining.
        """
        self._rules[(source, destination)] = faults
        if symmetric:
            self._rules[(destination, source)] = faults
        return self

    def clear_link(self, source: str, destination: str) -> None:
        """Remove a previously installed rule (no-op when absent)."""
        self._rules.pop((source, destination), None)

    def faults_for(self, source: str, destination: str) -> Optional[LinkFaults]:
        """The effective fault parameters for a directed pair, or None."""
        for key in (
            (source, destination),
            (source, ANY),
            (ANY, destination),
            (ANY, ANY),
        ):
            rule = self._rules.get(key)
            if rule is not None:
                return rule
        return self.default

    # --------------------------------------------------------------- decision

    def decide(self, source: str, destination: str) -> FaultDecision:
        """Decide the fate of one packet travelling ``source`` -> ``destination``."""
        self.decisions += 1
        faults = self.faults_for(source, destination)
        if faults is None or not faults.active:
            return CLEAN_DECISION
        rng = self._rng
        if faults.drop > 0 and rng.random() < faults.drop:
            self.dropped += 1
            return FaultDecision(drop=True, deliveries=())
        extra = 0.0
        if faults.reorder > 0 and rng.random() < faults.reorder:
            # Hold the packet back past at least half the window so packets
            # sent shortly after it overtake it.
            extra += rng.uniform(faults.reorder_window / 2, faults.reorder_window)
        if faults.delay > 0 and rng.random() < faults.delay:
            extra += rng.uniform(0.0, faults.delay_window)
        deliveries: Tuple[float, ...]
        if faults.duplicate > 0 and rng.random() < faults.duplicate:
            # The duplicate copy takes its own (independent) extra delay, so
            # the two copies may arrive in either order.
            deliveries = (extra, extra + rng.uniform(0.0, faults.delay_window))
            self.duplicated += 1
        else:
            deliveries = (extra,)
        if extra > 0.0:
            self.delayed += 1
        return FaultDecision(drop=False, deliveries=deliveries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultPlan(seed={self.seed}, rules={len(self._rules)}, "
            f"decisions={self.decisions}, dropped={self.dropped})"
        )


__all__ = ["ANY", "CLEAN_DECISION", "FaultDecision", "FaultPlan", "LinkFaults"]
