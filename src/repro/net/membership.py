"""Peer membership: a heartbeat failure detector over the simulated network.

The composite ``SHARDED+JXTA`` binding used to assume a static peer mesh:
once a pipe resolved to a peer, the wire layer would retry towards it until
its capped backoff gave up -- even when the peer was long gone.  This module
gives every peer an explicit, testable view of *who is still there*, in the
style of classic gossip/heartbeat failure detectors:

* every :class:`MembershipMonitor` sends a small heartbeat message to each
  watched peer every :data:`HEARTBEAT_INTERVAL`, jittered through the
  peer's seeded :class:`~repro.net.cost.NoiseSource` (runs stay
  bit-for-bit reproducible, but two monitors never phase-lock);
* receiving a heartbeat marks the sender ``ALIVE`` (auto-registering unknown
  senders -- monitoring is mutual by construction) and refreshes its network
  address via the endpoint address book;
* a peer not heard from for :data:`SUSPECT_TIMEOUT` becomes ``SUSPECT``
  (it may just be behind a lossy link -- the PR 6 ``FaultPlan`` drops
  heartbeats like any other packet, which is exactly how the chaos tests
  drive these transitions);
* a peer still silent :data:`CONFIRM_TIMEOUT` later is **confirmed**
  ``DEAD``.  Listeners get every transition (``"join"``, ``"suspect"``,
  ``"confirm"``, ``"recover"``), which is the hook
  :mod:`repro.core.composite_engine` uses to close the wire towards a
  departed peer and report queued deliveries through
  ``delivery_failure_handler`` instead of retrying forever;
* a heartbeat from a ``SUSPECT``/``DEAD`` peer flips it back to ``ALIVE``
  (``"recover"``) -- suspicion is a verdict about *communication*, and the
  detector must heal when the network does.

All timing is virtual (:class:`~repro.net.simclock.Simulator`) and fixed by
the module constants below; all randomness is seeded.  Both checks run on
the heartbeat tick, so a peer heard last at ``t`` is convicted by ``t +
SUSPECT_TIMEOUT + CONFIRM_TIMEOUT`` plus two tick periods (~1.44 s) -- well
before the reliable wire's retry ladder gives up on it
(:mod:`repro.jxta.wire`, ~7.75 s nominal), which is what lets the composite
binding fail deliveries towards a departed peer early.

Metrics land on the owning peer's registry:
``membership_heartbeats_sent/received``, ``membership_joined/suspected/
confirmed_dead/recovered`` counters and the ``membership_alive`` gauge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.jxta.ids import PeerID
from repro.jxta.message import Message

#: Member states, in escalation order.
ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"

#: Endpoint service/param heartbeats travel on.
MEMBERSHIP_SERVICE = "repro.membership"
HEARTBEAT_PARAM = "heartbeat"

#: Heartbeat message elements: the sender's peer URN and network address.
MEMBER_PEER_ELEMENT = "MemberPeer"
MEMBER_ADDR_ELEMENT = "MemberAddr"

#: Listener signature: ``listener(event, peer_urn)`` with event one of
#: ``"join"`` / ``"suspect"`` / ``"confirm"`` / ``"recover"``.
MembershipListener = Callable[[str, str], None]


#: Virtual seconds between two heartbeats to each watched peer.
HEARTBEAT_INTERVAL = 0.2
#: Relative uniform jitter on each heartbeat period, drawn from the peer's
#: seeded noise source.
HEARTBEAT_JITTER = 0.1
#: Silence since the last heartbeat heard before a peer turns ``SUSPECT``;
#: more than two periods, so one dropped heartbeat raises no suspicion.
SUSPECT_TIMEOUT = 0.5
#: Further silence since the suspicion before ``SUSPECT`` is confirmed ``DEAD``.
CONFIRM_TIMEOUT = 0.5


@dataclass
class MemberState:
    """One watched peer as this monitor currently sees it."""

    urn: str
    state: str
    last_heard: float
    suspected_at: Optional[float] = None
    #: Bookkeeping for tests/debugging: heartbeats received from this peer.
    heartbeats: int = field(default=0)


class MembershipMonitor:
    """One peer's failure detector: heartbeats out, state machine in.

    Single-threaded by construction -- everything (periodic ticks, incoming
    heartbeats, listener callbacks) runs on the simulator's event loop, the
    same discipline every other JXTA service in this repo follows, so there
    is no locking and no callback reentrancy to reason about.
    """

    def __init__(
        self,
        peer: Any,
        *,
        clock: Optional[Callable[[], float]] = None,
        noise: Optional[Any] = None,
    ) -> None:
        """``clock`` and ``noise`` follow the repo's uniform injection
        pattern (RL004): they default to the peer's virtual clock and seeded
        :class:`~repro.net.cost.NoiseSource`, and tests can substitute their
        own without monkey-patching the peer."""
        self.peer = peer
        self._clock = clock if clock is not None else (lambda: peer.now)
        self._noise = noise if noise is not None else peer.noise
        self._members: Dict[str, MemberState] = {}
        self._listeners: List[MembershipListener] = []
        self._stopped = False
        peer.endpoint.register_listener(
            MEMBERSHIP_SERVICE, HEARTBEAT_PARAM, self._on_heartbeat
        )
        spread = HEARTBEAT_JITTER * HEARTBEAT_INTERVAL
        self._task = peer.simulator.schedule_periodic(
            HEARTBEAT_INTERVAL,
            self._tick,
            label=f"membership:{peer.name}",
            jitter=lambda: self._noise.uniform(-spread, spread),
        )

    # ------------------------------------------------------------- watching

    def watch(self, target: Any, address: Optional[str] = None) -> None:
        """Start monitoring a peer (a :class:`Peer`, :class:`PeerID` or URN).

        Idempotent; the monitor's own peer is never watched.  New members
        start ``ALIVE`` (they get a full :data:`SUSPECT_TIMEOUT` of grace) and
        emit ``"join"``.
        """
        urn = self._to_urn(target)
        if urn == self.peer.peer_id.to_urn() or urn in self._members:
            return
        if address is None and hasattr(target, "node"):
            address = target.node.address
        if address is not None:
            self.peer.endpoint.learn_address(urn, address)
        self._members[urn] = MemberState(urn=urn, state=ALIVE, last_heard=self._clock())
        self.peer.metrics.counter("membership_joined").increment()
        self._update_alive_gauge()
        self._emit("join", urn)

    def forget(self, target: Any) -> None:
        """Stop monitoring a peer entirely (no event is emitted)."""
        self._members.pop(self._to_urn(target), None)
        self._update_alive_gauge()

    # ------------------------------------------------------------ inspection

    def members(self) -> Dict[str, str]:
        """Current view: peer URN -> state."""
        return {urn: member.state for urn, member in self._members.items()}

    def state_of(self, target: Any) -> Optional[str]:
        """The state of one peer, or None when unwatched."""
        member = self._members.get(self._to_urn(target))
        return member.state if member else None

    # ------------------------------------------------------------- listeners

    def add_listener(self, listener: MembershipListener) -> None:
        """Subscribe to membership transitions."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_listener(self, listener: MembershipListener) -> None:
        """Unsubscribe (missing listeners are ignored)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _emit(self, event: str, urn: str) -> None:
        for listener in tuple(self._listeners):
            try:
                listener(event, urn)
            except Exception:
                # A misbehaving listener must not stop the detector (or the
                # remaining listeners) -- same containment rule as the
                # endpoint dispatch loop.
                self.peer.metrics.counter("membership_listener_errors").increment()

    # ------------------------------------------------------------ the clock

    def _tick(self) -> None:
        if self._stopped:
            return
        now = self._clock()
        for member in list(self._members.values()):
            # DEAD members keep receiving heartbeats: if both sides of a
            # healed partition had confirmed each other dead and both went
            # silent, neither could ever observe the recovery.  The wire
            # layer stops *retrying deliveries* to a dead peer; the detector
            # keeps *probing* it -- that asymmetry is the rejoin path.
            self._send_heartbeat(member.urn)
            if member.state == ALIVE:
                if now - member.last_heard >= SUSPECT_TIMEOUT:
                    member.state = SUSPECT
                    member.suspected_at = now
                    self.peer.metrics.counter("membership_suspected").increment()
                    self._update_alive_gauge()
                    self._emit("suspect", member.urn)
            elif member.state == SUSPECT:
                assert member.suspected_at is not None
                if now - member.suspected_at >= CONFIRM_TIMEOUT:
                    member.state = DEAD
                    self.peer.metrics.counter("membership_confirmed_dead").increment()
                    self._emit("confirm", member.urn)

    def _send_heartbeat(self, urn: str) -> None:
        message = Message()
        message.add(MEMBER_PEER_ELEMENT, self.peer.peer_id.to_urn())
        message.add(MEMBER_ADDR_ELEMENT, self.peer.node.address)
        self.peer.metrics.counter("membership_heartbeats_sent").increment()
        # A False return (no route right now) is not itself a verdict: the
        # *absence of return traffic* is what drives suspicion.
        self.peer.endpoint.send(
            PeerID.from_urn(urn), message, MEMBERSHIP_SERVICE, HEARTBEAT_PARAM
        )

    # ------------------------------------------------------------- receiving

    def _on_heartbeat(self, envelope: Any, message: Message) -> None:
        if self._stopped:
            return
        urn = message.get_text(MEMBER_PEER_ELEMENT) or envelope.src_peer
        if urn == self.peer.peer_id.to_urn():
            return
        address = message.get_text(MEMBER_ADDR_ELEMENT) or envelope.src_address
        self.peer.metrics.counter("membership_heartbeats_received").increment()
        member = self._members.get(urn)
        if member is None:
            # Mutual discovery: whoever heartbeats us gets monitored back.
            self.watch(urn, address)
            member = self._members.get(urn)
            if member is None:  # it was ourselves; _to_urn filtered it
                return
            member.heartbeats += 1
            return
        member.heartbeats += 1
        member.last_heard = self._clock()
        self.peer.endpoint.learn_address(urn, address)
        if member.state != ALIVE:
            member.state = ALIVE
            member.suspected_at = None
            self.peer.metrics.counter("membership_recovered").increment()
            self._update_alive_gauge()
            self._emit("recover", urn)

    # -------------------------------------------------------------- plumbing

    def _update_alive_gauge(self) -> None:
        self.peer.metrics.gauge("membership_alive").set(
            sum(1 for m in self._members.values() if m.state == ALIVE)
        )

    def _to_urn(self, target: Any) -> str:
        if isinstance(target, str):
            return target
        if isinstance(target, PeerID):
            return target.to_urn()
        peer_id = getattr(target, "peer_id", None)
        if isinstance(peer_id, PeerID):
            return peer_id.to_urn()
        raise TypeError(f"cannot derive a peer URN from {target!r}")

    def stop(self) -> None:
        """Stop heartbeating and listening.  Idempotent."""
        if self._stopped:
            return
        self._stopped = True
        self._task.stop()
        self.peer.endpoint.unregister_listener(MEMBERSHIP_SERVICE, HEARTBEAT_PARAM)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        states = self.members()
        return (
            f"MembershipMonitor({self.peer.name!r}, members={len(states)}, "
            f"alive={sum(1 for s in states.values() if s == ALIVE)})"
        )


__all__ = [
    "ALIVE",
    "CONFIRM_TIMEOUT",
    "DEAD",
    "HEARTBEAT_INTERVAL",
    "HEARTBEAT_JITTER",
    "HEARTBEAT_PARAM",
    "MEMBERSHIP_SERVICE",
    "MEMBER_ADDR_ELEMENT",
    "MEMBER_PEER_ELEMENT",
    "MemberState",
    "MembershipListener",
    "MembershipMonitor",
    "SUSPECT",
    "SUSPECT_TIMEOUT",
]
