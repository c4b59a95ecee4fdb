"""Firewalls and NAT boxes for the simulated network.

The paper's Figure 6 shows the Endpoint Routing Protocol relaying a message
over HTTP through a rendez-vous/router peer because a firewall sits between
peer A and peer C.  To exercise that code path the simulated network lets a
:class:`Firewall` be attached in front of a node; the firewall filters packets
by transport, protocol and direction.

A typical corporate firewall of the era allowed outbound HTTP but blocked
inbound TCP, which is exactly the default rule set provided by
:meth:`Firewall.corporate_default`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.net.packet import Packet
from repro.net.transport import TransportKind


class Direction(str, enum.Enum):
    """Whether a packet is entering or leaving the protected node."""

    INBOUND = "inbound"
    OUTBOUND = "outbound"


@dataclass(frozen=True)
class FirewallRule:
    """A single allow/deny rule.

    Rules match on direction, transport and protocol; ``None`` acts as a
    wildcard.  The first matching rule wins.
    """

    action: str  # "allow" or "deny"
    direction: Optional[Direction] = None
    transport: Optional[TransportKind] = None
    protocol: Optional[str] = None

    def __post_init__(self) -> None:
        if self.action not in ("allow", "deny"):
            raise ValueError(f"rule action must be 'allow' or 'deny', got {self.action!r}")

    def matches(self, transport: str, protocol: str, direction: Direction) -> bool:
        """Whether this rule applies to traffic of this transport and protocol."""
        if self.direction is not None and self.direction != direction:
            return False
        if self.transport is not None and self.transport.value != transport:
            return False
        if self.protocol is not None and self.protocol != protocol:
            return False
        return True


class Firewall:
    """An ordered rule list protecting one node.

    The default policy (when no rule matches) is configurable; JXTA-era
    deployments usually defaulted to deny for inbound traffic and allow for
    outbound.
    """

    def __init__(
        self,
        rules: Iterable[FirewallRule] = (),
        *,
        default_inbound: str = "allow",
        default_outbound: str = "allow",
    ) -> None:
        self.rules: List[FirewallRule] = list(rules)
        if default_inbound not in ("allow", "deny") or default_outbound not in ("allow", "deny"):
            raise ValueError("default policies must be 'allow' or 'deny'")
        self.default_inbound = default_inbound
        self.default_outbound = default_outbound
        #: Packets this firewall refused (see :meth:`permits`).
        self.blocked_count = 0

    def allows(self, transport: str, protocol: str, direction: Direction) -> bool:
        """The policy's answer for one kind of traffic: a query, counts nothing."""
        for rule in self.rules:
            if rule.matches(transport, protocol, direction):
                return rule.action == "allow"
        default = (
            self.default_inbound if direction is Direction.INBOUND else self.default_outbound
        )
        return default == "allow"

    def permits(self, packet: Packet, direction: Direction) -> bool:
        """Put one packet to the policy; a refusal is counted in ``blocked_count``."""
        allowed = self.allows(packet.transport, packet.protocol, direction)
        if not allowed:
            self.blocked_count += 1
        return allowed

    # ------------------------------------------------------------- presets

    @classmethod
    def open(cls) -> "Firewall":
        """A firewall that allows everything (the default for LAN peers)."""
        return cls()

    @classmethod
    def corporate_default(cls) -> "Firewall":
        """Block inbound TCP and multicast, allow HTTP both ways.

        This is the configuration that forces the Endpoint Routing Protocol to
        relay messages through a router peer over HTTP, as in Figure 6 of the
        paper.
        """
        return cls(
            rules=[
                FirewallRule("allow", transport=TransportKind.HTTP),
                FirewallRule("deny", direction=Direction.INBOUND, transport=TransportKind.TCP),
                FirewallRule(
                    "deny", direction=Direction.INBOUND, transport=TransportKind.MULTICAST
                ),
                FirewallRule(
                    "deny", direction=Direction.OUTBOUND, transport=TransportKind.MULTICAST
                ),
            ],
        )


__all__ = ["Direction", "Firewall", "FirewallRule"]
