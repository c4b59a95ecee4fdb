"""Discrete-event simulated wide-area network substrate.

The paper's evaluation ran on real hardware: Sun Ultra 10 workstations
(440 MHz, 256 MB RAM) connected by 100 Mbit/s FastEthernet, running JXTA 1.0
over TCP, HTTP and IP multicast.  This package stands in for that testbed.
It provides a deterministic discrete-event simulator with:

* a virtual clock and event scheduler (:mod:`repro.net.simclock`);
* network nodes with one or more network interfaces (:mod:`repro.net.node`);
* links and topologies with latency, bandwidth, jitter and loss
  (:mod:`repro.net.network`);
* transport models for TCP, HTTP relays and IP multicast
  (:mod:`repro.net.transport`);
* firewalls and NAT boxes that force relayed routing, exercising the
  Endpoint Routing Protocol (:mod:`repro.net.firewall`);
* a calibrated cost model for per-message CPU work on the paper's era of
  hardware (:mod:`repro.net.cost`);
* metric collection helpers (:mod:`repro.net.metrics`).

Everything above the network (the JXTA substrate and the TPS layer) is real
code doing real work; only the passage of time and the wire itself are
simulated.
"""

from __future__ import annotations

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "cost": ("CostModel", "PAPER_TESTBED"),
        "faults": ("FaultPlan", "LinkFaults"),
        "firewall": ("Firewall", "FirewallRule"),
        "metrics": ("Counter", "MetricsRegistry", "TimeSeries", "Timer"),
        "network": ("Link", "LinkSpec", "Network", "NetworkError", "NoRouteError"),
        "node": ("NetworkInterface", "Node"),
        "packet": ("Packet",),
        "simclock": ("EventHandle", "SimClock", "Simulator"),
        "transport": (
            "HttpTransport",
            "MulticastTransport",
            "TcpTransport",
            "Transport",
            "TransportKind",
        ),
    },
)
