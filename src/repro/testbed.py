"""A one-call test-bed: a LAN of peers ready for TPS experiments.

The paper's measurements run on a handful of workstations on one FastEthernet
segment.  :func:`tps_network` builds exactly that -- a rendez-vous/router
peer plus ``peers`` ordinary peers on a single simulated LAN -- and returns a
:class:`TPSNetwork` handle exposing the peers, the simulator and convenience
helpers (``settle``, ``run_for``).

This is the entry point used by the quickstart example, most integration
tests and the benchmark harness.
"""

from __future__ import annotations

from typing import List, Optional

from repro.jxta.peer import Peer
from repro.jxta.platform import JxtaNetworkBuilder
from repro.net.cost import CostModel, PAPER_TESTBED
from repro.net.network import Network
from repro.net.simclock import Simulator


class TPSNetwork:
    """A built simulated network of peers, ready for TPS engines."""

    def __init__(self, builder: JxtaNetworkBuilder, *, rendezvous: Optional[Peer]) -> None:
        self._builder = builder
        self.rendezvous = rendezvous
        #: The ordinary (non rendez-vous) peers, in creation order.
        self.peers: List[Peer] = [p for p in builder.peers if p is not rendezvous]

    # ------------------------------------------------------------ accessors

    @property
    def network(self) -> Network:
        """The underlying simulated network."""
        return self._builder.network

    @property
    def simulator(self) -> Simulator:
        """The discrete-event simulator driving the network."""
        return self._builder.simulator

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.simulator.now

    def peer(self, index: int) -> Peer:
        """The ``index``-th ordinary peer."""
        return self.peers[index]

    def __len__(self) -> int:
        return len(self.peers)

    # -------------------------------------------------------------- running

    def settle(self, rounds: int = 32, quantum: float = 1.0) -> int:
        """Advance virtual time until in-flight protocol traffic quiesces.

        Call this after creating TPS interfaces (to let discovery,
        advertisement creation and pipe binding finish) and after publishing
        (to let events reach the subscribers).  Returns the number of
        simulation events processed.
        """
        return self.network.settle(rounds=rounds, quantum=quantum)

    def run_for(self, seconds: float) -> int:
        """Advance virtual time by exactly ``seconds``."""
        return self.simulator.run_for(seconds)

    def run_until(self, time: float) -> int:
        """Advance virtual time to the absolute instant ``time``."""
        return self.simulator.run_until(time)


def tps_network(
    peers: int = 2,
    *,
    seed: int = 2002,
    with_rendezvous: bool = True,
    cost_model: CostModel = PAPER_TESTBED,
    peer_name_prefix: str = "peer",
) -> TPSNetwork:
    """Build a LAN test-bed of ``peers`` ordinary peers (plus a rendez-vous).

    Parameters
    ----------
    peers:
        Number of ordinary peers to create (named ``peer-0``, ``peer-1``...).
    seed:
        Seed of the deterministic noise source; two runs with the same seed
        produce identical traces.
    with_rendezvous:
        Whether to add a rendez-vous/router peer (``rdv-0``) that the ordinary
        peers connect to.  On a single multicast-capable LAN the rendez-vous
        is not strictly required, but the paper's deployment has one.
    cost_model:
        The substrate cost calibration (defaults to the paper's testbed).
    """
    if peers < 1:
        raise ValueError("a TPS network needs at least one peer")
    builder = JxtaNetworkBuilder(seed=seed, cost_model=cost_model)
    rendezvous = builder.add_rendezvous("rdv-0") if with_rendezvous else None
    for index in range(peers):
        builder.add_peer(f"{peer_name_prefix}-{index}")
    builder.settle(rounds=8)
    return TPSNetwork(builder, rendezvous=rendezvous)


__all__ = ["TPSNetwork", "tps_network"]
