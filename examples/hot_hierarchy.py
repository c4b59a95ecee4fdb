#!/usr/bin/env python3
"""Content-keyed intra-hierarchy sharding and the SHARDED+JXTA composite.

The parameterised binding registry in one sitting:

1. *Binding parameters* -- ``new_interface("SHARDED", shards=4,
   content_key="symbol")`` configures the binding at the call site; the
   registry validates the keys against the binding's declared schema and
   interfaces created with the same parameters share one bus.
2. *Intra-hierarchy sharding* -- one hot ``Trade`` hierarchy spreads over
   all 4 shards by the ``symbol`` attribute's CRC-32, so ``publish_many``
   batches run distinct symbols' shards in parallel while each symbol's
   trades stay in publish order.
3. *The composite binding* -- ``new_interface("SHARDED+JXTA", shards=4)``
   attaches one engine to both the sharded in-process bus (same-peer
   traffic, synchronous) and the JXTA wire (remote peers, simulated
   network), delivering each event exactly once whichever way it came.

Run it with::

    python examples/hot_hierarchy.py
"""

from __future__ import annotations

from collections import Counter

from repro.core import TPSConfig, TPSEngine, registered_bindings
from repro.jxta.platform import JxtaNetworkBuilder


class Trade:
    """The event type: one executed trade on the single hot hierarchy."""

    def __init__(self, symbol: str = "", price: float = 0.0, size: int = 0) -> None:
        self.symbol = symbol
        self.price = price
        self.size = size

    def __str__(self) -> str:
        return f"{self.symbol} {self.size}@{self.price:.2f}"


SYMBOLS = ("SKI", "SNOW", "POLE", "BOOT", "WAX", "LIFT")


def sharded_hot_hierarchy() -> None:
    """Part 1: one hierarchy, four shards, per-symbol ordering."""
    report = TPSEngine(Trade).new_interface(
        "SHARDED", shards=4, content_key="symbol"
    )
    feed = TPSEngine(Trade).new_interface("SHARDED", shards=4, content_key="symbol")
    assert feed.bus is report.bus  # same parameters, same registry-built bus
    bus = feed.bus
    print(f"hot-hierarchy bus: {len(bus.shards)} shards, partition={bus.partition!r}")

    placement = Counter(
        bus.partition_index("__main__.Trade", Trade(symbol)) for symbol in SYMBOLS
    )
    print(f"symbols per shard: {dict(sorted(placement.items()))}")

    inbox: list[Trade] = []
    report.subscribe(inbox.append)
    batch = [
        Trade(SYMBOLS[index % len(SYMBOLS)], 100.0 + index, index + 1)
        for index in range(24)
    ]
    feed.publish_many(batch)  # distinct symbols' shards run in parallel
    by_symbol = Counter(trade.symbol for trade in inbox)
    print(f"delivered {len(inbox)}/24 trades across {len(by_symbol)} symbols")
    ski_sizes = [trade.size for trade in inbox if trade.symbol == "SKI"]
    print(f"SKI trades arrived in publish order: {ski_sizes == sorted(ski_sizes)}")
    bus.shutdown()
    feed.close()
    report.close()


def composite_over_jxta() -> None:
    """Part 2: the SHARDED+JXTA composite, local fast path + remote wire."""
    builder = JxtaNetworkBuilder(seed=7)
    builder.add_rendezvous("rdv-0")
    exchange = builder.add_peer("exchange")
    broker = builder.add_peer("broker")
    builder.settle(rounds=6)

    feed = TPSEngine(
        Trade, peer=exchange, config=TPSConfig(search_timeout=2.0)
    ).new_interface("SHARDED+JXTA", shards=4)
    builder.settle(rounds=8)
    wait = TPSConfig(search_timeout=6.0, create_if_missing=False)
    local_desk = TPSEngine(Trade, peer=exchange, config=wait).new_interface(
        "SHARDED+JXTA", shards=4
    )
    remote_desk = TPSEngine(Trade, peer=broker, config=wait).new_interface(
        "SHARDED+JXTA", shards=4
    )
    local_inbox: list[Trade] = []
    remote_inbox: list[Trade] = []
    local_desk.subscribe(local_inbox.append)
    remote_desk.subscribe(remote_inbox.append)
    builder.settle(rounds=12)

    receipt = feed.publish(Trade("SKI", 99.5, 750))
    print(f"same-peer desk saw it synchronously: {len(local_inbox) == 1}")
    builder.simulator.run_until(max(builder.simulator.now, receipt.completion_time))
    builder.settle(rounds=10)
    print(f"remote desk received over the wire: {len(remote_inbox) == 1}")
    print(
        "exactly once on both paths: "
        f"{len(local_inbox) == 1 and len(remote_inbox) == 1}"
    )
    for interface in (feed, local_desk, remote_desk):
        interface.close()


def main() -> None:
    print(f"registered bindings: {', '.join(registered_bindings())}")
    sharded_hot_hierarchy()
    composite_over_jxta()


if __name__ == "__main__":
    main()
