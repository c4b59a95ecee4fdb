#!/usr/bin/env python3
"""Elastic partitioning: grow and shrink a live sharded bus (PR 7).

The placement layer in one sitting:

1. *Consistent-hash placement* -- the sharded bindings place keys on a
   consistent-hash ring with virtual nodes: each placement key (hierarchy
   root, or ``root:content-key``) maps to a shard.  Growing N -> N+1 shards
   moves only ~1/(N+1) of the keys, and never moves a key between two
   surviving shards (``crc32 % N``, the arithmetic the ring replaced, would
   move ~N/(N+1) of them).
2. *Live resharding* -- ``bus.add_shard()`` / ``bus.remove_shard()`` work on
   a *running* bus: a reshard swaps one immutable (epoch, placement)
   snapshot over the bus's single route table -- publishers never block.
3. *Order preservation* -- a publisher streaming sequenced events across a
   migration loses, duplicates and reorders nothing.

Run it with::

    python examples/elastic_shards.py
"""

from __future__ import annotations

import threading

from repro.core import ShardedLocalBus, TPSEngine
from repro.core.placement import RingPlacement, moved_keys


class Reading:
    """The event type: one sensor reading."""

    def __init__(self, sensor: str = "", value: float = 0.0, seq: int = 0) -> None:
        self.sensor = sensor
        self.value = value
        self.seq = seq


def main() -> None:
    # ------------------------------------------------ placement arithmetic
    # The ring's movement bound, shown directly on the placement layer.
    corpus = [f"sensor-{index}" for index in range(200)]
    old = RingPlacement(tuple(range(4)))
    new = old.with_shards(tuple(range(5)))
    moved = moved_keys(old, new, corpus)
    print(f"ring 4 -> 5 shards: {len(moved)}/{len(corpus)} keys move "
          f"(~1/5 expected; mod-N would move ~4/5)")
    survivors_traded = [
        key for key in corpus
        if key not in moved and new.shard_id_for(key) != old.shard_id_for(key)
    ]
    print(f"keys traded between surviving shards: {len(survivors_traded)}")

    # ------------------------------------------------------ live resharding
    # A content-keyed bus spreads one hot hierarchy across shards; resharding
    # happens while a publisher thread is streaming.
    bus = ShardedLocalBus(shards=2, partition="content", content_key="sensor")
    with TPSEngine(Reading, local_bus=bus) as pub_engine, TPSEngine(
        Reading, local_bus=bus
    ) as sub_engine:
        publisher = pub_engine.new_interface("SHARDED")
        subscriber = sub_engine.new_interface("SHARDED")
        inbox: list[Reading] = []
        lock = threading.Lock()

        def collect(reading: Reading) -> None:
            with lock:
                inbox.append(reading)

        subscriber.subscribe(collect)

        total = 600
        sensors = [f"sensor-{index}" for index in range(12)]

        def stream() -> None:
            for seq in range(total):
                publisher.publish(Reading(sensors[seq % len(sensors)], 20.5, seq))

        thread = threading.Thread(target=stream, name="publisher")
        thread.start()
        bus.add_shard()
        bus.add_shard()
        bus.remove_shard()
        thread.join()
        bus.shutdown()

        print(f"published {total} readings across "
              f"{bus.epoch_number} live migrations (now {len(bus.shards)} shards)")
        delivered = sorted(reading.seq for reading in inbox)
        print(f"delivered exactly once: {delivered == list(range(total))}")
        by_sensor: dict[str, list[int]] = {}
        for reading in inbox:
            by_sensor.setdefault(reading.sensor, []).append(reading.seq)
        in_order = all(seqs == sorted(seqs) for seqs in by_sensor.values())
        print(f"per-sensor order preserved: {in_order}")


if __name__ == "__main__":
    main()
