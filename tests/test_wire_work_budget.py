"""How much interpreter work one wire event costs: a count, not a clock.

Wall-clock numbers for the wire path swing from run to run on a shared
host; the number of bytecode instructions the interpreter executes for the
same seeded events does not.  A child interpreter builds the ``wire_plain``
topology -- a rendez-vous, one publisher and two subscribers on
``JxtaNetworkBuilder(seed=2002)`` with ``seed_ids(2002)`` and 1910-byte
messages -- publishes :data:`WARMUP` events, then counts opcodes with
``sys.settrace`` and ``f_trace_opcodes`` while it publishes :data:`EVENTS`
more, stepping the simulator until both subscribers received each one.

:data:`WIRE_OPS_PER_EVENT_CEILING` is a ratchet like ``SRC_CEILING``: lower
it when the wire path does less work, never raise it.  It is the count this
tree makes on CPython 3.11 (another interpreter version compiles to other
opcodes, so the count is only compared there).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Opcodes per timed event, publish call to the second subscriber callback.
WIRE_OPS_PER_EVENT_CEILING = 11305

WARMUP = 30
EVENTS = 40

_CHILD = textwrap.dedent(
    """
    import json, sys
    from repro.core import TPSConfig, TPSEngine
    from repro.jxta.ids import seed_ids
    from repro.jxta.platform import JxtaNetworkBuilder

    class Offer:
        def __init__(self, seq, key, price, text):
            self.seq, self.key, self.price, self.text = seq, key, price, text

    seed_ids(2002)
    builder = JxtaNetworkBuilder(seed=2002)
    builder.add_rendezvous("rdv-0")
    shared = {"message_padding": 1910, "reliable_delivery": False}
    publisher = TPSEngine(
        Offer, peer=builder.add_peer("pub"), config=TPSConfig(search_timeout=2.0, **shared)
    ).new_interface("JXTA")
    builder.settle(rounds=8)
    received = [0]
    for index in range(2):
        TPSEngine(
            Offer,
            peer=builder.add_peer(f"sub-{index}"),
            config=TPSConfig(search_timeout=6.0, create_if_missing=False, **shared),
        ).new_interface("JXTA").subscribe(lambda event: received.__setitem__(0, received[0] + 1))
    builder.settle(rounds=12)
    step = builder.simulator.step

    def publish(seq):
        target = received[0] + 2
        publisher.publish(Offer(seq, f"resort-{seq % 16:02d}", seq * 1.5, "fresh powder " * 2))
        while received[0] < target:
            assert step(), "the simulator ran dry before both subscribers received"

    ops = [0]

    def trace(frame, event, arg):
        frame.f_trace_opcodes = True
        if event == "opcode":
            ops[0] += 1
        return trace

    warmup, events = map(int, sys.argv[1:])
    for seq in range(warmup):
        publish(seq)
    sys.settrace(trace)
    for seq in range(warmup, warmup + events):
        publish(seq)
    sys.settrace(None)
    print(json.dumps({"ops_per_event": ops[0] / events}))
    """
)


@pytest.fixture(scope="module")
def ops_per_event() -> float:
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, str(WARMUP), str(EVENTS)],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=120, check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])["ops_per_event"]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="opcode counts are per CPython version")
def test_wire_event_work_stays_under_the_ceiling(ops_per_event):
    assert ops_per_event <= WIRE_OPS_PER_EVENT_CEILING, (
        f"one wire event ran {ops_per_event:.1f} opcodes, ceiling {WIRE_OPS_PER_EVENT_CEILING}: "
        "find the added work, or remove as much elsewhere on the wire path"
    )


def test_the_count_sees_the_wire_path(ops_per_event):
    """The trace really ran the wire path: a publish, two network deliveries,
    two parses and two dispatches are thousands of opcodes, not a handful."""
    assert ops_per_event > 5000
