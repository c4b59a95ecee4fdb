"""A simulated wire run is a pure function of its seed and binding.

:func:`repro.testing.run_digest` hashes the ordered delivery trace and the
final per-peer counters of one ``wire_lossy``-shaped run (chaos faults,
reliable delivery), each on its own.  The digests must repeat in this
process -- after every test that ran before it -- and in fresh interpreters
under 20 different ``PYTHONHASHSEED`` values, on JXTA and on single-threaded
SHARDED+JXTA.

:data:`PINS` holds their values.  Like the golden Figures 18-20, a pin moves
only in a change that means to move a delivery or a counter, and says why:
the chaos plan and the link noise each draw from one RNG per packet, so one
packet more or less anywhere in the run (a discovery query, say) moves every
later fault decision and the trace digest with it.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.testing import run_digest

SEED = 2002
BINDINGS = ("JXTA", "SHARDED+JXTA")
HASH_SEEDS = range(20)
#: Child interpreters running at once (the suite must stay small and fast).
PARALLEL = 4

SOURCE_ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CHILD = (
    "from repro.testing import run_digest; "
    f"print(*(part for binding in {BINDINGS!r} for part in run_digest({SEED}, binding)))"
)
#: (seed, binding) -> (trace digest, counters digest).
PINS = {
    (2002, "JXTA"): (
        "1ed38a06a862ceccb12b80513627a69599aaf088e7a9cfba9cb1ce891aa729d5",
        "a410106ea47bb815fc8d9278b5688284417694aa0d057da5e8f358a4fea6e571",
    ),
    (2002, "SHARDED+JXTA"): (
        "1358b2c3018bb4ef6575f524ff44764af6d5b6de0bb5971d1db1364c87ebbb8b",
        "42779cac8c4bf97b2b5531792b806d8bcbfdcffe296c80a6eca46b5fb7f29227",
    ),
    (2003, "JXTA"): (
        "9892304ecb3d617071eec2d1d72c2a6ddf0df3f6651769c7130ce23935607052",
        "3cd44d7cae058a14a548a2d35be874192220fbe07e2622353d2029e835dc68ba",
    ),
    (2003, "SHARDED+JXTA"): (
        "fd6709a64101d0ce9a18bfc871d75e0001d14953964c10ee2f6fc5f0a15ab39c",
        "edefa2ee6a04e426ab2aa56f71f100fae3e9d67339b6545954c66ea245a2ec31",
    ),
    (2004, "JXTA"): (
        "f2a7401b9a6acf6ca27fe5355722ed843e5fcb300f9238466cb58bc1e51f6afa",
        "0f16075c4873542fbc6198fab30d546ee0b1e9d88b2f8a5a74d2d37979ced620",
    ),
    (2004, "SHARDED+JXTA"): (
        "1aef773e39eced9c65d72887eb87444e0ee37405ac3d3bfa7e302a5f9674036a",
        "2d1ef19a13f996a87ad8f105e26d496d6191080eaf37a09f2bce4f3864361a03",
    ),
}


@pytest.fixture(scope="module")
def digests():
    return {binding: run_digest(SEED, binding) for binding in BINDINGS}


@pytest.mark.parametrize("binding", BINDINGS)
def test_digest_repeats_in_process(binding, digests):
    assert run_digest(SEED, binding) == digests[binding]


@pytest.mark.parametrize("seed, binding", sorted(PINS))
def test_digest_matches_its_pin(seed, binding, digests):
    found = digests[binding] if seed == SEED else run_digest(seed, binding)
    assert found == PINS[seed, binding], (
        "the run moved: if this change means to move a delivery or a counter, "
        f"pin {found} and say why"
    )


def test_digest_tells_seeds_and_bindings_apart(digests):
    assert run_digest(SEED + 1) != digests["JXTA"]
    assert digests["JXTA"] != digests["SHARDED+JXTA"]


def test_digest_repeats_across_interpreters_and_hash_seeds(digests):
    base = dict(os.environ, PYTHONPATH=SOURCE_ROOT)
    pending = list(HASH_SEEDS)
    running = []
    outputs = {}
    while pending or running:
        while pending and len(running) < PARALLEL:
            hash_seed = pending.pop(0)
            child = subprocess.Popen(
                [sys.executable, "-c", CHILD],
                env=dict(base, PYTHONHASHSEED=str(hash_seed)),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            running.append((hash_seed, child))
        hash_seed, child = running.pop(0)
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err
        outputs[hash_seed] = out.split()
    expected = [part for binding in BINDINGS for part in digests[binding]]
    assert {seed: out for seed, out in outputs.items() if out != expected} == {}
