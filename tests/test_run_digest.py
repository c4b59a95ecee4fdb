"""A simulated wire run is a pure function of its seed and binding.

:func:`repro.testing.run_digest` hashes the ordered delivery trace and the
final per-peer counters of one ``wire_lossy``-shaped run (chaos faults,
reliable delivery).  The digest must repeat in this process -- after every
test that ran before it -- and in fresh interpreters under 20 different
``PYTHONHASHSEED`` values, on JXTA and on single-threaded SHARDED+JXTA.
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
    f"print(*(run_digest({SEED}, binding) for binding in {BINDINGS!r}))"
)


@pytest.fixture(scope="module")
def digests():
    return {binding: run_digest(SEED, binding) for binding in BINDINGS}


@pytest.mark.parametrize("binding", BINDINGS)
def test_digest_repeats_in_process(binding, digests):
    assert run_digest(SEED, binding) == digests[binding]


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
    expected = [digests[binding] for binding in BINDINGS]
    assert {seed: out for seed, out in outputs.items() if out != expected} == {}
