"""The benchmark's own event types and the seeded corpus generator.

A root :class:`Offer` with two subclasses, so one corpus exercises subtype
routing (subscribers at ``Offer`` see everything, subscribers at
``SkiOffer`` see half) and content predicates (``price`` drives the pass
rate).  ``seq`` is dense per publisher: it is the key the delivery oracle
checks order and exactly-once against.

The system under test only ever sees the generated events; the seed never
reaches it except through ``JxtaNetworkBuilder(seed=)`` and
``FaultPlan(seed=)``, which are inputs of the simulated network.
"""

from __future__ import annotations

import random
from typing import List

#: Subscribers with the "cheap" predicate accept offers under this price;
#: prices are uniform on [0, 100), so about one event in ten passes.
CHEAP_PRICE = 10.0

_KEYS = tuple(f"resort-{index:02d}" for index in range(16))
_ALPHABET = "abcdefghijklmnopqrstuvwxyz "


class Offer:
    """Root of the benchmark's event hierarchy."""

    def __init__(self, seq: int, key: str, price: float, text: str) -> None:
        self.seq = seq
        self.key = key
        self.price = price
        self.text = text


class SkiOffer(Offer):
    """Odd ``seq`` values of the corpus."""


class BoardOffer(Offer):
    """Even ``seq`` values of the corpus."""


def is_cheap(offer: Offer) -> bool:
    """The selective predicate (~10 % pass rate)."""
    return offer.price < CHEAP_PRICE


def accept_all(offer: Offer) -> bool:
    """The non-selective predicate: pays the predicate call, rejects nothing."""
    return True


def make_corpus(seed: int, count: int) -> List[Offer]:
    """``count`` events with ``seq`` 0..count-1, fully determined by ``seed``.

    Even ``seq`` are :class:`BoardOffer`, odd are :class:`SkiOffer`; keys,
    prices (cents resolution) and text lengths (8-40 characters) come from a
    private ``random.Random(seed)`` stream.
    """
    rng = random.Random(seed)
    corpus: List[Offer] = []
    for seq in range(count):
        cls = SkiOffer if seq % 2 else BoardOffer
        text = "".join(rng.choices(_ALPHABET, k=rng.randint(8, 40)))
        corpus.append(
            cls(seq, rng.choice(_KEYS), rng.randrange(0, 10000) / 100.0, text)
        )
    return corpus
