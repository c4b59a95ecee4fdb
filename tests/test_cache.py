"""Tests for the advertisement cache manager (repro.jxta.cache)."""

from __future__ import annotations

import pytest

from repro.jxta.advertisement import Advertisement, PeerAdvertisement, PeerGroupAdvertisement
from repro.jxta.cache import CacheManager, DiscoveryKind
from repro.net.simclock import Simulator


@pytest.fixture
def simulator():
    return Simulator()


@pytest.fixture
def cache(simulator):
    return CacheManager(simulator.clock)


def test_discovery_kind_validation():
    assert DiscoveryKind.validate(DiscoveryKind.PEER) == 0
    with pytest.raises(ValueError):
        DiscoveryKind.validate(7)


def test_publish_and_search(cache):
    advertisement = PeerGroupAdvertisement(name="PS$SkiRental")
    cache.publish(advertisement, DiscoveryKind.GROUP)
    assert cache.search(DiscoveryKind.GROUP, "Name", "PS$*") == [advertisement]
    assert cache.search(DiscoveryKind.GROUP, "Name", "Other*") == []
    assert cache.search(DiscoveryKind.PEER) == []


def test_publish_same_key_refreshes(cache, simulator):
    advertisement = PeerGroupAdvertisement(name="g")
    cache.publish(advertisement, DiscoveryKind.GROUP, lifetime=10.0)
    simulator.run_until(8.0)
    cache.publish(advertisement, DiscoveryKind.GROUP, lifetime=10.0)
    simulator.run_until(15.0)
    # Still present: the second publication refreshed the entry at t=8.
    assert cache.search(DiscoveryKind.GROUP) == [advertisement]
    assert cache.count(DiscoveryKind.GROUP) == 1


def test_expiry_is_lazy(cache, simulator):
    advertisement = Advertisement(name="short-lived")
    cache.publish(advertisement, DiscoveryKind.ADV, lifetime=5.0)
    simulator.run_until(10.0)
    assert cache.search(DiscoveryKind.ADV) == []          # lazily skipped
    assert cache.count(DiscoveryKind.ADV) == 0             # and removed
    fresh = Advertisement(name="fresh")
    cache.publish(fresh, DiscoveryKind.ADV, lifetime=5.0)
    simulator.run_until(20.0)
    assert cache.search(DiscoveryKind.ADV, "Name", "fresh") == []
    assert cache.count() == 0


def test_search_limit(cache):
    for index in range(10):
        cache.publish(PeerAdvertisement(name=f"peer-{index}"), DiscoveryKind.PEER)
    assert len(cache.search(DiscoveryKind.PEER, limit=3)) == 3
    assert len(cache.search(DiscoveryKind.PEER)) == 10


def test_remove(cache):
    advertisement = PeerAdvertisement(name="p")
    cache.publish(advertisement, DiscoveryKind.PEER)
    assert cache.remove(advertisement, DiscoveryKind.PEER)
    assert not cache.remove(advertisement, DiscoveryKind.PEER)
    assert cache.count(DiscoveryKind.PEER) == 0


def test_flush_by_kind_and_all(cache):
    cache.publish(PeerAdvertisement(name="p"), DiscoveryKind.PEER)
    cache.publish(PeerGroupAdvertisement(name="g"), DiscoveryKind.GROUP)
    cache.publish(Advertisement(name="a"), DiscoveryKind.ADV)
    assert cache.flush(DiscoveryKind.PEER) == 1
    assert cache.count() == 2
    assert cache.flush() == 2
    assert cache.count() == 0


def test_flush_remote_only(cache):
    local = PeerGroupAdvertisement(name="local")
    remote = PeerGroupAdvertisement(name="remote")
    cache.publish(local, DiscoveryKind.GROUP, local=True)
    cache.publish(remote, DiscoveryKind.GROUP, local=False)
    assert cache.flush(DiscoveryKind.GROUP, remote_only=True) == 1
    remaining = cache.search(DiscoveryKind.GROUP)
    assert remaining == [local]


def test_kinds_are_isolated(cache):
    advertisement = PeerGroupAdvertisement(name="g")
    cache.publish(advertisement, DiscoveryKind.GROUP)
    assert cache.search(DiscoveryKind.ADV) == []
    assert cache.count(DiscoveryKind.ADV) == 0


def test_entries_exposes_bookkeeping(cache, simulator):
    simulator.run_until(5.0)
    advertisement = Advertisement(name="x")
    cache.publish(advertisement, DiscoveryKind.ADV, local=False)
    (entry,) = cache.entries(DiscoveryKind.ADV)
    assert entry.inserted_at == 5.0
    assert not entry.local
    assert entry.advertisement is advertisement


def test_invalid_kind_rejected_everywhere(cache):
    advertisement = Advertisement(name="x")
    with pytest.raises(ValueError):
        cache.publish(advertisement, 9)
    with pytest.raises(ValueError):
        cache.search(9)
    with pytest.raises(ValueError):
        cache.flush(9)
