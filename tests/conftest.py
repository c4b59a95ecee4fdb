"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.jxta.platform import JxtaNetworkBuilder


@pytest.fixture
def builder():
    """An empty simulated network builder with a fixed seed."""
    return JxtaNetworkBuilder(seed=1234)


@pytest.fixture
def lan(builder):
    """A LAN with one rendez-vous/router and three ordinary peers, settled.

    Returns the builder; peers are ``rdv-0``, ``peer-0``, ``peer-1``, ``peer-2``.
    """
    builder.add_rendezvous("rdv-0")
    for index in range(3):
        builder.add_peer(f"peer-{index}")
    builder.settle(rounds=6)
    return builder


@pytest.fixture
def two_peers(builder):
    """Two ordinary peers (no rendez-vous) on one multicast LAN, settled."""
    a = builder.add_peer("alpha", connect_rendezvous=False)
    b = builder.add_peer("beta", connect_rendezvous=False)
    builder.settle(rounds=4)
    return a, b, builder


@pytest.fixture(scope="session")
def reliable_arrival():
    """``make(sender, receiver, pipe_urn, seq, channel=...)``: the (envelope,
    message) pair a reliable wire send of sequence ``seq`` from ``sender``
    lands on ``receiver`` -- for driving ``WireService._on_wire_envelope``
    with a chosen arrival order."""
    from repro.jxta import wire
    from repro.jxta.endpoint import EndpointEnvelope
    from repro.jxta.message import Message

    def make(sender, receiver, pipe_urn, seq, channel="test/c1"):
        message = Message()
        message.add("body", str(seq))
        message.add(wire.WIRE_MSG_ID_ELEMENT, f"{channel}/w{seq}")
        message.add(wire.WIRE_SRC_ELEMENT, sender.peer_id.to_urn())
        message.add(wire.WIRE_ACK_REQ_ELEMENT, "1")
        message.add(wire.WIRE_CHANNEL_ELEMENT, channel)
        message.add(wire.WIRE_SEQ_ELEMENT, str(seq))
        envelope = EndpointEnvelope(
            src_peer=sender.peer_id.to_urn(),
            src_address=sender.node.address,
            dst_peer=receiver.peer_id.to_urn(),
            service=wire.WireService.WireName,
            param=pipe_urn,
            envelope_id=f"{channel}/e{seq}",
            ttl=4,
            propagate=False,
        )
        return envelope, message

    return make


def _damaged_frames(frame: bytes):
    """``(candidate, must_reject)`` pairs: ``frame`` damaged every cheap way.

    Every truncation and three kinds of trailing garbage (never a valid
    frame), then two bit flips per byte (a flip inside *content* makes a
    different valid frame, so those only must not half-succeed).
    """
    for cut in range(len(frame)):
        yield frame[:cut], True
    for tail in (b"\x00", b"garbage", frame):
        yield frame + tail, True
    for index, byte in enumerate(frame):
        for bit in (0x01, 0x80):
            yield frame[:index] + bytes([byte ^ bit]) + frame[index + 1 :], False


@pytest.fixture
def check_frame_fuzz():
    """``check(frame, decode, encode)``: ``decode`` never half-succeeds on damage.

    A damaged frame either raises ValueError or decodes to an object whose
    own encoding is exactly the damaged bytes -- so a length that overruns
    the buffer, a read past its end and silently ignored trailing bytes all
    fail.  Returns the damaged frames for further use.
    """

    def check(frame, decode, encode):
        damaged = list(_damaged_frames(frame))
        for candidate, must_reject in damaged:
            try:
                decoded = decode(candidate)
            except ValueError:
                continue
            assert not must_reject, candidate
            assert encode(decoded) == candidate
        return [candidate for candidate, _ in damaged]

    return check
