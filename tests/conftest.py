"""Fixtures that watch or change what crosses `Simulation.send`.

An element hands `send` the Message value itself, and the receiver skips
the decode. These fixtures check that shortcut from outside the program:
`carry_guard` asserts that every carried Message equals the decode of its
own encoding, which also catches a Message a test's own handler built by
hand with a field the wire cannot carry, and `bytes_only`
encodes every Message before it reaches the link, so every payload takes
the encode, tap and strict-decode path.
"""

from collections import Counter

import pytest

from diamlab.codec import Message, decode_message, encode_message
from diamlab.simnet import Simulation


@pytest.fixture
def carry_guard(monkeypatch):
    """Counter of payload kinds sent ("message", "bytes"); asserts each carried
    Message round-trips through the codec unchanged."""
    seen = Counter()
    send = Simulation.send

    def guarded(self, route, payload):
        if isinstance(payload, Message):
            assert decode_message(encode_message(payload)) == payload
            seen["message"] += 1
        else:
            seen["bytes"] += 1
        send(self, route, payload)

    monkeypatch.setattr(Simulation, "send", guarded)
    return seen


@pytest.fixture
def bytes_only(monkeypatch):
    """Every Message is encoded before `send`; returns how many were."""
    encoded = Counter()
    send = Simulation.send

    def as_bytes(self, route, payload):
        if isinstance(payload, Message):
            payload = encode_message(payload)
            encoded["message"] += 1
        send(self, route, payload)

    monkeypatch.setattr(Simulation, "send", as_bytes)
    return encoded
