"""Cached hashes of Wire, Link and Channel: same values, same dataclass, not pickled."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.channel import Channel
from repro.topology.base import Link
from repro.topology.wires import Wire

CHANNEL = Channel(0, 1, 1, "even")
LINK = Link((0, 0), (1, 0), 0, 1)
WIRE = Wire(LINK, CHANNEL)

FIELDS = {
    Channel: ["dim", "sign", "vc", "cls"],
    Link: ["src", "dst", "dim", "sign"],
    Wire: ["link", "channel"],
}


def default_hash(obj):
    """The hash ``@dataclass(frozen=True)`` generates: the field tuple's."""
    return hash(tuple(getattr(obj, f.name) for f in dataclasses.fields(obj)))


@pytest.mark.parametrize("obj", [CHANNEL, Channel(2, -1, 3), LINK, WIRE], ids=repr)
class TestCachedHash:
    def test_equals_dataclass_default(self, obj):
        assert hash(obj) == default_hash(obj)

    def test_fields_unchanged(self, obj):
        assert [f.name for f in dataclasses.fields(obj)] == FIELDS[type(obj)]
        assert "_hash" not in repr(obj)

    def test_copy_and_replace_hash_correctly(self, obj):
        for other in (copy.copy(obj), copy.deepcopy(obj), dataclasses.replace(obj)):
            assert other == obj
            assert hash(other) == hash(obj) == default_hash(other)

    def test_pickle_round_trip(self, obj):
        other = pickle.loads(pickle.dumps(obj))
        assert other == obj
        assert hash(other) == default_hash(other)
        assert b"_hash" not in pickle.dumps(obj)


def test_replace_rehashes_changed_fields():
    other = dataclasses.replace(WIRE, channel=CHANNEL.with_vc(2))
    assert hash(other) == default_hash(other) != hash(WIRE)
    assert hash(CHANNEL.opposite) == default_hash(CHANNEL.opposite)


def test_asdict_and_order_unchanged():
    assert dataclasses.asdict(CHANNEL) == {"dim": 0, "sign": 1, "vc": 1, "cls": "even"}
    assert sorted([Channel(1, 1), Channel(0, -1), Channel(0, 1)]) == [
        Channel(0, -1), Channel(0, 1), Channel(1, 1),
    ]


def run_with_hash_seed(seed: str, code: str, stdin: bytes = b"") -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).parent.parent), env.get("PYTHONPATH", "")]
    )
    result = subprocess.run(
        [sys.executable, "-c", code], input=stdin, env=env, capture_output=True, check=True,
    )
    return result.stdout


def test_unpickled_in_another_hash_seed_is_found_in_its_dicts():
    """``Channel.cls`` is a str, salted per process: a pickled cached hash
    would be wrong in a worker with another seed, and lookups would miss."""
    prelude = (
        "import pickle, sys\n"
        "from repro.core.channel import Channel\n"
        "from repro.topology.base import Link\n"
        "from repro.topology.wires import Wire\n"
        "channel = Channel(0, 1, 1, 'even')\n"
        "wire = Wire(Link((0, 0), (1, 0), 0, 1), channel)\n"
    )
    payload = run_with_hash_seed(
        "1", prelude + "sys.stdout.buffer.write(pickle.dumps((channel, wire, hash('even'))))"
    )
    out = run_with_hash_seed(
        "2",
        prelude
        + "got_channel, got_wire, their_salt = pickle.loads(sys.stdin.buffer.read())\n"
        "table = {channel: 'c', wire: 'w'}\n"
        "print(their_salt != hash('even'), table.get(got_channel), table.get(got_wire),"
        " {got_channel: 1, got_wire: 2}.get(wire))",
        stdin=payload,
    )
    assert out.split() == [b"True", b"c", b"w", b"2"]
