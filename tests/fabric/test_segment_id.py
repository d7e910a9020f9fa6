"""SegmentId's cached hash: process-stable, pickle-safe, and invisible
to equality and ordering."""

import dataclasses
import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.fabric.geometry import Coordinate
from repro.fabric.routing import SegmentId
from repro.fabric.segments import SegmentKind

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

_PRINT_HASHES = """
from repro.fabric.geometry import Coordinate
from repro.fabric.routing import SegmentId
from repro.fabric.segments import SegmentKind
print([hash(SegmentId(kind, Coordinate(x, 2 * x + 1), track))
       for kind in SegmentKind for x in range(3) for track in range(2)])
"""


def _ids():
    return [
        SegmentId(kind, Coordinate(x, 2 * x + 1), track)
        for kind in SegmentKind for x in range(3) for track in range(2)
    ]


def _hashes_in_subprocess(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=_SRC)
    result = subprocess.run(
        [sys.executable, "-c", _PRINT_HASHES],
        env=env, capture_output=True, text=True, check=True,
    )
    return result.stdout.strip()


def test_hash_is_process_stable():
    """Two processes with different string-hash salts agree, and agree
    with this one."""
    first = _hashes_in_subprocess("0")
    second = _hashes_in_subprocess("12345")
    assert first == second
    assert first == str([hash(segment_id) for segment_id in _ids()])


def test_hash_survives_pickle():
    for segment_id in _ids():
        restored = pickle.loads(pickle.dumps(segment_id))
        assert restored == segment_id
        assert hash(restored) == hash(segment_id)
        assert {segment_id: 1}[restored] == 1


def test_replace_recomputes_hash():
    segment_id = SegmentId(SegmentKind.QUAD, Coordinate(4, 5), 0)
    moved = dataclasses.replace(segment_id, track=1)
    assert hash(moved) == hash(SegmentId(SegmentKind.QUAD, Coordinate(4, 5), 1))
    assert hash(moved) != hash(segment_id)
    assert moved != segment_id


def test_equality_and_ordering_are_the_fields():
    """Equality, ordering, repr and the field list are the generated
    dataclass ones over (kind, origin, track); the hash is not a field."""
    ids = _ids()
    for a in ids:
        for b in ids:
            same = (a.kind, a.origin, a.track) == (b.kind, b.origin, b.track)
            assert (a == b) is same
            if same:
                assert hash(a) == hash(b)
    locals_ = [s for s in ids if s.kind is SegmentKind.LOCAL]
    assert sorted(reversed(locals_)) == sorted(
        locals_, key=lambda s: (s.origin, s.track)
    )
    # Enum members do not order, so neither do ids of different kinds.
    with pytest.raises(TypeError):
        SegmentId(SegmentKind.LOCAL, Coordinate(0, 0), 0) < SegmentId(
            SegmentKind.LONG, Coordinate(0, 0), 0
        )
    assert [f.name for f in dataclasses.fields(SegmentId)] == [
        "kind", "origin", "track",
    ]
    assert repr(ids[0]) == (
        "SegmentId(kind=<SegmentKind.LOCAL: 'local'>, "
        "origin=Coordinate(x=0, y=1), track=0)"
    )
