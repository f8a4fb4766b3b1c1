"""Consistent-hash routing is deterministic, total, and stable.

The sharded engine's correctness rests on placement being a pure
function of ``(series_id, seed, n_shards, vnodes)`` — no process salt,
no platform dependence — because a reopened archive must route every
id to the shard that owns its series.  These tests pin the hash with
golden values (so an accidental algorithm change cannot slip through
as "still deterministic, just different") and property-test the ring
with hypothesis; none of them spawn worker processes.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.shard import (
    DEFAULT_HASH_SEED,
    DEFAULT_VNODES,
    HashRing,
    ShardedDatabase,
    _splitmix64,
)
from repro.core.worker import _ShardIdTable
from repro.exceptions import ParameterError

# Golden values computed once at PR time.  If these ever fail, the
# routing function changed and every existing sharded archive on disk
# would open with series routed to the wrong shards.
GOLDEN_SPLITMIX = {
    0: 16294208416658607535,
    1: 10451216379200822465,
    0x5753: 782144441068483865,
}
GOLDEN_OWNERS_4 = [1, 2, 2, 2, 2, 3, 3, 0, 3, 0, 3, 3]
GOLDEN_OWNERS_3_SEED99_V8 = [0, 1, 2, 0, 2, 0, 1, 2]


def test_splitmix_golden_values():
    for value, expected in GOLDEN_SPLITMIX.items():
        assert _splitmix64(value) == expected


def test_ring_golden_placements():
    ring = HashRing(4)
    assert [ring.owner(i) for i in range(12)] == GOLDEN_OWNERS_4
    ring = HashRing(3, seed=99, vnodes=8)
    assert [ring.owner(i) for i in range(8)] == GOLDEN_OWNERS_3_SEED99_V8


def test_ring_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        HashRing(0)
    with pytest.raises(ParameterError):
        HashRing(2, vnodes=0)


@given(
    n_shards=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    ids=st.lists(st.integers(min_value=0, max_value=2**63), max_size=50),
)
@settings(max_examples=50)
def test_every_id_owned_by_exactly_one_shard(n_shards, seed, ids):
    """Placement is total, in-range, and identical across ring rebuilds."""
    ring = HashRing(n_shards, seed=seed)
    rebuilt = HashRing(n_shards, seed=seed)
    for series_id in ids:
        owner = ring.owner(series_id)
        assert 0 <= owner < n_shards
        assert rebuilt.owner(series_id) == owner  # no per-instance state


@given(
    n_shards=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32),
    n_ids=st.integers(min_value=0, max_value=200),
)
@settings(max_examples=50)
def test_partition_is_a_disjoint_cover(n_shards, seed, n_ids):
    ring = HashRing(n_shards, seed=seed)
    parts = ring.partition(range(n_ids))
    assert len(parts) == n_shards
    flat = [i for part in parts for i in part]
    assert sorted(flat) == list(range(n_ids))  # cover, no duplicates
    for shard_id, part in enumerate(parts):
        assert all(ring.owner(i) == shard_id for i in part)


@given(seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=20)
def test_vnode_count_shifts_placement_deterministically(seed):
    """Different vnode counts are different (but internally stable) rings."""
    a = HashRing(4, seed=seed, vnodes=16)
    b = HashRing(4, seed=seed, vnodes=16)
    assert [a.owner(i) for i in range(64)] == [b.owner(i) for i in range(64)]


def test_manifest_round_trip_preserves_ownership(tmp_path):
    """A manifest written and re-read rebuilds the identical ring."""
    manifest = {
        "format": "sts3-sharded",
        "version": 1,
        "shards": 5,
        "hash_seed": 1234,
        "vnodes": DEFAULT_VNODES,
        "series_total": 100,
        "next_id": 100,
        "files": [ShardedDatabase.shard_file(i) for i in range(5)],
        "params": {},
    }
    ShardedDatabase._write_manifest(tmp_path, manifest)
    loaded = ShardedDatabase.read_manifest(tmp_path)
    before = HashRing(manifest["shards"], manifest["hash_seed"],
                      manifest["vnodes"])
    after = HashRing(loaded["shards"], loaded["hash_seed"], loaded["vnodes"])
    assert [before.owner(i) for i in range(200)] == [
        after.owner(i) for i in range(200)
    ]


def test_read_manifest_rejects_foreign_json(tmp_path):
    (tmp_path / "shard-manifest.json").write_text(json.dumps({"format": "x"}))
    with pytest.raises(Exception):
        ShardedDatabase.read_manifest(tmp_path)


def test_default_seed_is_pinned():
    # The seed is part of the on-disk contract: changing the default
    # would strand archives whose manifest omitted it (none do, but the
    # constant is load-bearing documentation).
    assert DEFAULT_HASH_SEED == 0x5753


class TestShardIdTable:
    def test_direct_and_buffered_ordering(self):
        table = _ShardIdTable()
        table.insert(10, "direct", False)
        table.insert(11, "buffered", False)
        table.insert(12, "direct", False)  # direct lands BEFORE the buffer
        assert [table.global_id(i) for i in range(3)] == [10, 12, 11]

    def test_seal_moves_buffer_to_stored_tail(self):
        table = _ShardIdTable()
        table.insert(1, "direct", False)
        table.insert(2, "buffered", False)
        table.insert(3, "buffered", True)  # sealing insert
        assert table.stored == [1, 2, 3]
        assert table.buffered == []

    def test_extras_round_trip(self):
        table = _ShardIdTable([4, 5], [9])
        restored = _ShardIdTable.from_extras(table.to_extras())
        assert restored.stored == [4, 5]
        assert restored.buffered == [9]
        assert len(restored) == 3
        assert restored.max_id() == 9

    def test_empty_table(self):
        table = _ShardIdTable()
        assert len(table) == 0
        assert table.max_id() == -1
        assert table.all_ids() == []
