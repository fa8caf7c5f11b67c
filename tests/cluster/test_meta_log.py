"""The replicated metadata log: placement and cutover at quorum."""

import pytest

from repro.api import ReproConfig
from repro.cluster.runtime import ClusterRuntime
from repro.common.units import MiB


def make_runtime(**cluster_overrides):
    doc = {
        "store": {"volume_bytes": 16 * MiB},
        "cluster": dict(
            {"shards": 2, "chunk_keys": 4, "consensus": True},
            **cluster_overrides,
        ),
    }
    return ClusterRuntime(ReproConfig.from_dict(doc))


def test_consensus_nodes_must_be_odd():
    with pytest.raises(ValueError, match="odd"):
        make_runtime(consensus_nodes=4)


def test_placement_commits_through_the_meta_log():
    runtime = make_runtime()
    runtime.create_table("t")
    for key in range(12):
        runtime.insert(runtime.engine.now_us, "t", key, bytes([key]) * 8)
    # 12 keys / 4 per chunk = 3 chunks, each placed by a committed entry.
    assert len(runtime.chunks) == 3
    places = [cmd for cmd in runtime.meta_log if cmd[0] == "place"]
    assert len(places) == 3
    assert {(t, i) for _, t, i, _ in places} == {
        ("t", 0), ("t", 1), ("t", 2)
    }
    # The routing table is exactly the committed log's placements.
    for _, table, index, shard_id in places:
        assert runtime.tables[table][index].shard_id == shard_id
    for key in range(12):
        result = runtime.select(runtime.engine.now_us, "t", key)
        assert result.value == bytes([key]) * 8
    assert runtime.meta_group.tracker.violations == []


def test_chunk_creation_never_bypasses_the_log():
    """With consensus on, the read-side router must not invent chunks."""
    from repro.common.errors import ReproError

    runtime = make_runtime()
    runtime.create_table("t")
    with pytest.raises(ReproError, match="not yet placed"):
        runtime._chunk_for("t", 1, create=True)


def test_migration_cutover_commits_through_the_meta_log():
    runtime = make_runtime()
    runtime.create_table("t")
    for key in range(8):
        runtime.insert(runtime.engine.now_us, "t", key, bytes([key]) * 16)
    chunk = next(iter(runtime.chunks.values()))
    target = 1 - chunk.shard_id
    runtime.engine.run(runtime.migrate_chunk_proc(chunk.chunk_id, target))
    assert chunk.shard_id == target
    assert ("cutover", chunk.chunk_id, target) in runtime.meta_log
    for key in range(8):
        result = runtime.select(runtime.engine.now_us, "t", key)
        assert result.value == bytes([key]) * 16
    assert runtime.meta_group.tracker.violations == []


def test_consensus_off_keeps_the_legacy_direct_path():
    runtime = make_runtime(consensus=False)
    assert runtime.meta_group is None
    runtime.create_table("t")
    for key in range(6):
        runtime.insert(runtime.engine.now_us, "t", key, b"v")
    assert runtime.meta_log == []
    assert len(runtime.chunks) == 2
