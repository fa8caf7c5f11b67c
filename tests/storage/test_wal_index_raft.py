"""WAL, page index, and majority-commit replication semantics."""

import pytest

from repro.common.errors import RaftError, WALError
from repro.common.units import MiB
from repro.consensus import RaftGroup
from repro.engine import Engine
from repro.storage.index import CompressionInfo, IndexEntry, PageIndex
from repro.storage.node import NodeConfig
from repro.storage.raft import NetworkModel
from repro.storage.redo import RedoRecord
from repro.storage.store import PolarStore
from repro.storage.wal import (
    WALRecordType,
    WriteAheadLog,
    decode_alloc,
    decode_index_put,
    decode_index_remove,
)

# --------------------------------------------------------------------- #
# WAL                                                                    #
# --------------------------------------------------------------------- #


def test_wal_append_and_replay_round_trip():
    wal = WriteAheadLog()
    wal.append_index_put(
        7, 100, 2, 5000, status=1, algorithm="lz4", applied_lsn=42,
    )
    wal.append_alloc(100, 2)
    wal.append_index_remove(7)
    wal.append_free(100, 2)
    records = list(wal.replay())
    assert [r.type for r in records] == [
        WALRecordType.INDEX_PUT,
        WALRecordType.ALLOC,
        WALRecordType.INDEX_REMOVE,
        WALRecordType.FREE,
    ]
    put = decode_index_put(records[0].payload)
    assert (put.page_no, put.lba, put.n_blocks, put.payload_len) == (
        7, 100, 2, 5000,
    )
    assert put.algorithm == "lz4"
    assert put.applied_lsn == 42
    assert decode_alloc(records[1].payload) == (100, 2)
    assert decode_index_remove(records[2].payload) == 7
    assert [r.lsn for r in records] == [1, 2, 3, 4]


def test_wal_segment_record_round_trip():
    from repro.storage.wal import decode_segment

    wal = WriteAheadLog()
    wal.append_segment(9, 123456, [(100, 32), (200, 8)], [5, 6, 7])
    record = next(iter(wal.replay()))
    assert record.type == WALRecordType.SEGMENT
    segment = decode_segment(record.payload)
    assert segment.segment_id == 9
    assert segment.compressed_len == 123456
    assert segment.pieces == ((100, 32), (200, 8))
    assert segment.page_nos == (5, 6, 7)


def test_wal_crc_detects_corruption():
    wal = WriteAheadLog()
    wal.append_alloc(1, 1)
    wal.corrupt_record(0)
    with pytest.raises(WALError):
        list(wal.replay())


def test_wal_truncate_below():
    wal = WriteAheadLog()
    for i in range(5):
        wal.append_alloc(i, 1)
    dropped = wal.truncate_below(4)
    assert dropped == 3
    assert [r.lsn for r in wal.replay()] == [4, 5]
    # New appends continue the LSN sequence.
    assert wal.append_checkpoint() == 6


def test_wal_tracks_bytes():
    wal = WriteAheadLog()
    wal.append_alloc(1, 1)
    assert wal.appended_bytes > 0


# --------------------------------------------------------------------- #
# Page index                                                             #
# --------------------------------------------------------------------- #


def entry(**kwargs):
    defaults = dict(
        status=CompressionInfo.NORMAL,
        algorithm="zstd",
        lba=0,
        n_blocks=2,
        payload_len=5000,
    )
    defaults.update(kwargs)
    return IndexEntry(**defaults)


def test_index_put_get_remove():
    index = PageIndex()
    assert index.get(1) is None
    old = index.put(1, entry())
    assert old is None
    assert index.get(1).algorithm == "zstd"
    replaced = index.put(1, entry(lba=10))
    assert replaced.lba == 0
    assert index.remove(1).lba == 10
    assert 1 not in index


def test_index_entry_validation():
    with pytest.raises(ValueError):
        entry(n_blocks=0)
    with pytest.raises(ValueError):
        entry(payload_len=0)
    with pytest.raises(ValueError):
        entry(status=CompressionInfo.NORMAL, algorithm=None)
    with pytest.raises(ValueError):
        entry(status=CompressionInfo.HEAVY, segment_id=None)


def test_index_heavy_entry_carries_segment_info():
    heavy = entry(
        status=CompressionInfo.HEAVY,
        algorithm=None,
        segment_id=3,
        page_in_segment=5,
    )
    index = PageIndex()
    index.put(9, heavy)
    assert index.get(9).segment_id == 3
    assert index.stored_blocks == 0  # heavy blocks counted per segment


def test_index_logical_bytes():
    index = PageIndex()
    index.put(1, entry())
    index.put(2, entry())
    assert index.logical_bytes == 2 * 16 * 1024


# --------------------------------------------------------------------- #
# Replication: the volume's majority-commit rule                         #
# --------------------------------------------------------------------- #


def make_store(leader_us=10.0, follower_us=(12.0, 20.0), per_kib_us=0.0):
    """A 3-replica volume whose redo persists take fixed times."""
    store = PolarStore(
        NodeConfig(),
        volume_bytes=64 * MiB,
        network=NetworkModel(one_way_us=5.0, per_kib_us=per_kib_us),
    )
    for node, latency in zip(store.nodes, (leader_us, *follower_us)):
        node.persist_redo = (
            lambda start, blob, latency=latency: start + latency
        )
    return store


def commit_redo(store, start_us=0.0, nbytes=64):
    record = RedoRecord(lsn=1, page_no=3, offset=0, data=b"x" * nbytes)
    return store.write_redo(start_us, [record])


def test_commit_waits_for_majority_not_all():
    # Leader done at 10; follower acks at 5+12+5=22 and 5+20+5=30.
    # Quorum = 2 (leader + fastest follower) => commit at 22, not 30.
    assert commit_redo(make_store()) == 22.0


def test_commit_bounded_by_leader_when_leader_slow():
    assert commit_redo(make_store(leader_us=50.0)) == 50.0


def test_one_follower_down_still_commits():
    store = make_store()
    store.fail_node(1)
    assert commit_redo(store) == 30.0  # must wait for the slow follower


def test_no_quorum_raises():
    store = make_store()
    store.fail_node(1)
    store.fail_node(2)
    with pytest.raises(RaftError, match="no quorum"):
        commit_redo(store)


def test_dead_leader_raises():
    store = make_store()
    engine = Engine()
    group = RaftGroup(engine, 3, seed=13, metrics=store.metrics).start()
    store.bind_engine(engine)
    store.attach_consensus(group)
    engine.run_until_idle(limit_us=40_000.0)
    store.fail_node(store.leader_index)
    # Until an election runs, the volume has no live leader to write to.
    with pytest.raises(RaftError, match="leader replica is down"):
        commit_redo(store, start_us=engine.now_us)


def test_payload_size_slows_replication():
    small = commit_redo(make_store(per_kib_us=1.0), nbytes=256)
    large = commit_redo(make_store(per_kib_us=1.0), nbytes=8 * 1024)
    assert large > small


def test_store_requires_a_replica():
    with pytest.raises(ValueError):
        PolarStore(NodeConfig(), volume_bytes=64 * MiB, replicas=0)
