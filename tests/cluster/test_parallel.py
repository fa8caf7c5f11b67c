"""Golden equality: the per-shard parallel cluster runtime must be
byte-for-byte indistinguishable from serial execution.

Every test here runs the same seeded schedule twice — once on
:class:`~repro.cluster.runtime.ClusterRuntime` and once on
:class:`~repro.cluster.parallel.ParallelClusterRuntime` with shards
pinned to different worker processes — and compares simulated clocks,
event sequence numbers, migration accounting, and per-shard metric
registries for exact equality."""

import itertools

import pytest

from repro.api import ReproConfig
from repro.cluster.parallel import ParallelClusterRuntime
from repro.cluster.runtime import ChunkState, ClusterRuntime
from repro.common.units import MiB
from repro.engine.core import EngineError, Timeout
from repro.obs import events as obs_events
from repro.storage import store as store_mod


def _config(shards=2, chunk_keys=16, **cluster_overrides):
    return ReproConfig.from_dict({
        "store": {"volume_bytes": 16 * MiB},
        "cluster": dict(
            {"shards": shards, "chunk_keys": chunk_keys},
            **cluster_overrides,
        ),
    })


def _fresh(workers, **kwargs):
    # Same node-name sequence for every leg: metric labels must line up
    # for registry equality (the perf harness does the same rewind).
    store_mod._node_counter = itertools.count()
    config = _config(**kwargs)
    if workers > 1:
        return ParallelClusterRuntime(config, workers=workers)
    return ClusterRuntime(config)


# -- construction & lifecycle ----------------------------------------------

def test_worker_count_clamps_to_shard_count():
    runtime = ParallelClusterRuntime(_config(shards=2), workers=8)
    try:
        assert runtime.workers == 2
    finally:
        runtime.close()


def test_close_is_idempotent_and_context_managed():
    with ParallelClusterRuntime(_config(shards=2), workers=2) as runtime:
        runtime.create_table("t")
        runtime.insert(0.0, "t", 1, b"v" * 32)
        runtime.close()
        runtime.close()


def test_lookahead_must_be_positive():
    with pytest.raises(EngineError, match="lookahead"):
        ParallelClusterRuntime(
            _config(shards=2), workers=2, lookahead_us=0.0
        )


def test_overstated_lookahead_fails_loudly_not_silently():
    # A floor far above the real commit latency must raise the
    # certificate error on the first remote write, never diverge.
    runtime = ParallelClusterRuntime(
        _config(shards=2), workers=2, lookahead_us=1e6
    )
    try:
        runtime.create_table("t")
        with pytest.raises(EngineError, match="lookahead certificate"):
            runtime.insert(0.0, "t", 1, b"v" * 32)
    finally:
        runtime.close()


# -- golden equality: basic read/write/delete -------------------------------

def _crud_trace(runtime):
    engine = runtime.engine
    runtime.create_table("t")
    trace = []
    for key in range(24):
        result = runtime.insert(
            engine.now_us, "t", key, bytes([key]) * (50 + key)
        )
        trace.append(("insert", key, result.done_us))
    for key in range(0, 24, 3):
        result = runtime.select(engine.now_us, "t", key)
        trace.append(("select", key, result.done_us, result.value))
    runtime.delete(engine.now_us, "t", 5)
    trace.append(("now", engine.now_us, engine._seq))
    trace.append(("ckpt", runtime.checkpoint(engine.now_us)))
    return trace


def test_crud_trace_matches_serial():
    serial = _fresh(1, shards=3, chunk_keys=4)
    expected = _crud_trace(serial)
    for workers in (2, 3):
        runtime = _fresh(workers, shards=3, chunk_keys=4)
        try:
            assert _crud_trace(runtime) == expected
            assert runtime.engine._seq == serial.engine._seq
        finally:
            runtime.close()


def test_per_shard_metric_registries_match_serial():
    serial = _fresh(1, shards=3, chunk_keys=4)
    _crud_trace(serial)
    runtime = _fresh(2, shards=3, chunk_keys=4)
    try:
        _crud_trace(runtime)
        assert runtime.store_metrics_states() == serial.store_metrics_states()
    finally:
        runtime.close()


# -- golden equality: cross-worker live migration (ISSUE satellite) ---------

def _migration_run(runtime):
    """The concurrent-writers migration schedule from test_runtime.py,
    instrumented: returns everything the ISSUE pins — dirty-journal
    catch-up rounds, cutover completion time, moved/caught-up pages —
    plus the full migration event stream."""
    engine = runtime.engine
    runtime.create_table("t")
    expected = {}
    for key in range(16):
        value = bytes([key]) * 200
        runtime.insert(engine.now_us, "t", key, value)
        expected[("t", key)] = value
    chunk = next(iter(runtime.chunks.values()))
    target_id = 1 - chunk.shard_id

    def writer():
        for i in range(30):
            key = i % 16
            value = bytes([(key + 100) % 256]) * 150
            yield from runtime.insert_proc("t", key, value)
            expected[("t", key)] = value
            yield Timeout(3.0)

    procs = [
        engine.spawn(writer()),
        engine.spawn(runtime.migrate_chunk_proc(chunk.chunk_id, target_id)),
    ]
    engine.run_until_complete(procs)
    assert chunk.shard_id == target_id
    assert chunk.state is ChunkState.SERVING
    assert runtime.verify_readable(expected) == len(expected)
    recorder = obs_events.recorder_active()
    migration_events = [
        (event.t_us, event.kind, dict(event.fields))
        for event in recorder.events(channel="migration")
    ]
    return {
        "copied": procs[1].value,
        "done_us": engine.now_us,
        "seq": engine._seq,
        "catchup_pages": runtime.metrics.counter(
            "cluster.migration.catchup_pages"
        ).value,
        "migration_events": migration_events,
    }


def _migration_summary(workers):
    runtime = _fresh(workers, shards=2, chunk_keys=16)
    obs_events.activate(obs_events.FlightRecorder(capacity=16384))
    try:
        return _migration_run(runtime)
    finally:
        obs_events.deactivate()
        runtime.close()


def test_cross_worker_migration_matches_serial():
    # shards=2, workers=2 pins shard 0 to worker 0 and shard 1 to
    # worker 1, so every migrated page crosses a process boundary: the
    # source read and the target write execute in different workers.
    serial = _migration_summary(1)
    # The schedule really exercised the dirty journal: writers landed
    # pages during the bulk copy, so catch-up rounds replayed deltas.
    assert serial["catchup_pages"] > 0
    rounds = [
        fields["rounds"]
        for _t, kind, fields in serial["migration_events"]
        if kind == "catchup_done"
    ]
    assert rounds and rounds[0] >= 1
    parallel = _migration_summary(2)
    assert parallel == serial
