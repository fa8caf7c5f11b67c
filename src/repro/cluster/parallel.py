"""Per-shard engine workers behind the serial cluster control plane.

:class:`ParallelClusterRuntime` is a :class:`ClusterRuntime` whose
replica groups live in forked worker processes.  The split follows the
code's own seams:

* **Control plane stays serial.**  Routing, chunk state machines,
  migration daemons, gates/quiesce events, the stream-token queue and the
  schedulers all run unchanged on one coordinator
  :class:`~repro.engine.parallel.ParallelEngine`.  That engine's heap is
  the *same* heap serial uses — only storage calls leave the process.

* **Data plane moves to workers.**  Shard ``i`` is hosted by worker
  ``i % workers``; each worker builds its stores after the fork (node
  name counters preset to the serial allocation, see ``_build_shards``)
  and serves storage ops FIFO over a pipe.

Determinism argument, in terms of the seams in ``cluster.runtime``:

1. Every store is a deterministic state machine over its *ordered
   sequence of synchronous calls* ``(op, start_us, args)`` — engine-bound
   or not, ``write_page``/``read_page``/``checkpoint`` compute
   analytically and schedule nothing on the engine heap.
2. The coordinator issues those calls in dispatch order, and each
   worker's FIFO preserves it, so per-shard call sequences equal serial's
   (a subsequence of the global dispatch order).
3. Writes complete asynchronously, but their wakeups reuse the sequence
   number reserved at issue (``ParallelEngine.remote``) and fire at the
   worker-computed ``commit_us`` — the exact ``(time_us, seq)`` key
   serial's ``sleep_until(commit_us)`` would have used.  The engine's
   conservative lookahead horizon (``parallel.lookahead_us``, certified
   on every reply) keeps any event that could race a pending commit from
   dispatching early.
4. Reads/drops/checkpoints block, which is literally serial's semantics
   (synchronous within one dispatch).  Overlap comes from blocking on
   one worker while other workers compute writes issued earlier —
   concurrent migration streams and fan-out checkpoints.

Hence per-shard state, simulated timestamps and engine sequence numbers
are all byte-identical to serial; the golden tests in
``tests/cluster/test_parallel.py`` and the perf harness's third leg
enforce it.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Dict, List, Optional

from repro.common.errors import ReproError
from repro.engine.core import EngineError
from repro.engine.parallel import (
    ParallelEngine,
    ParallelEngineGroup,
    merge_event_streams,
)
from repro.cluster.runtime import (
    ClusterRuntime,
    RuntimeChunk,
    ShardServer,
    drop_page,
)
from repro.obs.events import recorder_active
from repro.obs.metrics import MetricsRegistry

__all__ = ["ParallelClusterRuntime", "RemoteShardServer"]


class _RemotePayload:
    """Stands in for the codec payload bytes: call sites only take its
    length (wire-byte accounting), so the bytes stay in the worker."""

    __slots__ = ("_len",)

    def __init__(self, length: int):
        self._len = length

    def __len__(self) -> int:
        return self._len


class _RemotePrepared:
    __slots__ = ("device_bytes", "payload")

    def __init__(self, device_bytes: int, payload_len: int):
        self.device_bytes = device_bytes
        self.payload = _RemotePayload(payload_len)


class _RemoteCommitted:
    """Wire shape of a committed write: what ``_write_proc`` and
    ``_copy_keys`` consume from ``CommittedWrite``."""

    __slots__ = ("commit_us", "prepared")

    def __init__(self, commit_us: float, device_bytes: int,
                 payload_len: int):
        self.commit_us = commit_us
        self.prepared = _RemotePrepared(device_bytes, payload_len)


class _RemoteRead:
    __slots__ = ("done_us", "data", "io_reads")

    def __init__(self, done_us: float, data: bytes, io_reads: int):
        self.done_us = done_us
        self.data = data
        self.io_reads = io_reads


class _RemoteStoreHandle:
    """The ``shard.store`` slot of a remote shard: routing identity only.

    Every real storage call goes through the runtime's seams; anything
    else touching ``shard.store`` on a parallel runtime is a bug, and a
    loud ``AttributeError`` beats silently reading a dead local store.
    """

    __slots__ = ("shard_id", "worker_id")

    def __init__(self, shard_id: int, worker_id: int):
        self.shard_id = shard_id
        self.worker_id = worker_id

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RemoteStore(shard={self.shard_id}, worker={self.worker_id})"


class RemoteShardServer(ShardServer):
    """A :class:`ShardServer` whose volume lives in a worker process."""

    def __init__(self, shard_id: int, runtime: "ParallelClusterRuntime",
                 worker_id: int, logical_capacity: int,
                 physical_capacity: int):
        super().__init__(
            shard_id,
            _RemoteStoreHandle(shard_id, worker_id),
            logical_capacity=logical_capacity,
            physical_capacity=physical_capacity,
        )
        self.runtime = runtime
        self.worker_id = worker_id

    def chunk_physical_bytes(self, chunk: RuntimeChunk) -> int:
        pages = list(chunk.rows.values())
        if not pages:
            return 0
        sizes = self.runtime._call(
            self.worker_id, "stored", (self.shard_id, pages)
        )
        return sum(sizes)


def _capture_slo(evaluator) -> Dict:
    """Picklable capture of an SLO evaluator for cross-process merge
    (counterpart of :func:`repro.engine.parallel.merge_slo_states`)."""
    return {
        "history": {
            name: [tuple(point) for point in points]
            for name, points in evaluator.history.items()
        },
        "evaluations": evaluator.evaluations,
        "alerts": evaluator.alerts,
    }


class ParallelClusterRuntime(ClusterRuntime):
    """The serial cluster control plane over per-shard engine workers."""

    def __init__(
        self,
        config=None,
        workers: int = 2,
        lookahead_us: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if workers < 1:
            raise ReproError(f"workers must be >= 1: {workers}")
        self._requested_workers = workers
        self._lookahead_override = lookahead_us
        #: Per-worker FIFO of in-flight requests awaiting replies: items
        #: are ("call", RemoteCall) for asynchronous writes and
        #: ("sync", waiter-dict) for blocking ops.
        self._pending: Dict[int, deque] = {}
        self._group: Optional[ParallelEngineGroup] = None
        self._closed = False
        # Validate the lookahead BEFORE super().__init__ forks the
        # worker fleet: a bad floor must not leak worker processes.
        if lookahead_us is not None:
            self.lookahead_us = float(lookahead_us)
        elif config is not None and hasattr(config, "parallel"):
            self.lookahead_us = float(config.parallel.lookahead_us)
        else:
            from repro.api.config import ParallelSection

            self.lookahead_us = float(ParallelSection().lookahead_us)
        if self.lookahead_us <= 0:
            raise EngineError(
                f"parallel lookahead must be positive: {self.lookahead_us}"
            )
        super().__init__(
            config=config, engine=ParallelEngine(), metrics=metrics
        )
        self.engine.reply_pump = self._reply_pump

    # ------------------------------------------------------------------ #
    # Worker fleet                                                        #
    # ------------------------------------------------------------------ #

    def _build_shards(
        self, cluster_cfg, store_cfg, physical_capacity: int
    ) -> List[ShardServer]:
        import repro.storage.store as store_mod

        # Reserve the node-name bases serial construction would have
        # assigned (shard i's nodes are ``node-{base_i*100 + r}``): the
        # coordinator consumes the shared counter so later in-process
        # builds keep their serial names, and each worker replays its
        # shards' reserved values after the fork.
        bases = [
            next(store_mod._node_counter)
            for _ in range(cluster_cfg.shards)
        ]
        workers = max(
            1, min(self._requested_workers, cluster_cfg.shards)
        )
        self.workers = workers
        config = self.config

        def factory(worker_id: int):
            mine = [
                (sid, bases[sid])
                for sid in range(cluster_cfg.shards)
                if sid % workers == worker_id
            ]
            state: Dict = {}

            def service(op: str, payload):
                if op == "build":
                    from repro.api.factory import build_store, engine_binding
                    from repro.engine import Engine

                    local_engine = Engine()
                    stores = {}
                    for sid, base in mine:
                        store_mod._node_counter = itertools.count(base)
                        store = build_store(config, seed_offset=1000 * sid)
                        store.bind_engine(
                            local_engine, **engine_binding(config)
                        )
                        stores[sid] = store
                    state["stores"] = stores
                    state["engine"] = local_engine
                    return sorted(stores)
                stores = state["stores"]
                if op == "write":
                    sid, start_us, page_no, image = payload
                    state["engine"].advance_to(start_us)
                    committed = stores[sid].write_page(
                        start_us, page_no, image
                    )
                    return (
                        committed.commit_us,
                        committed.prepared.device_bytes,
                        len(committed.prepared.payload),
                    )
                if op == "read":
                    sid, start_us, page_no = payload
                    state["engine"].advance_to(start_us)
                    result = stores[sid].read_page(start_us, page_no)
                    return (
                        result.done_us, bytes(result.data), result.io_reads
                    )
                if op == "drop":
                    sid, page_no = payload
                    drop_page(stores[sid], page_no)
                    return None
                if op == "checkpoint":
                    start_us = payload
                    state["engine"].advance_to(start_us)
                    done = start_us
                    for sid in sorted(stores):
                        done = max(done, stores[sid].checkpoint(start_us))
                    return done
                if op == "stored":
                    sid, pages = payload
                    leader = stores[sid].leader
                    return [leader.page_stored_bytes(p) for p in pages]
                if op == "obs":
                    rec = recorder_active()
                    return {
                        "metrics": {
                            sid: stores[sid].metrics.state()
                            for sid in sorted(stores)
                        },
                        "events": list(rec.events()) if rec else [],
                        "nodes": {
                            sid: [n.name for n in stores[sid].nodes]
                            for sid in sorted(stores)
                        },
                    }
                raise ValueError(f"unknown op {op!r}")  # pragma: no cover

            return service

        self._group = ParallelEngineGroup(workers, factory)
        self._pending = {w: deque() for w in range(workers)}
        self._group.broadcast("build")
        return [
            RemoteShardServer(
                i,
                self,
                i % workers,
                logical_capacity=store_cfg.volume_bytes,
                physical_capacity=physical_capacity,
            )
            for i in range(cluster_cfg.shards)
        ]

    # ------------------------------------------------------------------ #
    # Reply plumbing                                                      #
    # ------------------------------------------------------------------ #

    def _route_reply(self, worker_id: int) -> None:
        """Consume the next reply from ``worker_id`` and route it."""
        value = self._group.workers[worker_id].next_reply()
        kind, target = self._pending[worker_id].popleft()
        if kind == "call":
            self.engine.deliver(
                target, _RemoteCommitted(value[0], value[1], value[2])
            )
        else:
            target["value"] = value
            target["done"] = True

    def _reply_pump(self, block: bool) -> None:
        """The coordinator engine's reply source (``Engine.reply_pump``).

        Non-blocking: drain every reply already sitting in a pipe.
        Blocking: wait (via ``select``) until at least one worker with
        in-flight requests replies, then drain what arrived.
        """
        import select as _select

        busy = [
            w for w in self._group.workers
            if self._pending[w.worker_id]
        ]
        progressed = False
        for worker in busy:
            while self._pending[worker.worker_id] and worker.reply_ready():
                self._route_reply(worker.worker_id)
                progressed = True
        if block and not progressed:
            fds = {w.fileno(): w for w in busy}
            ready, _, _ = _select.select(list(fds), [], [])
            for fd in ready:
                self._route_reply(fds[fd].worker_id)

    def _call(self, worker_id: int, op: str, payload):
        """Blocking request: FIFO order means earlier asynchronous
        replies on the same worker drain (and deliver to the engine) on
        the way to ours."""
        worker = self._group.workers[worker_id]
        waiter = {"done": False, "value": None}
        worker.request(op, payload)
        self._pending[worker_id].append(("sync", waiter))
        while not waiter["done"]:
            self._route_reply(worker_id)
        return waiter["value"]

    def _broadcast(self, op: str, payload=None) -> List:
        """Fan an op out to every worker, then gather in worker order.

        Goes through the per-worker FIFOs (unlike the raw group
        broadcast), so asynchronous write replies still in flight are
        routed to the engine on the way — and all workers compute the op
        concurrently.
        """
        waiters = []
        for worker in self._group.workers:
            worker.request(op, payload)
            waiter = {"done": False, "value": None}
            self._pending[worker.worker_id].append(("sync", waiter))
            waiters.append(waiter)
        results = []
        for worker, waiter in zip(self._group.workers, waiters):
            while not waiter["done"]:
                self._route_reply(worker.worker_id)
            results.append(waiter["value"])
        return results

    # ------------------------------------------------------------------ #
    # Storage seams (the overrides)                                       #
    # ------------------------------------------------------------------ #

    def _commit_write(self, shard: ShardServer, page_no: int, image: bytes):
        engine = self.engine
        call = engine.remote(
            self.lookahead_us,
            lambda committed: committed.commit_us,
            label=f"write:shard{shard.shard_id}:page{page_no}",
        )
        worker_id = shard.worker_id
        self._group.workers[worker_id].request(
            "write", (shard.shard_id, engine.now_us, page_no, bytes(image))
        )
        self._pending[worker_id].append(("call", call))
        committed = yield call
        return committed

    def _read_page(self, shard: ShardServer, page_no: int):
        engine = self.engine
        result = self._call(
            shard.worker_id, "read", (shard.shard_id, engine.now_us, page_no)
        )
        read = _RemoteRead(result[0], result[1], result[2])
        if read.done_us > engine.now_us:
            yield engine.sleep_until(read.done_us)
        return read

    def _drop_page(self, store, page_no: int) -> None:
        self._call(store.worker_id, "drop", (store.shard_id, page_no))

    def _checkpoint_shards(self, start_us: float) -> float:
        # Shard checkpoints are independent (disjoint stores, identical
        # start instant), so this is a genuine parallel phase: one
        # request per worker, then a gather.
        dones = self._broadcast("checkpoint", start_us)
        return max([start_us] + [float(done) for done in dones])

    # ------------------------------------------------------------------ #
    # Barrier merges + lifecycle                                          #
    # ------------------------------------------------------------------ #

    def _checkpoint_quiescent(self) -> None:
        if self.engine.outstanding:
            raise ReproError(
                "barrier with remote writes outstanding: drain the engine "
                "before merging observability"
            )

    def fetch_observability(self) -> List[Dict]:
        """Barrier: every worker's metrics/recorder capture, by worker id."""
        self._checkpoint_quiescent()
        return self._broadcast("obs")

    def store_metrics_states(self) -> Dict[int, List[Dict]]:
        merged: Dict[int, List[Dict]] = {}
        for capture in self.fetch_observability():
            for sid, state in capture["metrics"].items():
                merged[int(sid)] = state
        return merged

    def merged_store_registry(self) -> MetricsRegistry:
        """All shard-store instruments folded into one registry in a
        single grouped pass — bit-identical under any worker/shard
        permutation (``MetricsRegistry.merge_states``)."""
        registry = MetricsRegistry()
        registry.merge_states([
            capture["metrics"][sid]
            for capture in self.fetch_observability()
            for sid in sorted(capture["metrics"])
        ])
        return registry

    def close(self) -> None:
        """Merge worker flight-recorder rings into the coordinator's
        recorder (stable worker-id tiebreak), then reap the workers."""
        if self._closed or self._group is None:
            return
        self._closed = True
        try:
            rec = recorder_active()
            if rec is not None:
                captures = self.fetch_observability()
                rec.splice(merge_event_streams(
                    [capture["events"] for capture in captures]
                ))
        finally:
            self._group.close()

    def __enter__(self) -> "ParallelClusterRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - last-resort reaping
        try:
            self.close()
        except Exception:
            pass
