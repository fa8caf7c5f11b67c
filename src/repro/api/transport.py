"""The transport boundary: one client surface, local or remote.

:class:`~repro.api.client.PolarStoreClient` used to *be* the dispatch
logic — it owned the backend objects and the sync-vs-proc routing.
This module extracts that into a :class:`Transport`, so the same typed
client rides on either side of a socket:

* :class:`LocalTransport` — in-process access, built from a
  :class:`~repro.api.config.ReproConfig` exactly as ``PolarStore.open``
  always did.  It owns the volume/cluster, its event kernel, and the
  simulated-time cursor, and executes ops directly.
* :class:`repro.net.client.SocketTransport` — remote access over the
  ``repro.net`` wire protocol, returned by ``PolarStore.connect``.
  Same ops, same result shapes, same simulated timings (golden-tested
  to equality); the server executes against its own LocalTransport.

Everything a transport cannot offer (direct backend handles, engine
binding, ``*_proc`` generators) raises
:class:`TransportCapabilityError` instead of pretending — remote
callers get a actionable message, not an ``AttributeError``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.api.config import ReproConfig
from repro.api.factory import build_cluster, build_db
from repro.common.errors import ReproError

#: Ops a transport must implement (the PolarStoreClient data plane).
TRANSPORT_OPS = (
    "create_table",
    "insert",
    "update",
    "delete",
    "select",
    "range_select",
    "bulk_load",
    "checkpoint",
    "write_page",
    "read_page",
    "archive_range",
    "scrub",
    "compression_ratio",
    "space",
)


class TransportError(ReproError):
    """A transport-level failure (connection, timeout, remote error)."""


class TransportCapabilityError(TransportError):
    """The operation needs a capability this transport does not have."""


class AdmissionError(TransportError):
    """Rejected by admission control (server window or client queue)."""


class TransportTimeout(TransportError):
    """A request exceeded its wall-clock deadline."""


class Transport:
    """What a :class:`PolarStoreClient` needs from its backing deployment.

    A transport executes typed ops at the client's simulated-time
    cursor and owns that cursor.  ``call`` is the synchronous path
    (used by every client method); transports that can pipeline
    (sockets) additionally implement ``submit``.
    """

    #: ``"local"`` or ``"socket"`` — for introspection and error text.
    kind: str = "abstract"

    # -- simulated time ----------------------------------------------------

    @property
    def now_us(self) -> float:
        raise NotImplementedError

    def advance_to(self, now_us: float) -> float:
        raise NotImplementedError

    # -- ops ---------------------------------------------------------------

    def call(self, op: str, /, *args, **kwargs):
        """Execute one op at the cursor and return its result object."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    # -- introspection -----------------------------------------------------

    @property
    def sharded(self) -> bool:
        raise NotImplementedError

    def describe(self) -> Dict[str, object]:
        """Transport kind plus deployment shape (for logs and errors)."""
        return {"kind": self.kind, "sharded": self.sharded}

    # -- capability gating -------------------------------------------------

    def _no_capability(self, what: str) -> TransportCapabilityError:
        return TransportCapabilityError(
            f"{what} needs in-process access; this client is connected "
            f"over a {self.kind!r} transport"
        )

    @property
    def config(self) -> Optional[ReproConfig]:
        raise self._no_capability("the deployment config")

    @property
    def db(self):
        raise self._no_capability("the PolarDB handle")

    @property
    def runtime(self):
        raise self._no_capability("the ClusterRuntime handle")

    @property
    def store(self):
        raise self._no_capability("the raw volume")

    @property
    def engine(self):
        raise self._no_capability("the event kernel")

    @property
    def metrics(self):
        raise self._no_capability("the metrics registry")


class LocalTransport(Transport):
    """In-process execution: the dispatch previously inlined in the
    client, behind the transport boundary.

    Keeps the historical seams hidden exactly as before: the simulated
    time cursor, running every DML op as one engine process, and
    single-volume vs sharded-cluster backends behind the same ops.
    """

    kind = "local"

    def __init__(self, config: ReproConfig) -> None:
        self._config = config.validate()
        self._now_us = 0.0
        self._sharded = config.cluster.shards >= 2
        if self._sharded:
            self._runtime = build_cluster(config)
            self._db = None
            self._engine = self._runtime.engine
        else:
            self._runtime = None
            self._db = build_db(config)
            self._engine = self._db.engine

    # -- locals the client (and the net server) may reach ------------------

    @property
    def config(self) -> ReproConfig:
        return self._config

    @property
    def db(self):
        return self._db

    @property
    def runtime(self):
        return self._runtime

    @property
    def engine(self):
        return self._engine

    @property
    def sharded(self) -> bool:
        return self._sharded

    @property
    def metrics(self):
        if self._sharded:
            return self._runtime.metrics
        return self._db.metrics

    @property
    def store(self):
        if self._sharded:
            raise ReproError(
                "a sharded client has no single volume; use .runtime"
            )
        return self._db.store

    def describe(self) -> Dict[str, object]:
        doc = super().describe()
        doc["engine"] = True
        doc["shards"] = self._config.cluster.shards
        return doc

    # -- simulated time ----------------------------------------------------

    @property
    def now_us(self) -> float:
        return max(self._now_us, self._engine.now_us)

    def advance_to(self, now_us: float) -> float:
        self._now_us = max(self._now_us, now_us)
        self._engine.advance_to(self._now_us)
        return self.now_us

    # -- engine adoption (workload-driver compatibility) -------------------

    def adopt_engine(self, engine, **kwargs) -> None:
        if self._sharded:
            if engine is not self._runtime.engine:
                raise ReproError(
                    "a sharded client is bound to its runtime's engine; "
                    "pass engine=client.engine to the workload driver"
                )
            return
        self._engine = engine
        self._db.bind_engine(engine, **kwargs)

    # -- dispatch ----------------------------------------------------------

    def backend(self):
        return self._runtime if self._sharded else self._db

    def call(self, op: str, /, *args, **kwargs):
        handler = getattr(self, "_op_" + op, None)
        if handler is None:
            raise ReproError(f"unknown transport op {op!r}")
        return handler(*args, **kwargs)

    def _dispatch(self, op: str, *args, **kwargs):
        """Run one DML op as an engine process at the cursor."""
        result = self._engine.run_at(
            self._now_us, self.proc(op, *args, **kwargs)
        )
        self._now_us = max(self._now_us, self._engine.now_us)
        return result

    def proc(self, op: str, *args, **kwargs):
        """The engine-native generator for one op (workload drivers)."""
        return getattr(self.backend(), op + "_proc")(*args, **kwargs)

    # -- op handlers -------------------------------------------------------

    def _op_create_table(self, table: str) -> None:
        self.backend().create_table(table)

    def _op_insert(self, table: str, key: int, value: bytes):
        return self._dispatch("insert", table, key, bytes(value))

    def _op_update(self, table: str, key: int, value: bytes):
        return self._dispatch("update", table, key, bytes(value))

    def _op_delete(self, table: str, key: int):
        return self._dispatch("delete", table, key)

    def _op_select(self, table: str, key: int, ro_index: int = -1):
        if self._sharded:
            return self._dispatch("select", table, key)
        return self._dispatch("select", table, key, ro_index=ro_index)

    def _op_range_select(self, table: str, low: int, high: int):
        return self._dispatch("range_select", table, low, high)

    def _op_bulk_load(self, table: str, rows) -> float:
        backend = self.backend()
        self._engine.advance_to(self._now_us)
        done = backend.bulk_load(
            self.now_us, table, [(k, bytes(v)) for k, v in rows]
        )
        self._now_us = max(self._now_us, done)
        return done

    def _op_checkpoint(self) -> float:
        done = self.backend().checkpoint(self.now_us)
        self._now_us = max(self._now_us, done)
        return done

    def _op_write_page(self, page_no: int, data: bytes, **kwargs):
        committed = self.store.write_page(
            self.now_us, page_no, bytes(data), **kwargs
        )
        self._now_us = max(self._now_us, committed.commit_us)
        return committed

    def _op_read_page(self, page_no: int):
        result = self.store.read_page(self.now_us, page_no)
        self._now_us = max(self._now_us, result.done_us)
        return result

    def _op_archive_range(self, page_nos) -> float:
        done = self.store.archive_range(self.now_us, list(page_nos))
        self._now_us = max(self._now_us, done)
        return done

    def _op_scrub(self) -> float:
        done = self.store.scrub(self.now_us)
        self._now_us = max(self._now_us, done)
        return done

    def _op_compression_ratio(self) -> float:
        if self._sharded:
            return self._runtime.compression_ratio()
        return self._db.compression_ratio()

    def _op_space(self):
        if self._sharded:
            return (
                sum(s.logical_used for s in self._runtime.shards),
                sum(s.physical_used for s in self._runtime.shards),
            )
        return (self._db.logical_bytes, self._db.physical_bytes)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release backend references (idempotent)."""
        self._db = None
        self._runtime = None
        self._engine = None


__all__ = [
    "AdmissionError",
    "LocalTransport",
    "TRANSPORT_OPS",
    "Transport",
    "TransportCapabilityError",
    "TransportError",
    "TransportTimeout",
]
