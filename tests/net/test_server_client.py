"""The serving layer end to end: loopback server, pooled client,
golden equivalence against in-process access."""

import socket
import threading

import pytest

from repro.api import (
    PolarStore,
    ReproConfig,
    TransportCapabilityError,
    TransportError,
    TransportTimeout,
)
from repro.net.client import SocketTransport, parse_addr
from repro.net.server import serve_in_thread


def _config(**doc):
    return ReproConfig.from_dict(doc)


@pytest.fixture()
def server():
    handle = serve_in_thread(_config(), port=0)
    yield handle
    handle.stop()


@pytest.fixture()
def client(server):
    handle = PolarStore.connect(server.addr, timeout_s=10.0)
    yield handle
    handle.close()


def test_parse_addr_forms():
    assert parse_addr("127.0.0.1:7411") == ("127.0.0.1", 7411)
    assert parse_addr(("localhost", 9)) == ("localhost", 9)
    with pytest.raises(TransportError):
        parse_addr("no-port")


def test_handshake_and_basic_ops(client):
    assert client.transport.kind == "socket"
    assert client.transport.pool.hello["version"] == 1
    assert client.sharded is False
    client.create_table("t")
    insert = client.insert("t", 1, b"payload")
    assert insert.redo_bytes > 0
    select = client.select("t", 1)
    assert select.value == b"payload"
    assert select.done_us > insert.done_us
    assert client.now_us >= select.done_us
    assert client.compression_ratio() > 0.0
    assert client.transport.ping() >= 0.0


def test_remote_errors_are_per_request(client):
    client.create_table("t")
    with pytest.raises(TransportError, match="update of missing key"):
        client.update("t", 404, b"x")
    # The connection survives the failed request.
    assert client.insert("t", 404, b"x").done_us > 0


def test_capability_errors_on_remote_client(client):
    for access in (
        lambda: client.db,
        lambda: client.store,
        lambda: client.runtime,
        lambda: client.engine,
        lambda: client.metrics,
        lambda: client.config,
        lambda: client.bind_engine(object()),
        lambda: client.insert_proc("t", 1, b"v"),
        lambda: client.write_page(0, b"p", mode="heavy"),
    ):
        with pytest.raises(TransportCapabilityError):
            access()


def test_golden_equivalence_local_vs_socket(server):
    """The acceptance gate: one seeded op sequence produces identical
    payload bytes and simulated timings over both transports."""
    ops = [
        ("insert", 1, b"a" * 48),
        ("insert", 2, b"b" * 48),
        ("select", 1),
        ("update", 1, b"c" * 48),
        ("select", 1),
        ("delete", 2),
        ("range_select", 0, 10),
    ]

    def drive(handle):
        handle.create_table("g")
        trace = []
        for name, *args in ops:
            result = getattr(handle, name)("g", *args)
            trace.append(
                (result.done_us, result.io_reads,
                 result.redo_bytes, result.value)
            )
        trace.append(round(handle.compression_ratio(), 12))
        trace.append((handle.logical_bytes, handle.physical_bytes))
        trace.append(handle.checkpoint())
        return trace

    local = PolarStore.open(_config())
    golden = drive(local)
    remote = PolarStore.connect(server.addr, timeout_s=10.0)
    try:
        assert drive(remote) == golden
    finally:
        remote.close()


def test_sharded_deployment_over_socket():
    handle = serve_in_thread(_config(cluster={"shards": 2}), port=0)
    client = PolarStore.connect(handle.addr, timeout_s=10.0)
    try:
        assert client.sharded is True
        client.create_table("t")
        client.insert("t", 3, b"sharded-row")
        assert client.select("t", 3).value == b"sharded-row"
        logical, physical = client.transport.call("space")
        assert logical >= 0 and physical >= 0
    finally:
        client.close()
        handle.stop()


def test_pipelined_submit_flush_and_rejection():
    handle = serve_in_thread(_config(net={"window": 4}), port=0)
    transport = SocketTransport(handle.addr, timeout_s=10.0)
    try:
        transport.call("create_table", "t")
        futures = [
            transport.submit("insert", "t", i, b"z" * 24,
                             arrival_us=float(i))
            for i in range(32)
        ]
        transport.flush()
        statuses = [transport.pool.wait(f) for f in futures]
        admitted = [r for r in statuses if r.ok]
        rejected = [r for r in statuses if r.rejected]
        assert len(admitted) + len(rejected) == 32
        assert rejected, "a window of 4 must shed simultaneous arrivals"
        assert all(r.queue_depth >= 4 for r in rejected)
        for response in admitted:
            assert response.done_us >= response.arrival_us
    finally:
        transport.close()
        handle.stop()


def test_stats_reflect_admission_accounting():
    handle = serve_in_thread(_config(net={"window": 2}), port=0)
    transport = SocketTransport(handle.addr, timeout_s=10.0)
    try:
        transport.call("create_table", "t")
        futures = [
            transport.submit("insert", "t", i, b"s" * 8, arrival_us=0.0)
            for i in range(6)
        ]
        transport.flush()
        for future in futures:
            transport.pool.wait(future)
        stats = transport.stats()
        assert stats["admitted"] == 2
        assert stats["rejected"] == 4
        assert stats["completed"] == 2
        assert stats["queue_depth"] == 0
    finally:
        transport.close()
        handle.stop()


def test_mid_stream_disconnect_fails_inflight_without_hanging(server):
    transport = SocketTransport(server.addr, connections=1, timeout_s=10.0)
    try:
        transport.call("create_table", "t")
        # Park requests the server will never answer on this connection:
        # pipelined ops whose completions wait on a future drain...
        futures = [
            transport.submit("insert", "t", i, b"h" * 16, arrival_us=0.0)
            for i in range(3)
        ]
        # ...then sever the TCP stream underneath them.
        async def sever():
            for conn in transport.pool._conns:
                conn.writer.close()

        transport.pool._run(sever(), timeout=5.0)
        for future in futures:
            with pytest.raises(TransportError):
                transport.pool.wait(future, timeout_s=5.0)
    finally:
        transport.close()


def test_timeout_against_a_mute_server():
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(4)
    accepted = []

    def accept_loop():
        try:
            while True:
                conn, _ = listener.accept()
                accepted.append(conn)  # read nothing, reply nothing
        except OSError:
            pass

    thread = threading.Thread(target=accept_loop, daemon=True)
    thread.start()
    try:
        with pytest.raises((TransportTimeout, TransportError)):
            SocketTransport(
                listener.getsockname(), connections=1, timeout_s=0.5
            )
    finally:
        listener.close()
        for conn in accepted:
            conn.close()


def test_connect_refused_is_a_transport_error():
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    free_port = probe.getsockname()[1]
    probe.close()
    with pytest.raises(TransportError):
        SocketTransport(("127.0.0.1", free_port), timeout_s=2.0)
