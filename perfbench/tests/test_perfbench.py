"""Self-tests of the benchmark.

    python -m pytest perfbench/tests -q

They shrink the table, the buffer pool and the warm-up so that a whole
run of each workload takes seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from serve import ServerProcess  # noqa: E402

TINY_OPS = 120
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Metrics that must repeat exactly for one seed: they depend only on
#: the simulated model and the op stream, never on the wall clock.
EXACT_E2E = ("sim_p50_us", "sim_p99_us", "compression_ratio", "success_rate")


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(wl, "ROWS_PER_DOMAIN", 60)
    monkeypatch.setattr(wl, "BUFFER_POOL_PAGES", 4)
    monkeypatch.setattr(wl, "WARMUP_INSERTS", 200)
    monkeypatch.setattr(wl, "READBACK_SPAN", 50)


def _run(workload: str, seed: int, trace: int, tmp_path: Path) -> dict:
    workdir = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
    workdir.mkdir()
    result = run.run(workload, seed, TINY_OPS, trace, workdir)
    assert result["correct"], result["errors"]
    assert result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {(m["name"], m["unit"]) for m in declared} == {
        (name, m["unit"]) for name, m in result["metrics"].items()
    }
    return {name: m["value"] for name, m in result["metrics"].items()}


def _deterministic_layer_metrics(metrics: dict, workload: str) -> dict:
    keep = {}
    for name, value in metrics.items():
        if name.endswith(("_s", ".share", "_mb_per_s")) or name == "trace_overhead":
            continue
        if name.endswith(".calls") and workload == "served_ingest" and (
            name.startswith(("net.", "api."))
        ):
            # Socket reads split frames however the kernel delivers them.
            continue
        keep[name] = value
    return keep


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_repeats_simulated_metrics_and_counts(workload, tiny, tmp_path):
    first = _run(workload, 7, 0, tmp_path)
    second = _run(workload, 7, 0, tmp_path)
    assert {k: first[k] for k in EXACT_E2E} == {k: second[k] for k in EXACT_E2E}
    assert first["success_rate"] == 1.0

    traced = [_run(workload, 7, 1, tmp_path) for _ in range(2)]
    counts = [_deterministic_layer_metrics(m, workload) for m in traced]
    assert counts[0] == counts[1]
    for layer in layers.LAYERS:
        assert f"{layer}.self_s" in traced[0]
    if workload != "served_ingest":
        assert traced[0]["net.calls"] == 0
        assert traced[0]["net.self_s"] == 0.0
    else:
        assert traced[0]["net.server_s"] > 0
        assert traced[0]["engine.self_s"] > 0


def test_new_seed_changes_op_stream():
    domains = [[(d * 100 + k, bytes([d, k])) for k in range(100)] for d in range(4)]
    keys = [key for rows in domains for key, _ in rows]
    values = [value for rows in domains for _, value in rows]
    assert wl.point_read_ops(1, 200, keys) == wl.point_read_ops(1, 200, keys)
    assert wl.point_read_ops(1, 200, keys) != wl.point_read_ops(2, 200, keys)
    assert wl.update_mix_ops(1, 200, domains) != wl.update_mix_ops(2, 200, domains)
    assert wl.ingest_ops(1, 200, values, 0) != wl.ingest_ops(2, 200, values, 0)


class _CorruptOne:
    """Client proxy that returns one wrong select value."""

    def __init__(self, client, corrupt_at: int):
        self._client = client
        self._selects = 0
        self._corrupt_at = corrupt_at

    def __getattr__(self, name):
        return getattr(self._client, name)

    def select(self, table, key):
        result = self._client.select(table, key)
        self._selects += 1
        if self._selects != self._corrupt_at:
            return result
        wrong = bytearray(result.value)
        wrong[0] ^= 0x01
        return type(result)(result.done_us, result.io_reads,
                            result.redo_bytes, bytes(wrong))


def test_oracle_catches_one_wrong_value(tiny):
    from repro.api import PolarStore

    rows = [row for rows in wl.domain_rows() for row in rows]
    client = PolarStore.open(db={"buffer_pool_pages": wl.BUFFER_POOL_PAGES})
    client.create_table(wl.TABLE)
    client.bulk_load(wl.TABLE, rows)
    ops = wl.point_read_ops(3, 50, [key for key, _ in rows])
    oracle = wl.Oracle(rows)
    phase = wl.run_ops(_CorruptOne(client, corrupt_at=5), ops, oracle)
    assert phase.failed == 1
    assert oracle.mismatches == 1
    assert "select" in oracle.first_error
    assert oracle.read_back(client) == 0
    out = run.Slices()
    out.phase, out.setup_s, out.ratios = phase, [1.0], [1.0]
    result = run.end_to_end(out, served=False)
    assert result["correct"] is False
    assert result["metrics"]["success_rate"]["value"] == 1.0 - 1 / 50
    client.close()


def test_layer_clock_times_generators_and_nesting():
    clock = layers.LayerClock()
    clock.start()

    def inner(x):
        yield x
        value = yield x + 1
        return value * 2

    gen = clock.drive("db", inner(1))
    assert next(gen) == 1
    assert gen.send(None) == 2
    with pytest.raises(StopIteration) as stop:
        gen.send(21)
    assert stop.value.value == 42
    assert clock.calls["db"] == 3

    gen = clock.drive("db", inner(1))
    next(gen)
    with pytest.raises(KeyError):
        gen.throw(KeyError("x"))

    def outer():
        return clock.call("compression", sum, ([1, 2],), {})

    assert clock.call("storage", outer, (), {}) == 3
    clock.stop()
    assert clock.self_s["storage"] >= 0 and clock.self_s["compression"] >= 0
    assert clock.child == pytest.approx(
        sum(clock.self_s.values()), rel=1e-9, abs=1e-12
    )


def test_server_exit_is_loud(tmp_path):
    with pytest.raises(RuntimeError, match="exited early"):
        with ServerProcess(tmp_path) as server:
            server_pid = server.proc.pid
            os.kill(server_pid, signal.SIGKILL)
            server.proc.wait(timeout=30)
            server.check_alive()


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point_read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
