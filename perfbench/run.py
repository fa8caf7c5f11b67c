#!/usr/bin/env python3
"""The repository benchmark: three workloads through the public client.

    python3 perfbench/run.py --workload point_read --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics of an uninstrumented run; ``--trace 1`` prints the per-layer
metrics of a traced run (see ``perfbench/README.md``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the environment.  The exit code is 0 only for a correct run.

A run sets the deployment up three times.  The timed ops are split into
three slices, one timed on each fresh deployment, so the measurement
spans the whole run instead of one stretch of it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import ExitStack
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("point_read", "update_mix", "served_ingest")
#: Set-ups per run, each timing one slice of the ops; ``setup_s`` is
#: the median of their set-up times.
SLICES = 3
#: The traced run's layer self times must cover this share of its wall
#: time (the rest is the benchmark's own loop and oracle).
SELF_TIME_COVERAGE = 0.90
#: The end-to-end metrics (``--trace 0``) and their units.
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "sim_p50_us": "us",
    "sim_p99_us": "us",
    "compression_ratio": "ratio",
    "success_rate": "fraction",
    "peak_rss_mb": "MiB",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    from serve import PINNED_ENV

    for name in PINNED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))

    import workloads as wl

    count = wl.timed_ops(args.workload, args.seconds)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result = run(args.workload, args.seed, count, args.trace, workdir)
    finally:
        for path in sorted(workdir.iterdir()):
            path.unlink()
        workdir.rmdir()
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timed_ops": count,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "errors": result.pop("errors"),
    }
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def run(workload: str, seed: int, count: int, trace: int, workdir: Path) -> dict:
    """One run: end-to-end metrics, or per-layer metrics when ``trace``."""
    if workload == "served_ingest":
        target = Served(workdir)
    else:
        target = InProcess(workload)
    sizes = [count * (k + 1) // SLICES - count * k // SLICES
             for k in range(SLICES)]
    streams = [target.ops(f"{seed}:{k}", n) for k, n in enumerate(sizes)]
    if not trace:
        return end_to_end(run_slices(target, streams), served=target.served)
    from layers import LayerClock

    # The untraced reference for the overhead: the first slice alone.
    plain = run_slices(target, streams[:1])
    clock = LayerClock().install()
    try:
        traced = run_slices(target, streams, clock)
    finally:
        clock.uninstall()
    return per_layer(traced, plain, clock.snapshot())


# --------------------------------------------------------------------------
# Deployments
# --------------------------------------------------------------------------


class InProcess:
    """``PolarStore.open`` with the table bulk-loaded and checkpointed."""

    served = False

    def __init__(self, workload: str) -> None:
        import workloads as wl

        self.workload = workload
        self.domains = wl.domain_rows()
        self.rows = [row for rows in self.domains for row in rows]

    def ops(self, stream: str, count: int):
        import workloads as wl

        if self.workload == "point_read":
            return wl.point_read_ops(
                stream, count, [key for key, _ in self.rows]
            )
        return wl.update_mix_ops(stream, count, self.domains)

    def open(self, stack: ExitStack, trace_out=None):
        import workloads as wl
        from repro.api import PolarStore

        client = PolarStore.open(
            db={"buffer_pool_pages": wl.BUFFER_POOL_PAGES}
        )
        stack.callback(client.close)
        client.create_table(wl.TABLE)
        client.bulk_load(wl.TABLE, self.rows)
        client.checkpoint()
        return client, wl.Oracle(self.rows)


class Served:
    """A ``python -m repro serve`` subprocess, warmed up by inserts."""

    served = True

    def __init__(self, workdir: Path) -> None:
        import workloads as wl

        self.workdir = workdir
        self.values = [v for rows in wl.domain_rows() for _, v in rows]
        self.server = None

    def ops(self, stream: str, count: int):
        import workloads as wl

        return wl.ingest_ops(stream, count, self.values, wl.WARMUP_INSERTS)

    def open(self, stack: ExitStack, trace_out=None):
        import workloads as wl
        from repro.api import PolarStore
        from serve import ServerProcess

        self.server = stack.enter_context(
            ServerProcess(self.workdir, trace_out)
        )
        client = PolarStore.connect(self.server.addr, connections=1)
        stack.callback(client.close)
        client.create_table(wl.TABLE)
        oracle = wl.Oracle()
        warm = wl.run_ops(client, wl.warmup_ops(self.values), oracle)
        if warm.failed:
            raise RuntimeError(
                f"set-up: {warm.failed} warm-up inserts failed: "
                f"{warm.errors or oracle.first_error}"
            )
        return client, oracle


# --------------------------------------------------------------------------
# Timed slices
# --------------------------------------------------------------------------


class Slices:
    """What the slices of one run measured, summed or pooled."""

    def __init__(self) -> None:
        import workloads as wl

        self.phase = wl.Phase()
        self.slice_wall_s = []
        self.setup_s = []
        self.ratios = []
        self.errors = []
        self.counts = {}
        self.pages = {}
        self.server = {"calls": {}, "self_s": {}, "codec": {}, "server_s": 0.0}


def run_slices(target, streams, clock=None) -> Slices:
    import workloads as wl
    from layers import codec_pages, difference, registry_counts

    out = Slices()
    for k, ops in enumerate(streams):
        trace_out = None
        if clock is not None and target.served:
            trace_out = target.workdir / f"server-trace-{k}.json"
        with ExitStack() as stack:
            start = time.perf_counter()
            client, oracle = target.open(stack, trace_out)
            out.setup_s.append(time.perf_counter() - start)
            if clock is not None:
                if target.served:
                    client.transport.ping()
                else:
                    before = registry_counts(client.metrics)
                clock.start()
            wall_before = out.phase.wall_s
            wl.run_ops(client, ops, oracle, out.phase)
            out.slice_wall_s.append(out.phase.wall_s - wall_before)
            if clock is not None:
                clock.stop()
                if target.served:
                    client.transport.ping()
                else:
                    _add(out.counts, difference(
                        before, registry_counts(client.metrics)
                    ))
                    _add(out.pages, codec_pages(client.store))
            out.ratios.append(client.compression_ratio())
            out.phase.failed += oracle.read_back(client)
            if oracle.first_error is not None:
                out.errors.append("oracle: " + oracle.first_error)
            if target.served:
                target.server.check_alive()
        if trace_out is not None:
            remote = json.loads(trace_out.read_text())
            _add(out.counts, difference(remote["before"], remote["after"]))
            _add(out.pages, remote["pages"])
            for key in ("calls", "self_s", "codec"):
                _add(out.server[key], remote["clock"][key])
            out.server["server_s"] += remote["server_s"]
    out.errors[:0] = out.phase.errors
    return out


def _add(total: dict, part: dict) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


def end_to_end(out: Slices, served: bool) -> dict:
    import workloads as wl

    phase = out.phase
    ok = phase.op_wall_s
    sim = phase.op_sim_us
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if served:
        rss_kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "setup_s": statistics.median(out.setup_s),
        "ops_per_s": len(ok) / sum(ok) if ok else 0.0,
        "op_p50_ms": wl.percentile(ok, 50) * 1e3 if ok else 0.0,
        "op_p99_ms": wl.percentile(ok, 99) * 1e3 if ok else 0.0,
        "sim_p50_us": wl.percentile(sim, 50) if sim else 0.0,
        "sim_p99_us": wl.percentile(sim, 99) if sim else 0.0,
        "compression_ratio": statistics.median(out.ratios),
        "success_rate": 1.0 - phase.failed / phase.attempted,
        "peak_rss_mb": rss_kib / 1024.0,
    }
    metrics = {name: (values[name], unit) for name, unit in E2E_UNITS.items()}
    return _result(phase.attempted, phase.failed, metrics, out.errors)


def per_layer(traced: Slices, plain: Slices, local: dict) -> dict:
    from layers import LAYERS, check_sim_totals, layer_counters

    calls = dict(local["calls"])
    self_s = dict(local["self_s"])
    codec = local["codec"]
    remote = traced.server
    if remote["calls"]:
        # The client's net self time is the whole round trip; the part the
        # server spent in its other layers moves to those layers.
        for layer in LAYERS:
            calls[layer] += remote["calls"][layer]
            self_s[layer] += remote["self_s"][layer]
        self_s["net"] -= sum(remote["self_s"].values())
        codec = remote["codec"]
    wall = traced.phase.wall_s
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
        metrics[f"{layer}.share"] = (self_s[layer] / wall, "fraction")
    for kind in ("compress", "decompress"):
        seconds = codec[kind + "_s"]
        metrics[f"compression.{kind}_calls"] = (codec[kind + "_calls"], "count")
        metrics[f"compression.{kind}_mb_per_s"] = (
            codec[kind + "_bytes"] / 1e6 / seconds if seconds else 0.0, "MB/s"
        )
    units = {"csd.read_bytes": "B", "csd.write_bytes": "B",
             "csd.write_amp": "ratio", "db.bufferpool_hit_rate": "fraction"}
    counters = layer_counters(
        traced.counts, traced.phase.attempted, traced.pages
    )
    for name, value in counters.items():
        unit = units.get(name, "us" if name.startswith("sim.") else "count")
        metrics[name] = (value, unit)
    metrics["net.server_s"] = (remote["server_s"], "s")
    metrics["trace_overhead"] = (
        traced.slice_wall_s[0] / plain.slice_wall_s[0] - 1.0, "fraction"
    )

    errors = traced.errors + plain.errors
    covered = sum(self_s.values())
    if not (SELF_TIME_COVERAGE * wall <= covered <= wall * 1.001):
        errors.append(
            f"layer self times sum to {covered:.4f} s, outside "
            f"[{SELF_TIME_COVERAGE:.2f}, 1.001] x traced wall {wall:.4f} s"
        )
    if self_s["net"] < 0:
        errors.append(f"server busy time exceeds client round trips by "
                      f"{-self_s['net']:.4f} s")
    sim_error = check_sim_totals(traced.counts)
    if sim_error:
        errors.append(sim_error)
    return _result(
        traced.phase.attempted + plain.phase.attempted,
        traced.phase.failed + plain.phase.failed,
        metrics, errors,
    )


def _result(attempted: int, failed: int, metrics: dict, errors) -> dict:
    return {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
        "errors": errors,
    }


# --------------------------------------------------------------------------
# Environment record
# --------------------------------------------------------------------------


def git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
            capture_output=True, text=True,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the program's Python sources (path and bytes)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
