"""Per-layer wall-clock timers and per-layer counters for the traced run.

The layers are the ``repro`` packages named in :data:`LAYERS`.  A
:class:`LayerClock` wraps every public function and every public method
of every class defined in those packages, from outside: no file under
``src/`` changes.  A call that crosses into another layer is timed;
a call inside the same layer runs through untimed, so a layer's self
time is the wall time its entries took minus the wall time of the
other layers they entered.  Self times therefore telescope: summed over
the layers they equal the time spent inside timed calls, which the
traced run checks against its wall time.

Generator functions (the engine-native ``*_proc`` paths) are timed per
resumption, so work the event kernel drives is charged to the layer
whose generator runs, not to the kernel.  Coroutine functions are left
alone: their wall time is mostly waiting on a socket.  Only the thread
that enabled the clock is timed; other threads run through untimed.

:func:`registry_counts` reads the program's own metrics registry (the
simulated clock's span histograms and the layer counters) into a flat
dict; :func:`layer_counters` turns the difference of two such dicts
(summed over the timed windows) into the per-layer count metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import threading
import time
from typing import Dict, List, Tuple

#: The layers, one per ``repro`` package.
LAYERS = ("api", "net", "engine", "db", "storage", "compression", "csd", "obs")

#: Layers of the simulated-time span tracer reported as ``sim.<layer>``.
SIM_LAYERS = ("compression", "csd", "storage", "db", "net")

#: The software codecs of Algorithm 1; their compress/decompress calls
#: give the codec call counts and throughputs.
CODEC_CLASSES = (
    ("repro.compression.lz4", "LZ4Codec"),
    ("repro.compression.zstd", "ZstdCodec"),
)


class LayerClock:
    """Accumulates per-layer call counts and self wall time."""

    def __init__(self) -> None:
        self.enabled = False
        self.thread = threading.get_ident()
        self.layer = None
        self.child = 0.0
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.codec = {
            "compress_calls": 0, "compress_bytes": 0, "compress_s": 0.0,
            "decompress_calls": 0, "decompress_bytes": 0,
            "decompress_s": 0.0,
        }
        self._undo: List[Tuple[object, str, object]] = []

    # -- control -----------------------------------------------------------

    def start(self) -> None:
        """Start (or resume) timing the calling thread; the accumulators
        keep adding up over every started window."""
        self.thread = threading.get_ident()
        self.layer = None
        self.child = 0.0
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False

    def snapshot(self) -> Dict[str, object]:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "codec": dict(self.codec),
        }

    # -- timing ------------------------------------------------------------

    def _timing(self, layer: str) -> bool:
        return (
            self.enabled
            and self.layer != layer
            and threading.get_ident() == self.thread
        )

    def call(self, layer: str, fn, args, kwargs):
        outer_layer, outer_child = self.layer, self.child
        self.layer, self.child = layer, 0.0
        self.calls[layer] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.self_s[layer] += elapsed - self.child
            self.layer = outer_layer
            self.child = outer_child + elapsed

    def drive(self, layer: str, gen):
        """Re-yield ``gen``'s commands, timing each resumption."""
        value, error = None, None
        while True:
            step = gen.throw if error is not None else gen.send
            arg = error if error is not None else value
            try:
                if self._timing(layer):
                    command = self.call(layer, step, (arg,), {})
                else:
                    command = step(arg)
            except StopIteration as stop:
                return stop.value
            value, error = None, None
            try:
                value = yield command
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - thrown into gen
                error = exc

    def codec_call(self, kind: str, fn, args, kwargs):
        if not (self.enabled and threading.get_ident() == self.thread):
            return fn(*args, **kwargs)
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.codec[kind + "_s"] += time.perf_counter() - start
        self.codec[kind + "_calls"] += 1
        # Throughput counts uncompressed bytes in both directions.
        self.codec[kind + "_bytes"] += len(args[1] if kind == "compress" else out)
        return out

    # -- installation ------------------------------------------------------

    def install(self) -> "LayerClock":
        """Wrap the public functions and methods of every layer."""
        if self._undo:
            raise RuntimeError("layer clock already installed")
        replaced: Dict[int, Tuple[object, object]] = {}
        for layer in LAYERS:
            for module in _layer_modules(layer):
                for name, obj in list(vars(module).items()):
                    if name.startswith("_") or getattr(
                        obj, "__module__", None
                    ) != module.__name__:
                        continue
                    if inspect.isfunction(obj):
                        wrapped = self._wrap(obj, layer)
                        if wrapped is not obj:
                            replaced[id(obj)] = (obj, wrapped)
                    elif inspect.isclass(obj):
                        self._wrap_class(obj, layer)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for name, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(module, name, hit[1])
        for module_name, class_name in CODEC_CLASSES:
            cls = getattr(importlib.import_module(module_name), class_name)
            for kind in ("compress", "decompress"):
                self._set(cls, kind, self._wrap_codec(
                    getattr(cls, kind), kind
                ))
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        self.enabled = False

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap_class(self, cls, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(attr, staticmethod):
                self._set(cls, name, staticmethod(
                    self._wrap(attr.__func__, layer)
                ))
            elif isinstance(attr, classmethod):
                self._set(cls, name, classmethod(
                    self._wrap(attr.__func__, layer)
                ))
            elif inspect.isfunction(attr):
                wrapped = self._wrap(attr, layer)
                if wrapped is not attr:
                    self._set(cls, name, wrapped)

    def _wrap(self, fn, layer: str):
        if inspect.iscoroutinefunction(fn) or inspect.isasyncgenfunction(fn):
            return fn
        clock = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return clock.drive(layer, fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if clock._timing(layer):
                return clock.call(layer, fn, args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_codec(self, fn, kind: str):
        clock = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return clock.codec_call(kind, fn, args, kwargs)

        return wrapper


def _layer_modules(layer: str):
    package = importlib.import_module(f"repro.{layer}")
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__):
        modules.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return modules


# --------------------------------------------------------------------------
# Counters read from the program's metrics registry
# --------------------------------------------------------------------------

#: Registry counter families summed over their labels, by short name.
_COUNTERS = {
    "compression.selector.evaluations": "selector_evaluations",
    "csd.device.read_bytes": "csd_read_bytes",
    "csd.device.write_bytes": "csd_write_bytes",
    "csd.ftl.host_written_bytes": "ftl_host_bytes",
    "csd.ftl.nand_written_bytes": "ftl_nand_bytes",
    "csd.ftl.gc_runs": "gc_runs",
    "storage.consolidations": "consolidations",
    "storage.redo_spills": "redo_spills",
    "db.bufferpool.hits": "bufferpool_hits",
    "db.bufferpool.misses": "bufferpool_misses",
}


def registry_counts(registry) -> Dict[str, float]:
    """Flat counters from one registry, summed over labels.

    ``sim.<layer>`` is the exclusive simulated µs charged to that layer by
    the span tracer and ``sim_root_us`` the end-to-end µs of the traces'
    roots; they are equal up to float rounding.
    """
    out: Dict[str, float] = {name: 0.0 for name in _COUNTERS.values()}
    out["redo_commits"] = 0.0
    out["sim_root_us"] = 0.0
    for layer in SIM_LAYERS:
        out["sim." + layer] = 0.0
    for inst in registry.instruments():
        name = inst.name
        short = _COUNTERS.get(name)
        if short is not None:
            out[short] += inst.value
        elif name == "storage.redo_commit_us":
            out["redo_commits"] += inst.count
        elif name.startswith("trace.") and name.endswith(".self_us"):
            key = "sim." + inst.labels.get("layer", "")
            out[key] = out.get(key, 0.0) + inst.total
        elif name.startswith("trace.") and name.endswith(".total_us"):
            out["sim_root_us"] += inst.total
    return out


def codec_pages(store) -> Dict[str, int]:
    """Live pages per software codec on the volume's leader node."""
    return dict(store.leader.algorithm_distribution())


def difference(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """``after - before`` for every counter of :func:`registry_counts`."""
    return {key: after[key] - before.get(key, 0.0) for key in after}


def layer_counters(d: Dict[str, float], ops: int,
                   pages: Dict[str, int]) -> Dict[str, float]:
    """Per-layer count metrics from counter differences over ``ops`` ops."""
    lookups = d["bufferpool_hits"] + d["bufferpool_misses"]
    metrics = {
        "compression.selector_evaluations": d["selector_evaluations"],
        "compression.lz4_pages": pages.get("lz4", 0),
        "compression.zstd_pages": pages.get("zstd", 0),
        "csd.read_bytes": d["csd_read_bytes"],
        "csd.write_bytes": d["csd_write_bytes"],
        "csd.write_amp": (
            d["ftl_nand_bytes"] / d["ftl_host_bytes"]
            if d["ftl_host_bytes"] else 0.0
        ),
        "csd.gc_runs": d["gc_runs"],
        "storage.consolidations": d["consolidations"],
        "storage.redo_spills": d["redo_spills"],
        "storage.redo_commits": d["redo_commits"],
        "db.bufferpool_hit_rate": (
            d["bufferpool_hits"] / lookups if lookups else 0.0
        ),
        "db.bufferpool_misses": d["bufferpool_misses"],
    }
    for layer in SIM_LAYERS:
        metrics[f"sim.{layer}.self_us"] = d.get("sim." + layer, 0.0) / ops
    return metrics


def check_sim_totals(d: Dict[str, float]) -> str:
    """Empty when the per-layer simulated self times sum to the roots'
    end-to-end totals; otherwise a description of the mismatch."""
    layers = sum(value for key, value in d.items() if key.startswith("sim."))
    roots = d["sim_root_us"]
    if abs(layers - roots) > 1e-6 * max(1.0, abs(roots)):
        return f"sim self-time sum {layers!r} != root total {roots!r}"
    unknown = sorted(
        key for key, value in d.items()
        if key.startswith("sim.") and key[4:] not in SIM_LAYERS and value
    )
    if unknown:
        return f"span layers outside {SIM_LAYERS}: {unknown}"
    return ""
