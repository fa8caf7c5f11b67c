"""The active wall-clock fast path: a content-addressed codec memo.

A :class:`PerfRuntime` is installed process-wide with :func:`configure`
(or :func:`configure_from_env` for CLI entry points honouring the
``REPRO_PERF`` variable) and consulted by the hot paths through
:func:`perf_active`.  When nothing is configured every call site falls
back to its original inline behavior, so the perf layer is strictly
opt-in — tier-1 tests and legacy entry points run exactly the code they
always ran.

Why process-wide instead of per-volume: the memo cache is *content*-
addressed over pure functions, so sharing it across volumes is not just
safe but the point — a cluster migration compresses page images the
source volume already compressed, and only a shared cache can see that.
Each volume still exports the runtime's counters through its own
:class:`~repro.obs.metrics.MetricsRegistry` via :meth:`PerfRuntime
.bind_metrics` (callback gauges, so snapshots always read live values).

Determinism: nothing here can change a simulated timestamp or an output
byte.  Memo values are recorded outputs of pure codec calls, and
simulated CPU cost is charged from :mod:`repro.compression.cost`
whether or not the codec actually ran.
``tests/perf/test_golden_equivalence.py`` locks this in.
"""

from __future__ import annotations

import os
import zlib
from typing import Dict, Optional, Sequence, Tuple

from repro.common.units import MiB
from repro.perf.memo import (
    KIND_COMPRESS,
    CodecMemoCache,
    content_digest,
    memo_key_decompress,
    memo_key_hw_len,
)

#: Default memo capacity when enabled without an explicit size.
DEFAULT_MEMO_BYTES = 64 * MiB


def _get_codec(name: str):
    # Lazy: repro.compression's selector imports this module, so a
    # module-level import here would be circular when perf loads first.
    from repro.compression.base import get_codec

    return get_codec(name)


def _compress(codec_name: str, data) -> Tuple[bytes, int]:
    payload = _get_codec(codec_name).compress(bytes(data))
    return payload, zlib.crc32(payload) & 0xFFFFFFFF


class PerfRuntime:
    """One configured fast path: the codec memo and its counters."""

    def __init__(self, memo_capacity_bytes: int = DEFAULT_MEMO_BYTES) -> None:
        self.memo: Optional[CodecMemoCache] = (
            CodecMemoCache(memo_capacity_bytes)
            if memo_capacity_bytes > 0
            else None
        )
        #: Codec calls answered from the memo without running the codec.
        self.codec_calls_saved = 0

    @classmethod
    def from_config(cls, perf_config) -> "PerfRuntime":
        """Build from a :class:`repro.api.config.PerfConfig`."""
        return cls(memo_capacity_bytes=perf_config.memo_capacity_bytes)

    # -- compression -------------------------------------------------------

    def compress(self, codec_name: str, data) -> Tuple[bytes, int]:
        """``(payload, crc32(payload))`` for one page, memo-aware."""
        return self.compress_pair(data, (codec_name,))[codec_name]

    def compress_pair(
        self, data, codecs: Sequence[str] = ("lz4", "zstd")
    ) -> Dict[str, Tuple[bytes, int]]:
        """Compress ``data`` with every codec in ``codecs`` (Algorithm 1's
        dual evaluation).

        The page is hashed once; each codec then costs one memo lookup,
        and only a miss runs the codec.
        """
        if self.memo is None:
            return {name: _compress(name, data) for name in codecs}
        digest = content_digest(data)
        out: Dict[str, Tuple[bytes, int]] = {}
        for codec_name in codecs:
            key = (KIND_COMPRESS, codec_name, digest)
            value = self.memo.get(key)
            if value is None:
                value = _compress(codec_name, data)
                self.memo.put(key, value)
            else:
                self.codec_calls_saved += 1
            out[codec_name] = value
        return out

    # -- decompression -----------------------------------------------------

    def decompress(self, codec_name: str, payload, verified: bool = True) -> bytes:
        """Decompress ``payload``; memoized only for *verified* content.

        ``verified`` means the caller checked the payload against its
        stored CRC first.  Unverified payloads (no checksum in the index
        entry) bypass the memo entirely, so damaged bytes can never be
        masked by — or inserted into — the cache; and since keys are
        content digests, a bit-flipped payload could not hit a stale
        entry even if it got here (see tests/chaos/test_memo_chaos.py).
        """
        if self.memo is None or not verified:
            return _get_codec(codec_name).decompress(payload)
        key = memo_key_decompress(codec_name, payload)
        cached = self.memo.get(key)
        if cached is not None:
            self.codec_calls_saved += 1
            return cached
        value = _get_codec(codec_name).decompress(payload)
        self.memo.put(key, value)
        return value

    # -- hardware-gzip sizing ---------------------------------------------

    def hw_compressed_len(self, compressor, block) -> int:
        """``len(compressor.compress(block))`` with content memoization.

        The CSD write path only needs the compressed *length* of each
        4 KiB block to charge NAND cost; filler-tiled pages repeat block
        content constantly, so this is a pure-win cache even though the
        transform itself is C-speed zlib.
        """
        if self.memo is None:
            return len(compressor.compress(bytes(block)))
        key = memo_key_hw_len(block)
        cached = self.memo.get(key)
        if cached is not None:
            self.codec_calls_saved += 1
            return cached
        value = len(compressor.compress(bytes(block)))
        self.memo.put(key, value)
        return value

    # -- observability -----------------------------------------------------

    def bind_metrics(self, registry) -> None:
        """Export live counters through a volume's metrics registry.

        Callback gauges read this runtime directly, so the existing JSON
        and Prometheus exporters pick the fast path up with no changes.
        """
        memo = self.memo
        registry.gauge_fn(
            "perf.memo.hits", lambda: memo.hits if memo else 0
        )
        registry.gauge_fn(
            "perf.memo.misses", lambda: memo.misses if memo else 0
        )
        registry.gauge_fn(
            "perf.memo.hit_rate", lambda: memo.hit_rate if memo else 0.0
        )
        registry.gauge_fn(
            "perf.memo.used_bytes", lambda: memo.used_bytes if memo else 0
        )
        registry.gauge_fn(
            "perf.codec_calls_saved", lambda: self.codec_calls_saved
        )

    def stats(self) -> dict:
        return {
            "memo": self.memo.stats() if self.memo else None,
            "codec_calls_saved": self.codec_calls_saved,
        }


#: The process-wide active runtime (None = fast path off, legacy inline
#: behavior everywhere).
_active: Optional[PerfRuntime] = None


def perf_active() -> Optional[PerfRuntime]:
    return _active


def configure(runtime: Optional[PerfRuntime]) -> Optional[PerfRuntime]:
    """Install ``runtime`` as the process-wide fast path (None clears)."""
    global _active
    _active = runtime
    return runtime


def deactivate() -> None:
    configure(None)


def configure_from_env() -> Optional[PerfRuntime]:
    """CLI hook: honour ``REPRO_PERF`` for opt-in fast-path runs.

    ``REPRO_PERF=0``/unset leaves the fast path off.  ``REPRO_PERF=1``
    enables the memo at its default size; ``REPRO_PERF=memo=64`` sizes
    it in MiB.
    """
    spec = os.environ.get("REPRO_PERF", "").strip()
    if spec in ("", "0", "off", "false"):
        return perf_active()
    if spec in ("1", "on", "true"):
        return configure(PerfRuntime())
    memo_bytes = DEFAULT_MEMO_BYTES
    for part in spec.split(","):
        if not part.strip():
            continue
        name, _, value = part.partition("=")
        name = name.strip()
        if name != "memo":
            raise ValueError(f"unknown REPRO_PERF key {name!r} in {spec!r}")
        memo_bytes = int(float(value.strip()) * MiB)
    return configure(PerfRuntime(memo_capacity_bytes=memo_bytes))
