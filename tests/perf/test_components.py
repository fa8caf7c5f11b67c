"""Unit coverage for the fast-path building blocks (memo and runtime)."""

import pytest

from repro.perf.runtime import (
    configure_from_env,
    deactivate,
    perf_active,
)

from repro.compression.base import get_codec
from repro.perf.memo import (
    CodecMemoCache,
    memo_key_compress,
    memo_key_decompress,
)
from repro.perf.runtime import PerfRuntime


PAGE = (b"polar" * 4096)[: 16 * 1024]


# -- memo -------------------------------------------------------------------


def test_memo_hit_and_miss_counters():
    memo = CodecMemoCache(1 << 20)
    key = memo_key_compress("lz4", PAGE)
    assert memo.get(key) is None
    memo.put(key, (b"payload", 123))
    assert memo.get(key) == (b"payload", 123)
    stats = memo.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1
    assert 0.0 < stats["hit_rate"] < 1.0


def test_memo_keys_are_content_addressed():
    # Same bytes through different buffer types -> same key; one flipped
    # bit -> different key.  This is what makes serving corrupted bytes
    # from the memo structurally impossible.
    assert memo_key_compress("lz4", PAGE) == memo_key_compress(
        "lz4", memoryview(bytearray(PAGE))
    )
    flipped = bytearray(PAGE)
    flipped[100] ^= 0x01
    assert memo_key_compress("lz4", PAGE) != memo_key_compress(
        "lz4", flipped
    )
    assert memo_key_compress("lz4", PAGE) != memo_key_compress(
        "zstd", PAGE
    )
    assert memo_key_compress("lz4", PAGE) != memo_key_decompress(
        "lz4", PAGE
    )


def test_memo_evicts_lru_under_pressure():
    memo = CodecMemoCache(3000)
    for i in range(8):
        memo.put(("c", "lz4", bytes([i]) * 16), (bytes(900), i))
    stats = memo.stats()
    assert stats["evictions"] > 0
    assert memo.used_bytes <= 3000
    # The newest entry survived; the oldest was evicted.
    assert memo.get(("c", "lz4", bytes([7]) * 16)) is not None
    assert memo.get(("c", "lz4", bytes([0]) * 16)) is None


def test_memo_zero_capacity_disabled_in_runtime():
    runtime = PerfRuntime(memo_capacity_bytes=0)
    assert runtime.memo is None
    payload, crc = runtime.compress("lz4", PAGE)
    assert get_codec("lz4").decompress(payload) == PAGE
    assert runtime.codec_calls_saved == 0


# -- runtime orchestration --------------------------------------------------


def test_runtime_compress_is_memoized_and_correct():
    runtime = PerfRuntime(memo_capacity_bytes=1 << 20)
    first = runtime.compress("zstd", PAGE)
    second = runtime.compress("zstd", PAGE)
    assert first == second
    assert runtime.codec_calls_saved == 1
    assert get_codec("zstd").decompress(first[0]) == PAGE


def test_runtime_compress_pair_matches_serial_codecs():
    runtime = PerfRuntime(memo_capacity_bytes=1 << 20)
    out = runtime.compress_pair(PAGE)
    assert set(out) == {"lz4", "zstd"}
    for codec_name, (payload, _crc) in out.items():
        assert payload == get_codec(codec_name).compress(PAGE)
    # A missing page costs one lookup (one miss) per codec, not two.
    assert runtime.memo.stats()["misses"] == 2
    assert runtime.codec_calls_saved == 0
    # Second evaluation of the same page is served from the memo.
    assert runtime.compress_pair(PAGE) == out
    assert runtime.codec_calls_saved == 2
    assert runtime.memo.stats()["hits"] == 2


def test_runtime_compress_pair_hashes_the_page_once(monkeypatch):
    from repro.perf import runtime as runtime_mod

    calls = []
    real = runtime_mod.content_digest

    def counting(data):
        calls.append(len(data))
        return real(data)

    monkeypatch.setattr(runtime_mod, "content_digest", counting)
    runtime = PerfRuntime(memo_capacity_bytes=1 << 20)
    runtime.compress_pair(PAGE)
    assert calls == [len(PAGE)]


def test_configure_from_env(monkeypatch):
    try:
        monkeypatch.delenv("REPRO_PERF", raising=False)
        deactivate()
        configure_from_env()
        assert perf_active() is None  # unset leaves things off
        monkeypatch.setenv("REPRO_PERF", "0")
        configure_from_env()
        assert perf_active() is None
        monkeypatch.setenv("REPRO_PERF", "memo=8")
        configure_from_env()
        runtime = perf_active()
        assert runtime is not None
        assert runtime.memo.capacity_bytes == 8 * 1024 * 1024
        monkeypatch.setenv("REPRO_PERF", "1")
        configure_from_env()
        assert perf_active().memo.capacity_bytes == 64 * 1024 * 1024
        monkeypatch.setenv("REPRO_PERF", "memo=oops")
        with pytest.raises(ValueError):
            configure_from_env()
        # The codec-pool keys are gone, so they are rejected like typos.
        monkeypatch.setenv("REPRO_PERF", "pool=2")
        with pytest.raises(ValueError):
            configure_from_env()
        monkeypatch.setenv("REPRO_PERF", "turbo=9")
        with pytest.raises(ValueError):
            configure_from_env()
    finally:
        deactivate()


def test_runtime_decompress_roundtrip():
    runtime = PerfRuntime(memo_capacity_bytes=1 << 20)
    payload = get_codec("lz4").compress(PAGE)
    assert runtime.decompress("lz4", payload, verified=True) == PAGE
    assert runtime.decompress("lz4", payload, verified=True) == PAGE
    assert runtime.codec_calls_saved == 1
