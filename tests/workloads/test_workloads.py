"""Dataset generators, fio buffers, Zipf sampling, sysbench driver."""

import zlib

import numpy as np
import pytest

from repro.common.errors import RaftError
from repro.common.units import DB_PAGE_SIZE, MiB
from repro.compression.base import get_codec
from repro.storage.node import NodeConfig
from repro.db.database import PolarDB
from repro.workloads.datagen import DATASETS, corpus, dataset_pages, dataset_rows
from repro.workloads.fio import buffer_with_ratio, fill_fraction_for_ratio
from repro.workloads.sysbench import (
    SYSBENCH_WORKLOADS,
    prepare_table,
    run_sysbench,
)
from repro.workloads.zipf import ZipfSampler

# --------------------------------------------------------------------- #
# Datasets                                                               #
# --------------------------------------------------------------------- #


def test_all_datasets_produce_full_pages():
    for name in DATASETS:
        pages = dataset_pages(name, 3, seed=1)
        assert len(pages) == 3
        assert all(len(p) == DB_PAGE_SIZE for p in pages)


def test_datasets_are_deterministic_per_seed():
    a = dataset_pages("finance", 2, seed=7)
    b = dataset_pages("finance", 2, seed=7)
    c = dataset_pages("finance", 2, seed=8)
    assert a == b
    assert a != c


def test_datasets_have_distinct_compressibility():
    """Datasets must differ in compressibility (Figure 14 spans 2.1–3.8
    across them) and every page stream must actually compress."""
    zstd = get_codec("zstd")
    ratios = {}
    for name in DATASETS:
        pages = dataset_pages(name, 4, seed=0)
        total = sum(len(p) for p in pages)
        compressed = sum(len(zstd.compress(p)) for p in pages)
        ratios[name] = total / compressed
    assert all(r > 1.8 for r in ratios.values()), ratios
    assert max(ratios.values()) > min(ratios.values()) * 1.1, ratios


def test_table3_selection_splits_are_mixed():
    """Table 3: every dataset shows a *mixed* zstd/lz4 split, and finance
    leans most heavily toward zstd."""
    from repro.compression.selector import AlgorithmSelector

    shares = {}
    for name in DATASETS:
        pages = dataset_pages(name, 16, seed=0)
        selector = AlgorithmSelector()
        picks = [selector.select(p).codec for p in pages]
        shares[name] = picks.count("zstd") / len(picks)
    assert all(0.05 < share < 0.95 for share in shares.values()), shares
    assert shares["finance"] == max(shares.values()), shares


def test_all_datasets_compress_in_paper_band():
    """Figure 14: hardware-gzip-only ratios span roughly 2.1–3.9."""
    for name in DATASETS:
        pages = dataset_pages(name, 4, seed=0)
        total = sum(len(p) for p in pages)
        hw = sum(
            min(len(zlib.compress(p[i : i + 4096], 5)), 4096)
            for p in pages
            for i in range(0, DB_PAGE_SIZE, 4096)
        )
        ratio = total / hw
        assert 1.5 < ratio < 8.0, f"{name}: {ratio}"


def test_dataset_rows_for_db_loading():
    rows = dataset_rows("fnb", 10, seed=0)
    assert len(rows) == 10
    assert rows[0][0] == 0
    assert all(isinstance(value, bytes) and value for _, value in rows)


def test_corpus_mixes_datasets():
    pages = corpus(pages_per_dataset=2)
    assert len(pages) == 2 * len(DATASETS)


def test_unknown_dataset_raises():
    with pytest.raises(KeyError):
        dataset_pages("nope", 1)


# --------------------------------------------------------------------- #
# fio buffers                                                            #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("target", [1.0, 2.0, 3.0, 4.0])
def test_fio_buffer_hits_target_ratio(target):
    buf = buffer_with_ratio(target, 64 * 1024, seed=3)
    compressed = sum(
        min(len(zlib.compress(buf[i : i + 4096], 5)), 4096)
        for i in range(0, len(buf), 4096)
    )
    measured = len(buf) / compressed
    assert measured == pytest.approx(target, rel=0.15)


def test_fio_buffer_validates_inputs():
    with pytest.raises(ValueError):
        buffer_with_ratio(0.5, 4096)
    with pytest.raises(ValueError):
        buffer_with_ratio(2.0, 1000)


def test_fill_fraction_monotone():
    fractions = [fill_fraction_for_ratio(r) for r in (1.0, 1.5, 2.0, 3.0, 4.0)]
    assert fractions == sorted(fractions)


# --------------------------------------------------------------------- #
# Zipf                                                                   #
# --------------------------------------------------------------------- #


def test_zipf_bounds_and_determinism():
    sampler = ZipfSampler(1000, s=0.99, seed=5)
    samples = sampler.sample(5000)
    assert samples.min() >= 0
    assert samples.max() < 1000
    again = ZipfSampler(1000, s=0.99, seed=5).sample(5000)
    assert (samples == again).all()


def test_zipf_is_skewed():
    sampler = ZipfSampler(1000, s=1.2, seed=0)
    samples = sampler.sample(20000)
    _, counts = np.unique(samples, return_counts=True)
    top_share = np.sort(counts)[::-1][:10].sum() / len(samples)
    assert top_share > 0.25  # top-10 of 1000 keys draw >25% of accesses


def test_zipf_zero_skew_is_uniformish():
    sampler = ZipfSampler(100, s=0.0, seed=0)
    samples = sampler.sample(50000)
    _, counts = np.unique(samples, return_counts=True)
    assert counts.max() / counts.min() < 1.6


def test_zipf_validates():
    with pytest.raises(ValueError):
        ZipfSampler(0)
    with pytest.raises(ValueError):
        ZipfSampler(10, s=-1)


# --------------------------------------------------------------------- #
# Sysbench driver                                                        #
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def loaded_db():
    db = PolarDB(config=NodeConfig(), volume_bytes=128 * MiB, seed=11)
    prepare_table(db, rows=400)
    return db


def test_every_workload_runs(loaded_db):
    for name in SYSBENCH_WORKLOADS:
        result = run_sysbench(
            loaded_db,
            name,
            duration_s=0.01,
            threads=4,
            key_range=400,
            start_us=1e9,
            max_transactions=30,
        )
        assert result.transactions > 0, name
        assert result.avg_latency_us > 0, name


def test_more_threads_do_not_reduce_throughput(loaded_db):
    few = run_sysbench(
        loaded_db, "point_select", duration_s=0.02, threads=1,
        key_range=400, start_us=2e9,
    )
    many = run_sysbench(
        loaded_db, "point_select", duration_s=0.02, threads=8,
        key_range=400, start_us=3e9,
    )
    assert many.tps >= few.tps


def test_unknown_workload_rejected(loaded_db):
    with pytest.raises(KeyError):
        run_sysbench(loaded_db, "oltp_nope")


def test_reads_route_to_ro_node(loaded_db):
    ro = loaded_db.ro[0]
    before = ro.pool.hit_rate  # touch to ensure the node exists
    result = run_sysbench(
        loaded_db, "point_select", duration_s=0.02, threads=4,
        key_range=400, start_us=4e9, max_transactions=40, ro_index=0,
    )
    assert result.transactions == 40
    # The RO node's own buffer pool served the workload.
    assert ro.pool.cached_pages > 0


def test_elapsed_tracks_actual_span(loaded_db):
    result = run_sysbench(
        loaded_db, "point_select", duration_s=30.0, threads=2,
        key_range=400, start_us=5e9, max_transactions=10,
    )
    assert 0 < result.elapsed_s < 30.0
    assert result.tps == pytest.approx(
        result.transactions / result.elapsed_s
    )


@pytest.mark.parametrize("workload", ["update_non_index", "update_index"])
def test_update_failures_other_than_key_existence_propagate(workload):
    # Only a missing or duplicate key may turn an update into a
    # fallback; losing quorum must surface as the RaftError it is.
    db = PolarDB(config=NodeConfig(), volume_bytes=64 * MiB, seed=5)
    loaded = prepare_table(db, rows=50)
    db.store.fail_node(1)
    db.store.fail_node(2)
    with pytest.raises(RaftError, match="no quorum"):
        run_sysbench(
            db, workload, duration_s=0.01, threads=1, key_range=50,
            start_us=loaded, max_transactions=1,
        )


def test_fallbacks_are_counted():
    # 40 loaded rows under a 400-key range: most update_index deletes
    # miss, and each miss is one counted fallback.
    db = PolarDB(config=NodeConfig(), volume_bytes=64 * MiB, seed=5)
    loaded = prepare_table(db, rows=40)
    sparse = run_sysbench(
        db, "update_index", duration_s=1.0, threads=2, key_range=400,
        start_us=loaded, max_transactions=20, zipf_s=0.0,
    )
    assert sparse.transactions == 20
    assert sparse.fallbacks > 0
    reads = run_sysbench(
        db, "point_select", duration_s=1.0, threads=2, key_range=400,
        start_us=loaded + 2e6, max_transactions=20,
    )
    assert reads.fallbacks == 0
