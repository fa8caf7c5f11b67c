"""Golden statement timings through the in-process client.

A seeded mixed DML script runs against a 16-page buffer pool, so reads
miss into storage on both the RW node and the RO node.  Every
statement's ``(done_us, io_reads, redo_bytes, value)`` is folded into
one digest, pinned to the values the statement path produced before it
became engine-only: the event engine must charge exactly the same
simulated time, I/O and redo as the analytic path it replaced.
"""

import hashlib
import random

from repro.api import PolarStore

ROWS = 3000
OPS = 600
SEED = 13

#: sha256 of the repr of every statement's result tuple, in order.
GOLDEN_DIGEST = (
    "9e0da75b7576a1e3c8f863283dd8c5978bfa2404f5702695fd56f1e8ef5a07d4"
)
GOLDEN_NOW_US = 69385.71297099697


def _value(rng: random.Random, key: int) -> bytes:
    words = (b"alpha", b"beta", b"gamma", b"delta", b"omega")
    body = b"|".join(rng.choice(words) for _ in range(rng.randrange(16, 48)))
    return b"%08d:" % key + body


def _run_script():
    rng = random.Random(SEED)
    client = PolarStore.open({"db": {"buffer_pool_pages": 16}})
    client.create_table("t")
    live = {key: _value(rng, key) for key in range(0, 2 * ROWS, 2)}
    client.bulk_load("t", sorted(live.items()))
    client.checkpoint()
    next_key = 2 * ROWS + 1
    observed = []
    for _ in range(OPS):
        roll = rng.random()
        keys = sorted(live)
        if roll < 0.15:
            key = rng.choice((next_key, rng.randrange(1, 2 * ROWS, 2)))
            if key in live:
                key = next_key
            next_key += 2
            live[key] = _value(rng, key)
            result = client.insert("t", key, live[key])
        elif roll < 0.35:
            key = rng.choice(keys)
            live[key] = _value(rng, key)
            result = client.update("t", key, live[key])
        elif roll < 0.42:
            key = rng.choice(keys)
            del live[key]
            result = client.delete("t", key)
        elif roll < 0.62:
            result = client.select("t", rng.choice(keys))
        elif roll < 0.85:
            result = client.select("t", rng.choice(keys), ro_index=0)
        else:
            low = rng.randrange(0, 2 * ROWS)
            result = client.range_select("t", low, low + rng.randrange(4, 40))
        observed.append(
            (result.done_us, result.io_reads, result.redo_bytes, result.value)
        )
    return observed, client.now_us


def test_statement_timings_match_golden():
    observed, now_us = _run_script()
    assert sum(io_reads for _, io_reads, _, _ in observed) > 0
    assert all(
        done >= prev for (prev, *_), (done, *_) in zip(observed, observed[1:])
    )
    digest = hashlib.sha256(repr(observed).encode()).hexdigest()
    assert (digest, now_us) == (GOLDEN_DIGEST, GOLDEN_NOW_US)
