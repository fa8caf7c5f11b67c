"""The benchmark's workloads: table, seeded op streams, oracle, timed loop.

Every workload is a closed loop with one client: the next op is sent
when the previous one has returned.  The rows are the four
``repro.workloads.datagen`` domains at a fixed data seed; the op stream
is drawn from ``random.Random(seed)`` before timing starts.  The number
of timed ops is fixed by the workload and ``--seconds`` (never by the
wall clock), so the simulated metrics and the compression ratio repeat
exactly for one seed.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

TABLE = "bench"
#: Rows per datagen domain; four domains give about 54 16 KiB pages.
ROWS_PER_DOMAIN = 1000
#: Datagen seed of the table contents (the op stream takes ``--seed``).
DATA_SEED = 0
#: RW-node buffer pool, far below the table's page count.
BUFFER_POOL_PAGES = 16
#: ``point_read``: zipf skew, range-select share and span (keys).
ZIPF_S = 0.99
RANGE_SHARE = 0.05
RANGE_SPAN = 8
#: ``update_mix``: share of updates (the rest are point selects).
UPDATE_SHARE = 0.5
#: ``served_ingest``: insert share, how far back selects reach, and the
#: inserts that fill the storage nodes' 2 MiB redo cache during set-up,
#: so the timed phase runs with redo-cache evictions in steady state.
INSERT_SHARE = 0.8
RECENT_KEYS = 64
WARMUP_INSERTS = 4000
#: Timed ops per second of ``--seconds``, measured on a 2-core host, and
#: the floor that leaves at least 10 samples beyond the p99.
NOMINAL_OPS_PER_S = {"point_read": 500, "update_mix": 150, "served_ingest": 500}
MIN_OPS = 1000
#: Keys per range select of the final read-back.
READBACK_SPAN = 500

#: ("select", key) | ("range_select", low, high) | ("update" | "insert", key, value)
Op = Tuple


def timed_ops(workload: str, seconds: float) -> int:
    return max(MIN_OPS, int(round(NOMINAL_OPS_PER_S[workload] * seconds)))


def domain_rows() -> List[List[Tuple[int, bytes]]]:
    """The table, one list of (key, value) rows per datagen domain."""
    from repro.workloads.datagen import DATASETS, dataset_rows

    out = []
    for index, name in enumerate(sorted(DATASETS)):
        base = index * ROWS_PER_DOMAIN
        out.append([
            (base + key, value)
            for key, value in dataset_rows(name, ROWS_PER_DOMAIN, DATA_SEED)
        ])
    return out


# --------------------------------------------------------------------------
# Op streams
# --------------------------------------------------------------------------


def point_read_ops(seed, count: int, keys: Sequence[int]) -> List[Op]:
    """95% zipf(0.99) point selects, 5% short zipf-anchored range selects.

    The popularity ranking of the keys is fixed (drawn from the data
    seed), so every seed reads the same hot pages; the seed draws the
    op sequence.
    """
    by_rank = list(keys)
    random.Random(DATA_SEED).shuffle(by_rank)
    rng = random.Random(seed)
    cdf = list(itertools.accumulate(
        1.0 / (rank + 1) ** ZIPF_S for rank in range(len(by_rank))
    ))

    def zipf() -> int:
        return by_rank[bisect.bisect(cdf, rng.random() * cdf[-1])]

    ops: List[Op] = []
    for _ in range(count):
        if rng.random() < RANGE_SHARE:
            low = zipf()
            ops.append(("range_select", low, low + RANGE_SPAN - 1))
        else:
            ops.append(("select", zipf()))
    return ops


def update_mix_ops(seed, count: int,
                   domains: Sequence[Sequence[Tuple[int, bytes]]]) -> List[Op]:
    """Uniform keys: 50% updates to another row's value of the same
    domain, 50% point selects."""
    rng = random.Random(seed)
    keys = [key for rows in domains for key, _ in rows]
    ops: List[Op] = []
    for _ in range(count):
        key = rng.choice(keys)
        if rng.random() < UPDATE_SHARE:
            rows = domains[key // ROWS_PER_DOMAIN]
            ops.append(("update", key, rng.choice(rows)[1]))
        else:
            ops.append(("select", key))
    return ops


def ingest_ops(seed, count: int, values: Sequence[bytes],
               first_key: int) -> List[Op]:
    """80% inserts of fresh ascending keys, each with a value drawn from
    ``values``, and 20% selects of one of the last 64 keys inserted."""
    rng = random.Random(seed)
    ops: List[Op] = []
    next_key = first_key
    for _ in range(count):
        if next_key == 0 or rng.random() < INSERT_SHARE:
            ops.append(("insert", next_key, rng.choice(values)))
            next_key += 1
        else:
            back = rng.randrange(min(next_key, RECENT_KEYS))
            ops.append(("select", next_key - 1 - back))
    return ops


def warmup_ops(values: Sequence[bytes]) -> List[Op]:
    """The set-up inserts of ``served_ingest``, the same for every seed."""
    rng = random.Random(DATA_SEED)
    return [("insert", key, rng.choice(values)) for key in range(WARMUP_INSERTS)]


# --------------------------------------------------------------------------
# Oracle
# --------------------------------------------------------------------------


class Oracle:
    """A dict model of every acknowledged write.

    ``check`` compares one op's returned value with the model and counts
    a mismatch; :meth:`read_back` compares every key through contiguous
    range selects that together cover the whole table.
    """

    def __init__(self, rows: Sequence[Tuple[int, bytes]] = ()) -> None:
        self.model: Dict[int, bytes] = dict(rows)
        self.keys: List[int] = sorted(self.model)
        self.mismatches = 0
        self.first_error: Optional[str] = None

    def acked(self, op: Op) -> None:
        _, key, value = op
        if key not in self.model:
            bisect.insort(self.keys, key)
        self.model[key] = bytes(value)

    def expected_range(self, low: int, high: int) -> bytes:
        lo = bisect.bisect_left(self.keys, low)
        hi = bisect.bisect_right(self.keys, high)
        return b"".join(self.model[key] for key in self.keys[lo:hi])

    def check(self, op: Op, value) -> bool:
        if op[0] == "select":
            want = self.model.get(op[1])
        elif op[0] == "range_select":
            want = self.expected_range(op[1], op[2])
        else:
            self.acked(op)
            return True
        got = None if value is None else bytes(value)
        if got == want:
            return True
        self.mismatches += 1
        if self.first_error is None:
            self.first_error = (
                f"{op[0]} {op[1:3]}: got {_preview(got)}, "
                f"expected {_preview(want)}"
            )
        return False

    def read_back(self, client) -> int:
        """Range-select every key; returns the number of mismatching spans."""
        bad = 0
        for start in range(0, len(self.keys), READBACK_SPAN):
            span = self.keys[start:start + READBACK_SPAN]
            op = ("range_select", span[0], span[-1])
            result = client.range_select(TABLE, span[0], span[-1])
            if not self.check(op, result.value):
                bad += 1
        return bad


def _preview(value: Optional[bytes]) -> str:
    if value is None:
        return "None"
    return f"{len(value)} bytes {value[:24]!r}"


# --------------------------------------------------------------------------
# The timed loop
# --------------------------------------------------------------------------


@dataclass
class Phase:
    """What one timed phase measured."""

    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    op_wall_s: List[float] = field(default_factory=list)
    op_sim_us: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


def run_ops(client, ops: Sequence[Op], oracle: Oracle,
            phase: Optional[Phase] = None) -> Phase:
    """Issue ``ops`` one at a time; time each call, check each result.

    Appends to ``phase`` when given (the slices of one run share one).
    """
    from repro.common.errors import ReproError

    phase = phase if phase is not None else Phase()
    calls = {
        "select": client.select,
        "range_select": client.range_select,
        "update": client.update,
        "insert": client.insert,
    }
    perf = time.perf_counter
    began = perf()
    errors_before = len(phase.errors)
    for op in ops:
        phase.attempted += 1
        sim_start = client.now_us
        start = perf()
        try:
            result = calls[op[0]](TABLE, *op[1:])
        except ReproError as exc:
            phase.failed += 1
            if len(phase.errors) - errors_before < 5:
                phase.errors.append(f"{op[0]} {op[1]}: {exc}")
            continue
        wall = perf() - start
        if not oracle.check(op, result.value):
            phase.failed += 1
            continue
        phase.op_wall_s.append(wall)
        phase.op_sim_us.append(client.now_us - sim_start)
    phase.wall_s += perf() - began
    return phase


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]
