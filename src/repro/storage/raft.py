"""Replication network model (§3.2.1).

PolarStore commits a write once the leader and a majority of replicas
have persisted it.  :class:`~repro.storage.store.PolarStore` applies
that commit rule (``_commit_time``) and prices every replica RPC with
the :class:`NetworkModel` below.  Leadership election and log repair
live in :mod:`repro.consensus` — a full Raft implementation (randomized
election timers, term fencing, nextIndex backoff) that a volume opts
into via :meth:`PolarStore.attach_consensus`; without it leadership
stays static at replica 0.

Timing: the leader issues the replica RPCs in parallel; each follower
persists through its own device queue; the commit time is the leader
persist time joined with the second-fastest follower acknowledgement
(majority of 3 = leader + 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.units import KiB


@dataclass(frozen=True)
class NetworkModel:
    """Same-cluster RPC cost: fixed one-way latency + per-KiB serialization.

    Defaults model a 25/100 Gbps datacenter network with kernel-bypass
    I/O: ~18 µs one-way, ~0.04 µs per KiB.
    """

    one_way_us: float = 18.0
    per_kib_us: float = 0.04

    def rpc_us(self, payload_bytes: int) -> float:
        """One-way message cost for ``payload_bytes``."""
        return self.one_way_us + self.per_kib_us * payload_bytes / KiB
