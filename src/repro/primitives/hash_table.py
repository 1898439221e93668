"""Global-memory linear-probing hash table (the cuDF-style NPJ substrate).

The non-partitioned hash join builds one big open-addressing table in
global memory and probes it directly — no transformation phase, but
every insert and probe is a random global-memory access (Section 5.2.2:
"cuDF is the most inefficient of all because of the random accesses
during the construction and probing of the hash table").

The implementation is a real vectorized linear-probing table: inserts
resolve collisions round by round (first pending writer per slot wins,
losers advance), probes walk runs until an empty slot, collecting *all*
duplicate matches.  Every slot access is recorded so the join can charge
exact random-traffic statistics.

Host cost is linear per round: each round's first writers claim their
slots with one ``np.minimum.at`` over a reusable claim table.  Before
the first round, one scatter into a bool table and one count check
whether every row hashes to its own slot; if so (dense build keys) the
empty table takes every row at once, with no claim and no loop.  When
no probe hit twice (unique build keys) the hits are put in probe-major
order by one scatter; only duplicate hits pay a sort, one packed
:func:`~repro.primitives.grouping.packed_order`.  The host table holds
keys at their own width (:func:`table_key_dtype`) and values at theirs,
so each round's random slot reads move no more bytes than the keys do.
Row ids (pending inserts, active probes, probe indices) and slots are
held at :func:`~repro.relational.types.id_dtype` of the row count or
capacity: 4 bytes below 2^31, the width the joins charge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..errors import ReproError
from ..relational.types import id_dtype
from .gather import host_take
from .grouping import packed_order
from .hashing import hash_to_slots

#: Sentinel for an empty slot; keys must be >= 0 (dictionary-encoded).
EMPTY = -1

#: Bytes per slot (packed key + value pair).
SLOT_BYTES = 8


def table_capacity(num_keys: int, load_factor: float = 0.5) -> int:
    """Power-of-two capacity for the requested maximum load factor."""
    if num_keys < 0:
        raise ValueError("num_keys must be >= 0")
    needed = max(2, int(num_keys / load_factor))
    return 1 << (needed - 1).bit_length()


@dataclass
class BuildResult:
    """A populated table plus the slot positions every insert touched."""

    table_keys: np.ndarray
    table_values: np.ndarray
    touched_slots: np.ndarray
    rounds: int


@dataclass
class ProbeResult:
    """Matches plus the slot positions every probe touched.

    ``probe_indices[i]`` matched the build tuple ``build_values[i]``;
    pairs are sorted to probe-major (ascending probe index) order.
    """

    probe_indices: np.ndarray
    build_values: np.ndarray
    touched_slots: np.ndarray
    rounds: int


def table_key_dtype(key_dtype: np.dtype) -> np.dtype:
    """The host table's key dtype: the narrowest signed integer that
    holds every *key_dtype* value and :data:`EMPTY` (``int32`` for
    ``int32`` keys, ``int64`` for ``uint32``), else ``int64``."""
    wide = np.promote_types(key_dtype, np.int8)
    return wide if wide.kind == "i" else np.dtype(np.int64)


def build_table(
    keys: np.ndarray, values: np.ndarray, capacity: int
) -> BuildResult:
    """Insert all (key, value) pairs; duplicates occupy separate slots.

    *capacity* is a power of two (:func:`table_capacity`).
    """
    if keys.size and keys.min() < 0:
        raise ReproError("hash-table keys must be non-negative")
    if keys.size and keys.dtype.kind == "u" and int(keys.max()) > np.iinfo(np.int64).max:
        raise ReproError("hash-table keys must be below 2^63")
    if keys.size > capacity:
        raise ReproError(f"cannot insert {keys.size} keys into capacity {capacity}")
    table_keys = np.full(capacity, EMPTY, dtype=table_key_dtype(keys.dtype))
    table_values = np.zeros(capacity, dtype=values.dtype)
    # pending inserts in ascending order, each with its current slot
    slot_dtype = id_dtype(capacity)
    slots = hash_to_slots(keys, capacity).astype(slot_dtype)
    if keys.size and _distinct(slots, capacity):
        # No two rows share a slot and the table is empty: every row is
        # its slot's first writer and wins round 1.
        table_keys[slots] = keys
        table_values[slots] = values
        return BuildResult(table_keys, table_values, slots, 1)
    index_dtype = id_dtype(keys.size)
    pending = np.arange(keys.size, dtype=index_dtype)
    # claim[slot] is the first pending writer of the slot this round;
    # keys.size marks an unclaimed slot.
    unclaimed = keys.size
    claim = np.full(capacity, unclaimed, dtype=index_dtype)
    touched: List[np.ndarray] = []
    rounds = 0
    while pending.size:
        rounds += 1
        if rounds > capacity:
            raise ReproError("hash-table insertion did not converge")
        touched.append(slots)
        np.minimum.at(claim, slots, pending)
        won = np.flatnonzero(host_take(claim, slots) == pending)
        claim[slots] = unclaimed
        winner_slots = host_take(slots, won)
        if rounds > 1:
            # Round 1 skips the read: the table starts empty.
            empty = host_take(table_keys, winner_slots) == EMPTY
            won = won[empty]
            winner_slots = winner_slots[empty]
        # Round 1's pending rows are 0..n-1: a winner's position is its row.
        winners = won if rounds == 1 else host_take(pending, won)
        table_keys[winner_slots] = host_take(keys, winners)
        table_values[winner_slots] = host_take(values, winners)
        lost = np.ones(pending.size, dtype=bool)
        lost[won] = False
        pending = pending[lost]
        slots = slots[lost]
        slots += 1
        slots &= capacity - 1
    return BuildResult(table_keys, table_values, _concat(touched, slot_dtype), rounds)


def probe_table(
    table_keys: np.ndarray,
    table_values: np.ndarray,
    probe_keys: np.ndarray,
) -> ProbeResult:
    """Find every match for every probe key (handles duplicate build keys).

    Each probe walks its run until it hits an empty slot, emitting one
    match per equal-key slot along the way.
    """
    capacity = table_keys.size
    index_dtype = id_dtype(probe_keys.size)
    # active probes in ascending order, each with its key and current slot
    active = np.arange(probe_keys.size, dtype=index_dtype)
    keys = probe_keys
    slot_dtype = id_dtype(capacity)
    slots = hash_to_slots(probe_keys, capacity).astype(slot_dtype)
    hits_probe: List[np.ndarray] = []
    hits_value: List[np.ndarray] = []
    touched: List[np.ndarray] = []
    rounds = 0
    while active.size:
        rounds += 1
        if rounds > capacity + 1:
            raise ReproError("hash-table probe did not converge")
        touched.append(slots)
        slot_keys = host_take(table_keys, slots)
        hit = slot_keys == keys
        if hit.any():
            hits_probe.append(active[hit])
            hits_value.append(host_take(table_values, slots[hit]))
        live = slot_keys != EMPTY
        active = active[live]
        keys = keys[live]
        slots = slots[live]
        slots += 1
        slots &= capacity - 1
    if hits_probe:
        probe_idx = np.concatenate(hits_probe)
        build_vals = np.concatenate(hits_value)
        hit_once = np.zeros(probe_keys.size, dtype=bool)
        hit_once[probe_idx] = True
        if np.count_nonzero(hit_once) == probe_idx.size:
            # No probe hit twice: probe-major order is one scatter.
            by_probe = np.empty(probe_keys.size, dtype=build_vals.dtype)
            by_probe[probe_idx] = build_vals
            probe_idx = np.flatnonzero(hit_once).astype(index_dtype)
            build_vals = host_take(by_probe, probe_idx)
        else:
            order = packed_order(probe_idx, build_vals)
            probe_idx = host_take(probe_idx, order)
            build_vals = host_take(build_vals, order)
    else:
        probe_idx = np.empty(0, dtype=index_dtype)
        build_vals = np.empty(0, dtype=table_values.dtype)
    return ProbeResult(probe_idx, build_vals, _concat(touched, slot_dtype), rounds)


def _distinct(slots: np.ndarray, capacity: int) -> bool:
    """Whether no two entries of *slots* (each below *capacity*) are equal."""
    seen = np.zeros(capacity, dtype=bool)
    seen[slots] = True
    return np.count_nonzero(seen) == slots.size


def _concat(touched: List[np.ndarray], slot_dtype: np.dtype) -> np.ndarray:
    """Every round's touched slots, in round order."""
    if not touched:
        return np.empty(0, dtype=slot_dtype)
    return np.concatenate(touched)
