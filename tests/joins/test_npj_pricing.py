"""NPJ prices and answers exactly as it did with an int64 host table.

The live join keeps its host hash table at the keys' own width, builds
int32 IDs and skips round 1's table read.  ``_FrozenNPJ`` below is its
``_execute`` as it was, over frozen copies of the int64 ``build_table``
and ``probe_table`` it called, so the live path cannot drift from it:
every ``KernelStats`` field, kernel name, phase, seconds, span,
counter, peak and phase peak, and every output column must be
identical, for int32 and int64 relations, unique and duplicated, and
under a :class:`~repro.faults.FaultPlan`.  Relations hold int32 and
int64 columns only, so ``_execute`` itself is also compared on int32,
int64 and uint32 key arrays, whose table is int64 again.
"""

from types import SimpleNamespace
from typing import List

import numpy as np
import pytest

from repro.faults import FaultPlan
from repro.gpusim import GPUContext
from repro.joins import NonPartitionedHashJoin
from repro.joins.base import MATCH, JoinConfig
from repro.joins.npj import _charge_table_traffic
from repro.obs.session import KERNEL, TraceSession
from repro.primitives.hash_table import table_capacity
from repro.primitives.hashing import hash_to_slots
from repro.relational.relation import Relation


def _frozen_build_table(keys, values, capacity):
    """``build_table`` with an int64 table, every round reading it."""
    table_keys = np.full(capacity, -1, dtype=np.int64)
    table_values = np.zeros(capacity, dtype=np.int64)
    slots = hash_to_slots(keys, capacity)
    index_dtype = np.int32 if keys.size < 2**31 else np.int64
    pending = np.arange(keys.size, dtype=index_dtype)
    unclaimed = keys.size
    claim = np.full(capacity, unclaimed, dtype=index_dtype)
    touched: List[np.ndarray] = []
    rounds = 0
    while pending.size:
        rounds += 1
        touched.append(slots)
        np.minimum.at(claim, slots, pending)
        first = np.flatnonzero(claim[slots] == pending)
        claim[slots] = unclaimed
        won = first[table_keys[slots[first]] == -1]
        winner_slots = slots[won]
        table_keys[winner_slots] = keys[pending[won]]
        table_values[winner_slots] = values[pending[won]]
        lost = np.ones(pending.size, dtype=bool)
        lost[won] = False
        pending = pending[lost]
        slots = (slots[lost] + 1) % capacity
    all_touched = np.concatenate(touched) if touched else np.empty(0, dtype=np.int64)
    return table_keys, table_values, all_touched


def _frozen_probe_table(table_keys, table_values, probe_keys):
    """``probe_table`` over the int64 table, hits in (probe, value) order."""
    capacity = table_keys.size
    active = np.arange(probe_keys.size, dtype=np.int64)
    keys = probe_keys
    slots = hash_to_slots(probe_keys, capacity)
    hits_probe, hits_value, touched = [], [], []
    while active.size:
        touched.append(slots)
        slot_keys = table_keys[slots]
        hit = slot_keys == keys
        if hit.any():
            hits_probe.append(active[hit])
            hits_value.append(table_values[slots[hit]])
        live = slot_keys != -1
        active = active[live]
        keys = keys[live]
        slots = (slots[live] + 1) % capacity
    if hits_probe:
        probe_idx = np.concatenate(hits_probe)
        build_vals = np.concatenate(hits_value)
        order = np.lexsort((build_vals, probe_idx))
        probe_idx, build_vals = probe_idx[order], build_vals[order]
    else:
        probe_idx = np.empty(0, dtype=np.int64)
        build_vals = np.empty(0, dtype=np.int64)
    all_touched = np.concatenate(touched) if touched else np.empty(0, dtype=np.int64)
    return probe_idx, build_vals, all_touched


class _FrozenNPJ(NonPartitionedHashJoin):
    """NPJ's ``_execute`` with the int64 host table and int64 build IDs."""

    def _execute(self, ctx, r, s, unique_build_keys):
        capacity = table_capacity(r.num_rows)
        with ctx.phase(MATCH):
            table = ctx.mem.alloc(capacity, np.int64, "hash_table")
            build_ids = np.arange(r.num_rows, dtype=np.int64)
            table_keys, table_values, touched = _frozen_build_table(
                r.key_values, build_ids, capacity
            )
            _charge_table_traffic(
                ctx, touched, capacity, items=r.num_rows,
                extra_seq_read=int(r.key_values.nbytes) + int(build_ids.nbytes // 2),
                extra_seq_write=0, name="npj_build",
            )
            id_s, id_r, touched = _frozen_probe_table(table_keys, table_values, s.key_values)
            out_key = s.key_values[id_s]
            _charge_table_traffic(
                ctx, touched, capacity, items=s.num_rows,
                extra_seq_read=int(s.key_values.nbytes),
                extra_seq_write=int(out_key.nbytes + id_r.size * 4 + id_s.size * 4),
                name="npj_probe",
            )
            a_id_r = ctx.mem.adopt(id_r.astype(np.int32, copy=False), "match_ids_r")
            a_id_s = ctx.mem.adopt(id_s.astype(np.int32, copy=False), "match_ids_s")
            ctx.mem.free(table)
        return out_key, {"r": (a_id_r, None, None), "s": (a_id_s, None, None)}, None


def _relations(key_dtype, duplicated, payloads, seed):
    rng = np.random.default_rng(seed)
    n_r, n_s = 700, 1500
    if duplicated:
        r_keys = rng.integers(0, 150, n_r)
    else:
        r_keys = rng.permutation(4 * n_r)[:n_r]
    s_keys = rng.choice(r_keys, n_s)
    s_keys[::9] = 8 * n_r  # some probes miss
    top = min(int(np.iinfo(key_dtype).max), 1 << 40)
    r_keys[-1] = s_keys[0] = top  # the widest key the dtype holds
    r = Relation(
        [("id", r_keys.astype(key_dtype))]
        + [(f"r{i}", rng.integers(-(1 << 30), 1 << 30, n_r).astype(np.int32))
           for i in range(payloads)],
        key="id", name="R",
    )
    s = Relation(
        [("fk", s_keys.astype(key_dtype))]
        + [(f"s{i}", rng.integers(-(1 << 30), 1 << 30, n_s).astype(np.int64))
           for i in range(payloads)],
        key="fk", name="S",
    )
    return r, s


def _observe(algorithm, r, s, fault_plan=None):
    """Everything the simulator can see of one join."""
    with TraceSession() as session:
        ctx = GPUContext(seed=5, fault_plan=fault_plan)
        result = algorithm.join(r, s, ctx=ctx)
    events = [(e.name, e.category, e.start_s, e.end_s, e.parent) for e in session.events]
    kernels = [
        (e.name, e.args["phase"], e.record.stats, e.record.seconds, e.record.extra)
        for e in session.events
        if e.category == KERNEL
    ]
    counters = {
        name: value
        for name, value in session.metrics.as_dict(derived=False).items()
        if not name.startswith("pool.")
    }
    output = [
        (name, col.dtype.str, col.tobytes()) for name, col in result.output.columns().items()
    ]
    return (
        events, kernels, counters, result.peak_aux_bytes, result.phase_aux_peaks,
        result.phase_seconds, result.total_seconds, result.matches, output,
    )


_RELATION_DTYPES = [np.int32, np.int64]
_KEY_DTYPES = [np.int32, np.int64, np.uint32]


@pytest.mark.parametrize("payloads", [1, 3])
@pytest.mark.parametrize("duplicated", [False, True], ids=["unique", "duplicated"])
@pytest.mark.parametrize("key_dtype", _RELATION_DTYPES, ids=lambda d: np.dtype(d).name)
def test_npj_equals_the_frozen_int64_table(key_dtype, duplicated, payloads):
    r, s = _relations(key_dtype, duplicated, payloads, seed=payloads)
    observed = _observe(NonPartitionedHashJoin(JoinConfig()), r, s)
    expected = _observe(_FrozenNPJ(JoinConfig()), r, s)
    assert observed == expected
    assert observed[7] > s.num_rows // 2
    names = [k[0] for k in observed[1]]
    assert names[:2] == ["npj_build", "npj_probe"]


@pytest.mark.parametrize("key_dtype", _RELATION_DTYPES, ids=lambda d: np.dtype(d).name)
def test_npj_equals_the_frozen_int64_table_under_faults(key_dtype):
    r, s = _relations(key_dtype, True, 3, seed=9)
    plan = FaultPlan(seed=1, kernel_fault_rate=0.3)
    observed = _observe(NonPartitionedHashJoin(JoinConfig()), r, s, plan)
    expected = _observe(_FrozenNPJ(JoinConfig()), r, s, plan)
    assert observed == expected
    assert any(extra for *_, extra in observed[1])  # some kernel retried


@pytest.mark.parametrize("r_rows", [0, 1])
def test_npj_empty_and_single_row_builds(r_rows):
    r = Relation([("id", np.arange(r_rows, dtype=np.int32))], key="id", name="R")
    s = Relation([("fk", np.array([0, 3, 0], dtype=np.int32))], key="fk", name="S")
    observed = _observe(NonPartitionedHashJoin(JoinConfig()), r, s)
    assert observed == _observe(_FrozenNPJ(JoinConfig()), r, s)
    assert observed[7] == 2 * r_rows


def _observe_execute(algorithm, r_keys, s_keys):
    """``_execute`` alone on bare key arrays: kernels, peaks and returns."""
    r = SimpleNamespace(num_rows=int(r_keys.size), key_values=r_keys)
    s = SimpleNamespace(num_rows=int(s_keys.size), key_values=s_keys)
    with TraceSession() as session:
        ctx = GPUContext(seed=5)
        out_key, maps, transform = algorithm._execute(ctx, r, s, False)
    kernels = [
        (e.name, e.args["phase"], e.record.stats, e.record.seconds)
        for e in session.events
        if e.category == KERNEL
    ]
    returned = [(out_key.dtype.str, out_key.tobytes()), transform] + [
        (side, m.label, m.data.dtype.str, m.data.tobytes(), rest)
        for side, (m, *rest) in sorted(maps.items())
    ]
    return kernels, ctx.mem.peak_bytes, ctx.mem.phase_peaks, returned


@pytest.mark.parametrize("duplicated", [False, True], ids=["unique", "duplicated"])
@pytest.mark.parametrize("key_dtype", _KEY_DTYPES, ids=lambda d: np.dtype(d).name)
def test_npj_execute_equals_the_frozen_int64_table(key_dtype, duplicated):
    r, s = _relations(np.int64, duplicated, 0, seed=4)
    r_keys, s_keys = r.key_values.astype(key_dtype), s.key_values.astype(key_dtype)
    observed = _observe_execute(NonPartitionedHashJoin(JoinConfig()), r_keys, s_keys)
    expected = _observe_execute(_FrozenNPJ(JoinConfig()), r_keys, s_keys)
    assert observed == expected
    assert len(observed[3][0][1]) > r_keys.dtype.itemsize * s_keys.size // 2
