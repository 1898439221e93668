"""Every narrow join prices and answers exactly as its moving loops did.

A narrow join (at most one payload column per side) runs the paper's
two-phase path: each side's payload is transformed with its keys and
match finding writes the matched payload values straight to the
output.  ``_frozen_narrow_sort_merge`` and
``_frozen_narrow_partitioned_hash`` below are those paths as they were
when they moved every transformed column on the host, over frozen
copies of the moving ``sort_pairs``, ``radix_partition`` and
``bucket_chain_partition`` they called, so the live narrow SMJ-UM,
SMJ-OM, PHJ-OM and PHJ-UM cannot drift from them: every ``KernelStats``
field, kernel name, phase, seconds and submit order, the trace's spans
and counters, peak and phase-peak bytes, out-of-memory errors and every
output bit must be identical, for int32 and int64 keys, unique and
duplicated build keys, no payload or one, raw and hashed partitioning,
and under a :class:`~repro.faults.FaultPlan` with the device capacity
set at the frozen peak and one byte under it.
"""

import numpy as np
import pytest

from repro.errors import DeviceOutOfMemoryError
from repro.faults import FaultPlan
from repro.gpusim import A100, GPUContext, KernelStats
from repro.joins import (
    PartitionedHashJoin,
    PartitionedHashJoinUM,
    SortMergeJoinOM,
    SortMergeJoinUM,
)
from repro.joins.base import MATCH, TRANSFORM, JoinConfig, output_column_names
from repro.joins.matching import expand_bounds, match_positions
from repro.joins.phj import charge_hash_match, charge_load_balancing, derive_partition_bits
from repro.obs.session import KERNEL, TraceSession
from repro.primitives.bucket_chain import contention_factor
from repro.primitives.gather import gather
from repro.primitives.merge_path import match_bounds
from repro.primitives.radix_partition import partition_codes, plan_passes
from repro.relational.relation import Relation


def _frozen_sort_pairs(ctx, keys, payloads, phase, label):
    """``sort_pairs`` as it was: a stable sort moving every payload."""
    order = np.argsort(keys, kind="stable")
    per_pass_bytes = int(keys.nbytes) + sum(int(p.nbytes) for p in payloads)
    stats = KernelStats(
        name=f"sort_pairs:{label}",
        items=int(keys.size),
        seq_read_bytes=int(keys.nbytes) + per_pass_bytes,
        seq_write_bytes=per_pass_bytes,
        atomic_ops=256,
    )
    passes = -(-keys.dtype.itemsize * 8 // 8)
    ctx.submit_many([stats] * passes, phase=phase)
    return keys[order], [p[order] for p in payloads]


def _frozen_radix_partition(ctx, keys, payloads, bits, phase, hashed, label):
    """``radix_partition`` as it was, moving data and charging inline."""
    pass_plan = plan_passes(bits)
    ctx.count("partition_passes", len(pass_plan))
    codes = partition_codes(keys, bits, hashed=hashed)
    order = np.argsort(codes, kind="stable")
    counts = np.bincount(codes, minlength=1 << bits).astype(np.int64)
    payload_bytes = sum(int(p.nbytes) for p in payloads)
    ctx.submit_many(
        [
            KernelStats(
                name=f"radix_partition:{label}",
                items=int(keys.size),
                seq_read_bytes=2 * int(keys.nbytes) + payload_bytes,
                seq_write_bytes=int(keys.nbytes) + payload_bytes,
                atomic_ops=1 << num_bits,
            )
            for _, num_bits in pass_plan
        ],
        phase=phase,
    )
    ctx.submit(
        KernelStats(
            name="partition_boundaries",
            items=int(keys.size),
            seq_read_bytes=int(keys.nbytes),
            seq_write_bytes=2 * int(counts.nbytes),
            atomic_ops=int(counts.size),
        ),
        phase=phase,
    )
    return keys[order], [p[order] for p in payloads], counts, 0


def _frozen_bucket_chain_partition(ctx, keys, payloads, bits, bucket_tuples, phase, hashed, label):
    """``bucket_chain_partition`` as it was: an RNG tie-breaker within
    each partition, fixed-size buckets, one kernel per pass."""
    n = int(keys.size)
    codes = partition_codes(keys, bits, hashed=hashed)
    tie_breaker = ctx.rng.random(n)
    order = np.lexsort((tie_breaker, codes))
    counts = np.bincount(codes, minlength=1 << bits).astype(np.int64)
    tuple_bytes = int(keys.dtype.itemsize) + sum(int(p.dtype.itemsize) for p in payloads)
    buckets = np.maximum(1, -(-counts // bucket_tuples))
    fragmentation = int(buckets.sum()) * bucket_tuples * tuple_bytes - n * tuple_bytes
    conflict = contention_factor(counts)
    payload_bytes = sum(int(p.nbytes) for p in payloads)
    ctx.count("partition_passes", len(plan_passes(bits)))
    for _, num_bits in plan_passes(bits):
        ctx.submit(
            KernelStats(
                name=f"bucket_chain:{label}",
                items=n,
                seq_read_bytes=2 * int(keys.nbytes) + payload_bytes,
                seq_write_bytes=int(keys.nbytes) + payload_bytes,
                atomic_ops=n + int(buckets.sum()),
                atomic_conflict_factor=conflict,
            ),
            phase=phase,
            num_bits=num_bits,
        )
    return keys[order], [p[order] for p in payloads], counts, fragmentation


def _frozen_emit_output(ctx, r, s, r_payload_t, s_keys_t, s_payload_t, r_pos, s_pos):
    """Write key + payload columns straight from the transformed inputs."""
    out_key = s_keys_t[s_pos]
    columns = [("key", out_key)]
    payloads = {"r": (r_payload_t, r_pos), "s": (s_payload_t, s_pos)}
    for side, _, out_name in output_column_names(r, s)[1:]:
        payload_t, pos = payloads[side]
        columns.append((out_name, gather(ctx, payload_t, pos, phase=MATCH, label=out_name)))
    ctx.submit(
        KernelStats(name="write_matches", items=int(out_key.size),
                    seq_write_bytes=int(out_key.nbytes)),
        phase=MATCH,
    )
    return columns


def _first_payloads(rel):
    return [rel.column(name) for name in rel.payload_names[:1]]


def _frozen_narrow_sort_merge(ctx, r, s, unique_build_keys, config):
    transformed = {}
    with ctx.phase(TRANSFORM):
        for side, rel in (("r", r), ("s", s)):
            payloads = _first_payloads(rel)
            keys_sorted, payloads_sorted = _frozen_sort_pairs(
                ctx, rel.key_values, payloads, TRANSFORM, side
            )
            handle_k = ctx.mem.adopt(keys_sorted, f"keys_sorted_{side}")
            handle_p = (
                ctx.mem.adopt(payloads_sorted[0], f"payload_sorted_{side}")
                if payloads else None
            )
            transformed[side] = (handle_k, handle_p)

    with ctx.phase(MATCH):
        rk, rp = transformed["r"]
        sk, sp = transformed["s"]
        lo, hi = match_bounds(
            ctx, rk.data, sk.data,
            unique_build_keys and not config.double_merge_pass, phase=MATCH,
        )
        r_pos, s_pos = expand_bounds(lo, hi)
        columns = _frozen_emit_output(
            ctx, r, s, rp.data if rp else None,
            sk.data, sp.data if sp else None, r_pos, s_pos,
        )
        for handle in (rk, rp, sk, sp):
            if handle is not None:
                ctx.mem.free(handle)
    return columns


def _frozen_narrow_partitioned_hash(ctx, r, s, unique_build_keys, config, bits, partitioner):
    parts = {}
    handles = []
    hashed = config.hashed_partitioning
    with ctx.phase(TRANSFORM):
        for side, rel in (("r", r), ("s", s)):
            payloads = _first_payloads(rel)
            if partitioner == "radix":
                part = _frozen_radix_partition(
                    ctx, rel.key_values, payloads, bits, TRANSFORM, hashed, side
                )
            else:
                part = _frozen_bucket_chain_partition(
                    ctx, rel.key_values, payloads, bits, config.bucket_tuples,
                    TRANSFORM, hashed, side,
                )
                if part[3] > 0:
                    handles.append(ctx.mem.alloc(part[3], np.uint8, f"fragmentation_{side}"))
            parts[side] = part
            handles.append(ctx.mem.adopt(part[0], f"part_keys_{side}"))
            if payloads:
                handles.append(ctx.mem.adopt(part[1][0], f"part_payload_{side}"))

    with ctx.phase(MATCH):
        (r_keys, r_payloads, r_counts, _), (s_keys, s_payloads, s_counts, _) = (
            parts["r"], parts["s"]
        )
        charge_load_balancing(ctx, s_counts.size)
        r_pos, s_pos = match_positions(
            r_keys, s_keys, unique_build_keys, 0 if hashed else bits
        )
        key_bytes = r_keys.dtype.itemsize
        charge_hash_match(
            ctx,
            r_counts,
            s_counts,
            build_tuple_bytes=key_bytes + sum(p.dtype.itemsize for p in r_payloads),
            probe_tuple_bytes=key_bytes + sum(p.dtype.itemsize for p in s_payloads),
            matches=int(s_pos.size),
            key_bytes=key_bytes,
            tuples_per_partition=(
                config.bucket_tuples if partitioner == "bucket"
                else config.tuples_per_partition
            ),
            load_balanced=config.load_balance,
            num_execution_units=ctx.device.num_execution_units,
        )
        columns = _frozen_emit_output(
            ctx, r, s, r_payloads[0] if r_payloads else None,
            s_keys, s_payloads[0] if s_payloads else None, r_pos, s_pos,
        )
        ctx.mem.free_all(handles)
    return columns


def _bits(join, r):
    config = join.config
    return derive_partition_bits(r.num_rows, config.tuples_per_partition, config.partition_bits)


class _FrozenSortMergeJoinUM(SortMergeJoinUM):
    def _execute_narrow(self, ctx, r, s, unique_build_keys):
        return _frozen_narrow_sort_merge(ctx, r, s, unique_build_keys, self.config)


class _FrozenSortMergeJoinOM(SortMergeJoinOM):
    def _execute_narrow(self, ctx, r, s, unique_build_keys):
        return _frozen_narrow_sort_merge(ctx, r, s, unique_build_keys, self.config)


class _FrozenPartitionedHashJoin(PartitionedHashJoin):
    def _execute_narrow(self, ctx, r, s, unique_build_keys):
        return _frozen_narrow_partitioned_hash(
            ctx, r, s, unique_build_keys, self.config, _bits(self, r), "radix"
        )


class _FrozenPartitionedHashJoinUM(PartitionedHashJoinUM):
    def _execute_narrow(self, ctx, r, s, unique_build_keys):
        return _frozen_narrow_partitioned_hash(
            ctx, r, s, unique_build_keys, self.config, _bits(self, r), "bucket"
        )


#: id -> (live algorithm, frozen algorithm) classes.
ALGORITHMS = {
    "SMJ-UM": (SortMergeJoinUM, _FrozenSortMergeJoinUM),
    "SMJ-OM": (SortMergeJoinOM, _FrozenSortMergeJoinOM),
    "PHJ-OM": (PartitionedHashJoin, _FrozenPartitionedHashJoin),
    "PHJ-UM": (PartitionedHashJoinUM, _FrozenPartitionedHashJoinUM),
}

#: payload case -> (R payload dtypes, S payload dtypes); item sizes differ
#: per side, and S's payload collides with the key's output name.
PAYLOADS = {
    "none": ((), ()),
    "both": ((("a", np.int64),), (("key", np.int32),)),
    "r-only": ((("a", np.int32),), ()),
}


def _relations(key_dtype, payloads, duplicated, seed):
    rng = np.random.default_rng(seed)
    n_r, n_s = 600, 1400
    if duplicated:
        r_keys = rng.integers(0, 200, n_r)
    else:
        r_keys = rng.permutation(3 * n_r)[:n_r]  # unique, sparse
    s_keys = rng.choice(r_keys, n_s)
    s_keys[::7] = 10 * n_r  # some probes miss
    r_payloads, s_payloads = PAYLOADS[payloads]
    r = Relation(
        [("id", r_keys.astype(key_dtype))]
        + [(name, rng.integers(-(1 << 30), 1 << 30, n_r).astype(t)) for name, t in r_payloads],
        key="id", name="R",
    )
    s = Relation(
        [("fk", s_keys.astype(key_dtype))]
        + [(name, rng.integers(-(1 << 30), 1 << 30, n_s).astype(t)) for name, t in s_payloads],
        key="fk", name="S",
    )
    return r, s


def _observe(algorithm, r, s, fault_plan=None):
    """Everything the simulator can see of one join, or its OOM failure."""
    with TraceSession() as session:
        ctx = GPUContext(seed=5, fault_plan=fault_plan)
        try:
            result = algorithm.join(r, s, ctx=ctx)
        except DeviceOutOfMemoryError as error:
            return ("oom", str(error), error.requested, error.in_use, error.top_live)
    events = [(e.name, e.category, e.start_s, e.end_s, e.parent) for e in session.events]
    kernels = [
        (e.name, e.args["phase"], e.record.stats, e.record.seconds, e.record.extra)
        for e in session.events
        if e.category == KERNEL
    ]
    # The buffer pool's hit/miss counters are host-side bookkeeping.
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
        result.phase_seconds, result.kernel_count, result.matches, output,
    )


def _pair(name, **options):
    live, frozen = ALGORITHMS[name]
    config = dict(tuples_per_partition=64, bucket_tuples=64, **options)
    return live(JoinConfig(**config)), frozen(JoinConfig(**config))


@pytest.mark.parametrize("hashed", [False, True], ids=["raw", "hashed"])
@pytest.mark.parametrize("duplicated", [False, True], ids=["unique", "duplicated"])
@pytest.mark.parametrize("payloads", sorted(PAYLOADS))
@pytest.mark.parametrize("key_dtype", [np.int32, np.int64], ids=["int32", "int64"])
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_narrow_join_equals_the_frozen_moving_loops(name, key_dtype, payloads, duplicated, hashed):
    r, s = _relations(key_dtype, payloads, duplicated, seed=len(payloads))
    live, frozen = _pair(name, hashed_partitioning=hashed)
    observed = _observe(live, r, s)
    expected = _observe(frozen, r, s)
    assert observed == expected
    assert "materialize" not in observed[5]  # the two-phase path ran
    assert observed[7] > 0


@pytest.mark.parametrize("capacity", ["unbounded", "fits", "oom"])
@pytest.mark.parametrize("key_dtype", [np.int32, np.int64], ids=["int32", "int64"])
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_narrow_join_equals_the_frozen_moving_loops_under_faults(name, key_dtype, capacity):
    """Same kernel retries (the injector keys on submit order) and OOMs.

    ``fits`` leaves the device exactly the frozen run's peak, ``oom`` one
    byte less, so any change in reserved bytes shows.
    """
    r, s = _relations(key_dtype, "both", False, seed=len(name))
    live, frozen = _pair(name, partition_bits=10)
    peak = frozen.join(r, s, ctx=GPUContext(seed=5)).peak_aux_bytes
    frac = {
        "unbounded": None,
        "fits": (peak + 0.5) / A100.global_mem_bytes,
        "oom": (peak - 0.5) / A100.global_mem_bytes,
    }[capacity]
    plan = FaultPlan(seed=1, kernel_fault_rate=0.3, capacity_frac=frac)
    observed = _observe(live, r, s, plan)
    expected = _observe(frozen, r, s, plan)
    assert observed == expected
    assert (observed[0] == "oom") == (capacity == "oom")
    if capacity != "oom":
        assert any(extra for *_, extra in observed[1])  # some kernel retried
