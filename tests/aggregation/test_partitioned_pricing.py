"""PART-AGG prices what it does not perform exactly as performing it did.

The GFTR pattern charges its key partitioning and one lazy
``(key, column)`` partitioning per value column without moving any
data.  ``_FrozenMovingPartitionedGroupBy`` below is the implementation
that performed every partitioning on the host (reusing the transform's
permutation for the lazy ones), with its own copy of the partitioner's
charges, kept here so the priced path cannot drift from it: kernel
names, every ``KernelStats`` field, phases, seconds and submit order,
the ``partition_passes`` counter, peak and phase-peak bytes, outputs,
and out-of-memory failures must all be identical, for every radix
width a pass plan can take (1-16 bits), plain and under a
:class:`~repro.faults.FaultPlan`.  GFUR still partitions its
``(key, tuple ID)`` pairs but charges its per-column gathers without
performing them, so it is held to the same frozen copy.  SORT-AGG/gftr
likewise prices its lazy ``(key, column)`` re-sorts and moves only the
column; ``_FrozenSortGroupBy`` is the implementation that re-sorted the
keys as well.
"""

from collections import OrderedDict

import numpy as np
import pytest

from repro.aggregation import AggSpec, GroupByConfig
from repro.aggregation.base import AGGREGATE, MATERIALIZE, TRANSFORM, segmented_aggregate
from repro.aggregation.partitioned_groupby import PartitionedGroupBy, derive_groupby_bits
from repro.aggregation.sort_groupby import SortGroupBy, _charge_segmented_reduce
from repro.errors import DeviceOutOfMemoryError
from repro.faults import FaultPlan
from repro.gpusim import A100, GPUContext, KernelStats
from repro.obs.session import KERNEL, TraceSession
from repro.primitives.gather import gather
from repro.primitives.grouping import group_identify, groups_from_sorted
from repro.primitives.radix_partition import partition_codes, plan_passes
from repro.primitives.sort_pairs import sort_pairs
from repro.relational.types import id_dtype

AGGREGATES = [
    AggSpec("v", "sum"),
    AggSpec("v", "count"),
    AggSpec("w", "min"),
    AggSpec("v", "max"),
    AggSpec("w", "mean"),
]


def _frozen_radix_partition(ctx, keys, payloads, total_bits, phase, hashed, label, like=None):
    """``radix_partition`` as it was, moving data and charging inline.

    Returns ``(partitioned keys, partitioned payloads, order)``.
    """
    pass_plan = plan_passes(total_bits)
    ctx.count("partition_passes", len(pass_plan))
    if like is not None:
        order, keys_out = like[2], like[0]
    else:
        codes = partition_codes(keys, total_bits, hashed=hashed)
        order = np.argsort(codes, kind="stable")
        keys_out = keys[order]
        counts = np.bincount(codes, minlength=1 << total_bits).astype(np.int64)
        offsets = np.zeros_like(counts)
        np.cumsum(counts[:-1], out=offsets[1:])
    payloads_out = [p[order] for p in payloads]
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
    if like is None:
        ctx.submit(
            KernelStats(
                name="partition_boundaries",
                items=int(keys.size),
                seq_read_bytes=int(keys.nbytes),
                seq_write_bytes=int(counts.nbytes + offsets.nbytes),
                atomic_ops=int(counts.size),
            ),
            phase=phase,
        )
    return keys_out, payloads_out, order


class _FrozenMovingPartitionedGroupBy(PartitionedGroupBy):
    """PART-AGG as it was: every partitioning and gather performed."""

    def _execute(self, ctx, keys, values, aggregates):
        n = int(keys.size)
        group_keys, inverse = group_identify(keys)
        num_groups = int(group_keys.size)
        target = self.config.tuples_per_partition or max(
            8, ctx.device.shared_mem_bytes // 32
        )
        bits = derive_groupby_bits(num_groups, target, self.config.partition_bits)
        hashed = self.config.hashed_partitioning
        id_map = None
        with ctx.phase(TRANSFORM):
            if self.pattern == "gfur":
                ids = np.arange(n, dtype=id_dtype(n))
                ctx.submit(
                    KernelStats(name="init_ids", items=n, seq_write_bytes=int(ids.nbytes)),
                    phase=TRANSFORM,
                )
                part = _frozen_radix_partition(
                    ctx, keys, [ids], bits, TRANSFORM, hashed, "keys+ids"
                )
                id_map = ctx.mem.adopt(part[1][0], "ids_partitioned")
            else:
                part = _frozen_radix_partition(ctx, keys, [], bits, TRANSFORM, hashed, "keys")
            a_keys = ctx.mem.adopt(part[0], "keys_partitioned")
        output = OrderedDict()
        output["group_key"] = group_keys
        with ctx.phase(AGGREGATE):
            self._charge_partition_fold(
                ctx, n, int(part[0].nbytes), num_groups * 8, "partition_groups", AGGREGATE
            )
        with ctx.phase(MATERIALIZE):
            for spec in aggregates:
                if spec.op == "count":
                    output[spec.output_name] = segmented_aggregate(
                        inverse, num_groups, None, "count"
                    )
                    self._charge_partition_fold(
                        ctx, n, 0, num_groups * 8, f"fold:{spec.output_name}", MATERIALIZE
                    )
                    continue
                column = values[spec.column]
                if self.pattern == "gfur":
                    folded_input = gather(
                        ctx, column, id_map.data, phase=MATERIALIZE, label=spec.column
                    )
                else:
                    _, (folded_input,), _ = _frozen_radix_partition(
                        ctx, keys, [column], bits, MATERIALIZE, hashed, spec.column,
                        like=part,
                    )
                output[spec.output_name] = segmented_aggregate(
                    inverse, num_groups, column, spec.op
                )
                self._charge_partition_fold(
                    ctx, n, int(folded_input.nbytes), num_groups * 8,
                    f"fold:{spec.output_name}", MATERIALIZE,
                )
            ctx.mem.free(a_keys)
            if id_map is not None:
                ctx.mem.free(id_map)
        return output


def _inputs(rows: int, seed: int):
    rng = np.random.default_rng(seed)
    keys = rng.integers(-500, 3000, rows).astype(np.int32)
    values = {
        "v": rng.integers(-(1 << 20), 1 << 20, rows).astype(np.int64),
        "w": rng.standard_normal(rows).astype(np.float32),
    }
    return keys, values


def _observe(algorithm, keys, values, fault_plan=None):
    """Everything the simulator can see of one run, or its OOM failure."""
    with TraceSession() as session:
        ctx = GPUContext(seed=5, fault_plan=fault_plan)
        try:
            result = algorithm.group_by(keys, values, AGGREGATES, ctx=ctx)
        except DeviceOutOfMemoryError as error:
            return ("oom", str(error), error.requested, error.in_use, error.top_live)
    kernels = [
        (e.name, e.args["phase"], e.record.stats, e.record.seconds, e.record.extra)
        for e in session.events
        if e.category == KERNEL
    ]
    output = [(name, col.dtype.str, col.tobytes()) for name, col in result.output.items()]
    return (
        kernels,
        session.metrics.value("partition_passes"),
        result.peak_aux_bytes,
        ctx.mem.phase_peaks,
        result.phase_seconds,
        result.kernel_count,
        output,
    )


@pytest.mark.parametrize("pattern", ["gftr", "gfur"])
@pytest.mark.parametrize("hashed", [True, False], ids=["hashed", "raw"])
@pytest.mark.parametrize("bits", range(1, 17), ids=lambda b: f"bits{b}")
def test_priced_partitions_equal_performed_ones(bits, hashed, pattern):
    keys, values = _inputs(3000, seed=bits)
    config = GroupByConfig(partition_bits=bits, hashed_partitioning=hashed)
    priced = _observe(PartitionedGroupBy(config, pattern), keys, values)
    moved = _observe(_FrozenMovingPartitionedGroupBy(config, pattern), keys, values)
    assert priced == moved
    # GFTR partitions the keys, then (key, column) per non-count aggregate.
    partitionings = 5 if pattern == "gftr" else 1
    assert priced[1] == partitionings * (1 + (bits > 8))


#: Device capacity as a fraction of the A100's: none, just room for the
#: 12000 partitioned key bytes, and too little for them.
CAPACITIES = {"unbounded": None, "fits": 2.8e-7, "oom": 2e-7}


@pytest.mark.parametrize("capacity", sorted(CAPACITIES), ids=str)
@pytest.mark.parametrize("bits", [1, 8, 9, 16], ids=lambda b: f"bits{b}")
def test_priced_partitions_equal_performed_ones_under_faults(bits, capacity):
    """Same kernel retries (the injector keys on submit order) and OOMs."""
    keys, values = _inputs(3000, seed=100 + bits)
    config = GroupByConfig(partition_bits=bits)
    plan = FaultPlan(
        seed=bits, kernel_fault_rate=0.3, capacity_frac=CAPACITIES[capacity]
    )
    priced = _observe(PartitionedGroupBy(config), keys, values, plan)
    moved = _observe(_FrozenMovingPartitionedGroupBy(config), keys, values, plan)
    assert priced == moved
    assert (priced[0] == "oom") == (capacity == "oom")
    if capacity != "oom":
        assert any(extra for *_, extra in priced[0])  # some kernel retried


def _frozen_sort_pairs(ctx, keys, payloads, order, phase, label):
    """``sort_pairs`` with a precomputed permutation, as it was: the keys
    and payloads are both moved, one kernel charged per 8-bit pass."""
    per_pass_bytes = int(keys.nbytes) + sum(int(p.nbytes) for p in payloads)
    stats = KernelStats(
        name=f"sort_pairs:{label}",
        items=int(keys.size),
        seq_read_bytes=int(keys.nbytes) + per_pass_bytes,
        seq_write_bytes=per_pass_bytes,
        atomic_ops=256,
    )
    ctx.submit_many([stats] * keys.dtype.itemsize, phase=phase)
    return keys[order], [p[order] for p in payloads]


class _FrozenSortGroupBy(SortGroupBy):
    """SORT-AGG as it was: each lazy re-sort moved the keys too."""

    def _execute(self, ctx, keys, values, aggregates):
        n = int(keys.size)
        with ctx.phase(TRANSFORM):
            if self.pattern == "gfur":
                ids = np.arange(n, dtype=id_dtype(n))
                ctx.submit(
                    KernelStats(name="init_ids", items=n, seq_write_bytes=int(ids.nbytes)),
                    phase=TRANSFORM,
                )
                a_ids = ctx.mem.adopt(ids, "ids")
                keys_sorted, (ids_sorted,) = sort_pairs(ctx, keys, [ids], phase=TRANSFORM)
                ctx.mem.free(a_ids)
                a_sorted_ids = ctx.mem.adopt(ids_sorted, "ids_sorted")
                key_order = None
            else:
                keys_sorted, _, key_order = sort_pairs(
                    ctx, keys, [], phase=TRANSFORM, return_order=True
                )
                a_sorted_ids = None
            a_keys = ctx.mem.adopt(keys_sorted, "keys_sorted")
        group_keys, inverse_sorted = groups_from_sorted(keys_sorted)
        num_groups = int(group_keys.size)
        output = OrderedDict()
        output["group_key"] = group_keys
        with ctx.phase(AGGREGATE):
            ctx.submit(
                KernelStats(
                    name="segment_boundaries",
                    items=n,
                    seq_read_bytes=int(keys_sorted.nbytes),
                    seq_write_bytes=num_groups * 8,
                ),
                phase=AGGREGATE,
            )
        with ctx.phase(MATERIALIZE):
            for spec in aggregates:
                if spec.op == "count":
                    output[spec.output_name] = segmented_aggregate(
                        inverse_sorted, num_groups, None, "count"
                    )
                    _charge_segmented_reduce(
                        ctx, n, 0, num_groups * 8, f"reduce:{spec.output_name}", MATERIALIZE
                    )
                    continue
                column = values[spec.column]
                if self.pattern == "gfur":
                    sorted_col = gather(
                        ctx, column, a_sorted_ids.data, phase=MATERIALIZE, label=spec.column
                    )
                else:
                    _, (sorted_col,) = _frozen_sort_pairs(
                        ctx, keys, [column], key_order, MATERIALIZE, spec.column
                    )
                output[spec.output_name] = segmented_aggregate(
                    inverse_sorted, num_groups, sorted_col, spec.op
                )
                _charge_segmented_reduce(
                    ctx, n, int(sorted_col.nbytes), num_groups * 8,
                    f"reduce:{spec.output_name}", MATERIALIZE,
                )
            ctx.mem.free(a_keys)
            if a_sorted_ids is not None:
                ctx.mem.free(a_sorted_ids)
        return output


@pytest.mark.parametrize("capacity", ["unbounded", "fits", "oom"])
@pytest.mark.parametrize("key_dtype", [np.int32, np.int64], ids=["int32", "int64"])
@pytest.mark.parametrize("pattern", ["gftr", "gfur"])
def test_sort_agg_prices_its_resorts_as_it_performed_them(pattern, key_dtype, capacity):
    """``fits`` leaves the device exactly the frozen run's peak, ``oom``
    one byte less."""
    keys, values = _inputs(3000, seed=7)
    keys = keys.astype(key_dtype)
    frozen = _FrozenSortGroupBy(pattern=pattern)
    peak = frozen.group_by(keys, values, AGGREGATES, ctx=GPUContext(seed=5)).peak_aux_bytes
    frac = {
        "unbounded": None,
        "fits": (peak + 0.5) / A100.global_mem_bytes,
        "oom": (peak - 0.5) / A100.global_mem_bytes,
    }[capacity]
    plan = FaultPlan(seed=3, kernel_fault_rate=0.3, capacity_frac=frac)
    priced = _observe(SortGroupBy(pattern=pattern), keys, values, plan)
    moved = _observe(frozen, keys, values, plan)
    assert priced == moved
    assert (priced[0] == "oom") == (capacity == "oom")
    if capacity != "oom":
        resorts = [k for k in priced[0] if k[0].startswith("sort_pairs:")]
        # gftr: one re-sort per non-count aggregate, one pass per key byte.
        assert len(resorts) == (4 * keys.itemsize if pattern == "gftr" else 0)
