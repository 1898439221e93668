"""Every group-by strategy prices exactly as its own ``_execute`` did.

The strategies used to compute their own outputs: HASH-AGG and PART-AGG
folded per aggregate, and SORT-AGG host-sorted the keys and moved every
value column before folding it.  Now ``GroupByAlgorithm.group_by``
identifies the groups once, a strategy only charges kernels and
reserves bytes, and one fold of record computes the values.  The
``_Frozen*`` classes below are verbatim copies of the old ``_execute``
bodies (with the old per-aggregate fold, :mod:`tests.aggregation.frozen`),
kept here so the pricing cannot drift from them: kernel names, every
``KernelStats`` field, phases, seconds and submit order, the span tree,
the trace counters (except the host-side buffer pool's), peak and
phase-peak bytes, outputs (values, dtype, order), and out-of-memory
failures must all be identical, for HASH-AGG (privatized and global
tables), SORT-AGG and PART-AGG under both patterns, with int32, int64
and float64 keys, plain and under a :class:`~repro.faults.FaultPlan`.
"""

import importlib
from collections import OrderedDict

import numpy as np
import pytest

from repro.aggregation import AggSpec, GroupByConfig, make_groupby_algorithm
from repro.aggregation.base import AGGREGATE, MATERIALIZE, TRANSFORM, fold_groups
from repro.aggregation.hash_groupby import (
    ROWS_PER_BLOCK,
    SLOT_BYTES,
    atomic_contention,
)
from repro.aggregation.partitioned_groupby import derive_groupby_bits
from repro.errors import DeviceOutOfMemoryError
from repro.faults import FaultPlan
from repro.gpusim import A100, GPUContext, KernelStats
from repro.gpusim.memory import DeviceMemory
from repro.obs.session import KERNEL, TraceSession
from repro.primitives.gather import gather, gather_stats_only
from repro.primitives.grouping import group_identify, groups_from_sorted
from repro.primitives.hash_table import table_capacity
from repro.primitives.hashing import hash_to_slots
from repro.primitives.radix_partition import charge_radix_partition, radix_partition
from repro.primitives.sector_analysis import analyze_indices
from repro.primitives.sort_pairs import argsort_cost_only, sort_pairs
from repro.relational.types import id_dtype

from .frozen import (
    FrozenGroupBy,
    charge_partition_fold,
    charge_segmented_reduce,
    frozen_segmented_aggregate,
)

segmented_aggregate = frozen_segmented_aggregate


class _FrozenHashGroupBy(FrozenGroupBy):
    names = {"gfur": "HASH-AGG"}

    def _execute(self, ctx, keys, values, aggregates):
        group_keys, inverse = group_identify(keys)
        num_groups = int(group_keys.size)
        capacity = table_capacity(num_groups, self.config.table_load_factor)
        table_bytes = capacity * SLOT_BYTES
        privatized = table_bytes <= ctx.device.shared_mem_bytes
        num_blocks = max(1, keys.size // ROWS_PER_BLOCK)

        with ctx.phase(AGGREGATE):
            # Accounting-only scratch: the table's contents are never read
            # host-side, so skip zero-initialization.
            table = ctx.mem.alloc(table_bytes, np.uint8, "agg_table", zeroed=False)
            passes = [("hash_agg_keys", int(keys.nbytes))]
            passes += [
                (
                    f"hash_agg_fold:{spec.output_name}",
                    int(values[spec.column].nbytes) if spec.op != "count" else 0,
                )
                for spec in aggregates
            ]
            if privatized:
                # Shared-memory private tables: sequential streams plus a
                # final merge of one private table per block.
                merge_bytes = num_blocks * table_bytes
                for name, col_bytes in passes:
                    ctx.submit(
                        KernelStats(
                            name=name,
                            items=int(keys.size),
                            seq_read_bytes=col_bytes,
                            seq_write_bytes=merge_bytes // max(1, len(passes)),
                            atomic_ops=num_blocks * capacity,
                        ),
                        phase=AGGREGATE,
                    )
            else:
                slots = hash_to_slots(keys, capacity)
                slot_stats = analyze_indices(slots, SLOT_BYTES)
                conflict = atomic_contention(inverse, num_groups)
                ctx.count("hash_table_probe_slots", int(slots.size))
                for name, col_bytes in passes:
                    ctx.submit(
                        KernelStats(
                            name=name,
                            items=int(keys.size),
                            seq_read_bytes=col_bytes,
                            random_requests=slot_stats.requests,
                            random_sector_touches=slot_stats.sector_touches,
                            random_cold_sectors=slot_stats.cold_sectors,
                            locality_footprint_bytes=slot_stats.mean_warp_span_bytes,
                            atomic_ops=int(keys.size),
                            atomic_conflict_factor=conflict,
                        ),
                        phase=AGGREGATE,
                    )

        output = OrderedDict()
        output["group_key"] = group_keys
        with ctx.phase(MATERIALIZE):
            for spec in aggregates:
                data = values.get(spec.column) if spec.op != "count" else None
                output[spec.output_name] = segmented_aggregate(
                    inverse, num_groups, data, spec.op
                )
            # Compact the table into the dense output columns.
            out_bytes = sum(int(a.nbytes) for a in output.values())
            ctx.submit(
                KernelStats(
                    name="compact_groups",
                    items=num_groups,
                    seq_read_bytes=capacity * SLOT_BYTES,
                    seq_write_bytes=out_bytes,
                ),
                phase=MATERIALIZE,
            )
            ctx.mem.free(table)
        return output


class _FrozenSortGroupBy(FrozenGroupBy):
    names = {"gftr": "SORT-AGG", "gfur": "SORT-AGG/gfur"}

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
            # Flag group boundaries: one sequential pass over sorted keys.
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
                    charge_segmented_reduce(
                        ctx, n, 0, num_groups * 8, f"reduce:{spec.output_name}", MATERIALIZE
                    )
                    continue
                column = values[spec.column]
                if self.pattern == "gfur":
                    # Unclustered gather through the permuted IDs.
                    sorted_col = gather(
                        ctx,
                        column,
                        a_sorted_ids.data,
                        phase=MATERIALIZE,
                        label=spec.column,
                    )
                else:
                    argsort_cost_only(
                        ctx, n, keys.itemsize, column.itemsize,
                        phase=MATERIALIZE, label=spec.column,
                    )
                    sorted_col = column[key_order]
                output[spec.output_name] = segmented_aggregate(
                    inverse_sorted, num_groups, sorted_col, spec.op
                )
                charge_segmented_reduce(
                    ctx,
                    n,
                    int(sorted_col.nbytes),
                    num_groups * 8,
                    f"reduce:{spec.output_name}",
                    MATERIALIZE,
                )
            ctx.mem.free(a_keys)
            if a_sorted_ids is not None:
                ctx.mem.free(a_sorted_ids)
        return output


class _FrozenPartitionedGroupBy(FrozenGroupBy):
    names = {"gftr": "PART-AGG", "gfur": "PART-AGG/gfur"}

    def _execute(self, ctx, keys, values, aggregates):
        n = int(keys.size)
        group_keys, inverse = group_identify(keys)
        num_groups = int(group_keys.size)
        # Target groups per partition: a shared-memory hash table of
        # 16-byte accumulator slots, half-loaded.
        target = self.config.tuples_per_partition or max(
            8, ctx.device.shared_mem_bytes // 32
        )
        bits = derive_groupby_bits(num_groups, target, self.config.partition_bits)

        id_map = None
        with ctx.phase(TRANSFORM):
            if self.pattern == "gfur":
                ids = np.arange(n, dtype=id_dtype(n))
                ctx.submit(
                    KernelStats(name="init_ids", items=n, seq_write_bytes=int(ids.nbytes)),
                    phase=TRANSFORM,
                )
                part = radix_partition(
                    ctx, keys, [ids], bits, phase=TRANSFORM,
                    hashed=self.config.hashed_partitioning, label="keys+ids",
                )
                id_map = ctx.mem.adopt(part.payloads[0], "ids_partitioned")
            else:
                charge_radix_partition(
                    ctx, n, int(keys.nbytes), 0, bits, phase=TRANSFORM, label="keys"
                )
            a_keys = ctx.mem.reserve(int(keys.nbytes), "keys_partitioned")

        output = OrderedDict()
        output["group_key"] = group_keys

        with ctx.phase(AGGREGATE):
            charge_partition_fold(
                ctx, n, int(keys.nbytes), num_groups * 8, "partition_groups", AGGREGATE
            )

        with ctx.phase(MATERIALIZE):
            for spec in aggregates:
                if spec.op == "count":
                    output[spec.output_name] = segmented_aggregate(
                        inverse, num_groups, None, "count"
                    )
                    charge_partition_fold(
                        ctx, n, 0, num_groups * 8, f"fold:{spec.output_name}", MATERIALIZE
                    )
                    continue
                column = values[spec.column]
                if self.pattern == "gfur":
                    gather_stats_only(
                        ctx, id_map.data, column.dtype.itemsize, int(column.nbytes),
                        phase=MATERIALIZE, label=spec.column,
                    )
                else:
                    charge_radix_partition(
                        ctx, n, int(keys.nbytes), int(column.nbytes), bits,
                        phase=MATERIALIZE, label=spec.column, boundaries=False,
                    )
                output[spec.output_name] = segmented_aggregate(
                    inverse, num_groups, column, spec.op
                )
                charge_partition_fold(
                    ctx,
                    n,
                    int(column.nbytes),
                    num_groups * 8,
                    f"fold:{spec.output_name}",
                    MATERIALIZE,
                )
            a_keys.free()
            if id_map is not None:
                ctx.mem.free(id_map)
        return output


#: strategy name -> its frozen copy and pattern.
FROZEN = {
    "HASH-AGG": (_FrozenHashGroupBy, "gfur"),
    "SORT-AGG": (_FrozenSortGroupBy, "gftr"),
    "SORT-AGG/gfur": (_FrozenSortGroupBy, "gfur"),
    "PART-AGG": (_FrozenPartitionedGroupBy, "gftr"),
    "PART-AGG/gfur": (_FrozenPartitionedGroupBy, "gfur"),
}


def _pair(name, config=None):
    """The live strategy and its frozen copy."""
    frozen, pattern = FROZEN[name]
    return make_groupby_algorithm(name, config), frozen(config, pattern)


#: Every op over int64, float32, bool and uint16 columns, two int64
#: columns sharing a gather item size, sum and mean of one column, an
#: exact-sum column past 2**53 (the limb path), two count columns and a
#: repeated aggregate.
AGGREGATES = [
    AggSpec("v", "sum"),
    AggSpec("v", "count"),
    AggSpec("w", "min"),
    AggSpec("v", "max"),
    AggSpec("w", "mean"),
    AggSpec("v", "mean"),
    AggSpec("x", "sum"),
    AggSpec("b", "max"),
    AggSpec("b", "sum"),
    AggSpec("w", "count"),
    AggSpec("u", "min"),
    AggSpec("w", "sum"),
    AggSpec("v", "sum"),
]

#: case -> (rows, key span, config); "wide" spills HASH-AGG's table past
#: shared memory, "bits9" forces a two-pass partitioning.
CASES = {
    "narrow": (3000, 3500, {}),
    "wide": (20000, 1 << 20, {}),
    "bits9": (3000, 3500, {"partition_bits": 9}),
}


def _inputs(rows, span, key_dtype, seed):
    rng = np.random.default_rng(seed)
    keys = rng.integers(-500, span - 500, rows)
    if np.dtype(key_dtype).kind == "f":
        keys = keys + 0.25  # never a zero: both sorts agree on every key bit
    values = {
        "v": rng.integers(-(1 << 20), 1 << 20, rows).astype(np.int64),
        "w": rng.standard_normal(rows).astype(np.float32),
        "x": rng.integers(-(1 << 50), 1 << 50, rows).astype(np.int64),
        "b": rng.integers(0, 2, rows).astype(bool),
        "u": rng.integers(0, 1 << 16, rows).astype(np.uint16),
    }
    return keys.astype(key_dtype), values


def _observe(algorithm, keys, values, aggregates=AGGREGATES, fault_plan=None):
    """Everything the simulator can see of one group-by, or its OOM failure."""
    with TraceSession() as session:
        ctx = GPUContext(seed=5, fault_plan=fault_plan)
        try:
            result = algorithm.group_by(keys, values, aggregates, ctx=ctx)
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
    output = [(name, col.dtype.str, col.tobytes()) for name, col in result.output.items()]
    return (
        events,
        kernels,
        counters,
        result.algorithm,
        result.pattern,
        result.peak_aux_bytes,
        ctx.mem.phase_peaks,
        result.phase_seconds,
        result.kernel_count,
        (result.rows, result.groups, result.input_bytes),
        output,
    )


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize(
    "key_dtype", [np.int32, np.int64, np.float64], ids=["int32", "int64", "float64"]
)
@pytest.mark.parametrize("name", sorted(FROZEN))
def test_pricing_equals_the_frozen_execute(name, key_dtype, case):
    rows, span, options = CASES[case]
    keys, values = _inputs(rows, span, key_dtype, seed=rows + span)
    live, frozen = _pair(name, GroupByConfig(**options))
    priced = _observe(live, keys, values)
    assert priced == _observe(frozen, keys, values)
    if name == "HASH-AGG":
        assert ("hash_table_probe_slots" in priced[2]) == (case == "wide")


@pytest.mark.parametrize("aggregates", [[], [AggSpec("v", "count")]], ids=["none", "count"])
@pytest.mark.parametrize("name", sorted(FROZEN))
def test_pricing_without_value_columns(name, aggregates):
    keys, values = _inputs(3000, 3500, np.int64, seed=2)
    live, frozen = _pair(name)
    assert _observe(live, keys, values, aggregates) == _observe(
        frozen, keys, values, aggregates
    )


def _memory_levels(algorithm, keys, values, monkeypatch):
    """Every level of device memory in use one plain run reaches."""
    levels = set()
    real = DeviceMemory._note_usage

    def note(memory):
        levels.add(memory.current_bytes)
        real(memory)

    with monkeypatch.context() as patch:
        patch.setattr(DeviceMemory, "_note_usage", note)
        algorithm.group_by(keys, values, AGGREGATES, ctx=GPUContext(seed=5))
    return sorted(levels)


@pytest.mark.parametrize("key_dtype", [np.int32, np.int64], ids=["int32", "int64"])
@pytest.mark.parametrize("name", sorted(FROZEN))
def test_pricing_equals_the_frozen_execute_under_faults(name, key_dtype, monkeypatch):
    """Same kernel retries (the injector keys on submit order) and OOMs,
    on an unbounded device and on one sized exactly at, and one byte
    under, each level of memory in use the frozen run reaches."""
    keys, values = _inputs(3000, 3500, key_dtype, seed=11)
    live, frozen = _pair(name)
    levels = _memory_levels(frozen, keys, values, monkeypatch)
    fracs = [None] + [
        (level + slack) / A100.global_mem_bytes for level in levels for slack in (0.5, -0.5)
    ]
    runs = []
    for frac in fracs:
        plan = FaultPlan(seed=3, kernel_fault_rate=0.3, capacity_frac=frac)
        priced = _observe(live, keys, values, fault_plan=plan)
        assert priced == _observe(frozen, keys, values, fault_plan=plan), frac
        runs.append(priced)
    assert any(extra for *_, extra in runs[0][1])  # some kernel retried
    assert runs[-2][0] != "oom" and runs[-1][0] == "oom"  # the peak fits, one byte less not


#: One column per accepted dtype, at its extremes where a fold can reach them.
def _fold_columns(rows, rng):
    columns = {}
    for dtype in (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32):
        info = np.iinfo(dtype)
        columns[np.dtype(dtype).name] = rng.integers(
            info.min, info.max, rows, endpoint=True, dtype=dtype
        )
    columns["uint64"] = rng.integers(0, 1 << 50, rows).astype(np.uint64)
    columns["bool"] = rng.integers(0, 2, rows).astype(bool)
    for dtype in (np.float16, np.float32, np.float64):
        column = (rng.standard_normal(rows) * 1e3).astype(dtype)
        column[rng.integers(0, rows, 8)] = np.array(
            [np.nan, np.inf, -np.inf, -0.0, 0.0, np.nan, 1.0, -1.0], dtype=dtype
        )
        columns[np.dtype(dtype).name] = column
    return columns


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("groups", [1, 7, 400])
def test_fold_of_record_equals_the_frozen_per_op_fold(groups):
    """One pass per column returns what one fold per aggregate did."""
    rng = np.random.default_rng(groups)
    rows = 2000
    values = _fold_columns(rows, rng)
    # int64 extremes overflow a group's sum; keep them to min/max/count.
    summable = [name for name in values if name != "int64"]
    aggregates = [AggSpec(name, op) for name in summable for op in ("sum", "mean")]
    aggregates += [AggSpec(name, op) for name in values for op in ("min", "max", "count")]
    rng.shuffle(aggregates)
    keys = rng.integers(0, groups, rows)
    group_keys, inverse = group_identify(keys)
    output = fold_groups(group_keys, inverse, values, aggregates)
    assert list(output) == ["group_key"] + [spec.output_name for spec in aggregates]
    for spec in aggregates:
        data = values[spec.column] if spec.op != "count" else None
        expected = frozen_segmented_aggregate(inverse, group_keys.size, data, spec.op)
        actual = output[spec.output_name]
        assert (actual.dtype, actual.tobytes()) == (expected.dtype, expected.tobytes()), spec
    # Callers own their output: no two columns share memory.
    columns = list(output.values())
    for i, a in enumerate(columns):
        assert not any(np.shares_memory(a, b) for b in columns[i + 1:])


@pytest.mark.parametrize("name", ["SORT-AGG/gfur", "PART-AGG/gfur"])
def test_gfur_analyses_each_map_once_per_item_size(name, monkeypatch):
    """Four non-count aggregates over two int64 columns: one map, one
    item size, one sector analysis (re-submitted under each name)."""
    calls = []
    gather_module = importlib.import_module("repro.primitives.gather")
    real = gather_module.analyze_indices

    def spy(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(gather_module, "analyze_indices", spy)
    rng = np.random.default_rng(4)
    rows = 1 << 16
    keys = rng.integers(0, 1 << 12, rows).astype(np.int32)
    values = {c: rng.integers(0, 1000, rows).astype(np.int64) for c in ("p", "q")}
    aggregates = [AggSpec("p", "sum"), AggSpec("q", "max"), AggSpec("p", "min"),
                  AggSpec("q", "mean"), AggSpec("p", "count")]
    result = make_groupby_algorithm(name).group_by(keys, values, aggregates, seed=0)
    assert calls == [8]
    assert result.kernel_count > 0
