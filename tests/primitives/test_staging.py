"""The host stager and the degradation ladder against a frozen copy of
the two stagers and two ladders they replaced.

Both out-of-core operators and both resilient entry points now run on
one stager (``repro.primitives.staging``) and one ladder loop
(``repro.faults.recovery._ladder``).  Each case runs the library and the
frozen copy on the same inputs and compares every kernel record (name,
phase, stats, seconds) in submission order, every injected fault event,
the output bits, ``phase_seconds`` and the trace counters and spans.

The only difference the frozen copy may show is the declared one: a
group-by that fits in one block now runs once, unpartitioned, as a join
that fits in one chunk always did.  The ladders' staged rung is spelled
``OOC[<inner>]x<n>`` for both operators now (the join wrote
``out-of-core[<inner>]x<n>``); the comparison maps that one label.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import astuple, replace
from typing import Dict

import numpy as np
import pytest

from repro.aggregation import AggSpec, GroupByResult, OutOfCoreGroupBy
from repro.aggregation.base import fold_groups, merge_disjoint_groups
from repro.aggregation.out_of_core import estimate_groupby_footprint
from repro.aggregation.planner import make_groupby_algorithm, resolve_groupby_algorithm
from repro.errors import (
    AggregationConfigError,
    DeviceOutOfMemoryError,
    GracefulDegradationError,
    JoinConfigError,
)
from repro.faults import FaultPlan, Recovery, resilient_group_by, resilient_join
from repro.faults.plan import FaultInjector
from repro.gpusim import A100, GPUContext
from repro.gpusim.device import CPU_SERVER
from repro.gpusim.kernel import KernelStats
from repro.gpusim.timeline import PhaseTimeline
from repro.joins import JoinResult, OutOfCoreJoin
from repro.joins.out_of_core import _concatenate, estimate_join_footprint
from repro.joins.planner import make_algorithm, resolve_join_algorithm
from repro.obs import TraceSession
from repro.obs.session import current_session
from repro.primitives.gather import host_take
from repro.primitives.grouping import bucket_rows, group_identify
from repro.primitives.radix_partition import partition_codes
from repro.primitives.staging import MAX_PIECES, fan_out, staging_budget
from repro.workloads import JoinWorkloadSpec, generate_join_workload
from repro.workloads.groupby_gen import GroupByWorkloadSpec, generate_groupby_workload

# A small simulated device makes capacity fractions bite at test scale.
DEVICE = A100.with_overrides(global_mem_bytes=1 << 20)

#: The fault seeds of the CI fault matrix.
FAULT_SEEDS = (3, 17, 123)

AGGREGATES = [AggSpec("v1", "sum"), AggSpec("v2", "max"), AggSpec("v1", "mean")]


# -- the frozen copy -----------------------------------------------------------
#
# The two stagers and two ladders as they were before they shared one
# stager and one loop, trimmed of docstrings.  Only library primitives
# that the change left alone are imported.


class FrozenOutOfCoreJoin:
    def __init__(self, inner, device_budget_bytes=None, host_device=CPU_SERVER,
                 fault_plan=None, min_chunks=1):
        self.inner = inner
        self.device_budget_bytes = device_budget_bytes
        self.host_device = host_device
        self.fault_plan = None if fault_plan is None else fault_plan.without_capacity()
        self.min_chunks = min_chunks

    def plan_chunks(self, r, s, budget):
        footprint = estimate_join_footprint(r, s)
        if footprint <= budget:
            chunks = 1
        else:
            ratio = footprint / budget
            chunks = 1 << max(1, math.ceil(math.log2(ratio)))
        chunks = max(chunks, self.min_chunks)
        return min(256, 1 << math.ceil(math.log2(max(1, chunks))))

    def join(self, r, s, device=A100, seed=None):
        if self.device_budget_bytes is None:
            budget = device.global_mem_bytes
        else:
            budget = self.device_budget_bytes
        if budget <= 0:
            raise JoinConfigError("device budget must be positive")
        num_chunks = self.plan_chunks(r, s, budget)
        host_ctx = GPUContext(device=self.host_device, seed=seed)
        transfer_ctx = GPUContext(device=device, seed=seed)
        chunk_results = []
        if num_chunks == 1:
            _frozen_transfer(transfer_ctx, r.total_bytes + s.total_bytes, "transfer_in")
            result = self.inner.join(r, s, ctx=self._chunk_context(device, seed, 0))
            _frozen_transfer(transfer_ctx, result.output.total_bytes, "transfer_out")
            chunk_results.append(result)
            output = result.output
            phase_seconds = {}
        else:
            bits = int(math.log2(num_chunks))
            r_chunks = self._host_partition(host_ctx, r, bits)
            s_chunks = self._host_partition(host_ctx, s, bits)
            for index, (r_chunk, s_chunk) in enumerate(zip(r_chunks, s_chunks)):
                if r_chunk.num_rows == 0 or s_chunk.num_rows == 0:
                    continue
                _frozen_transfer(transfer_ctx, r_chunk.total_bytes + s_chunk.total_bytes,
                                 f"transfer_in_{index}")
                result = self.inner.join(
                    r_chunk, s_chunk, ctx=self._chunk_context(device, seed, index))
                _frozen_transfer(transfer_ctx, result.output.total_bytes,
                                 f"transfer_out_{index}")
                chunk_results.append(result)
            output = _concatenate([res.output for res in chunk_results], r, s)
            phase_seconds = {"host-partition": host_ctx.elapsed_seconds}
        phase_seconds["transfer"] = transfer_ctx.elapsed_seconds
        phase_seconds["device"] = sum(res.total_seconds for res in chunk_results)
        return JoinResult.combine(
            chunk_results, output, r, s, algorithm=f"OOC[{self.inner.name}]",
            pattern=self.inner.pattern, device=device,
            phase_seconds=phase_seconds, num_chunks=num_chunks,
        )

    def _chunk_context(self, device, seed, index):
        return GPUContext(device=device, seed=None if seed is None else seed + index,
                          fault_plan=self.fault_plan, fault_site=f"gpu/chunk{index}")

    def _host_partition(self, host_ctx, rel, bits):
        codes = partition_codes(rel.key_values, bits, hashed=True)
        passes = max(1, -(-bits // 8))
        host_ctx.submit(
            KernelStats(name="host_partition", items=rel.num_rows * passes,
                        seq_read_bytes=rel.total_bytes * passes,
                        seq_write_bytes=rel.total_bytes * passes, launches=0),
            phase="host_partition",
        )
        return [rel.take(rows, name=f"{rel.name}#{chunk_id}")
                for chunk_id, rows in enumerate(bucket_rows(codes, 1 << bits))]


class FrozenOutOfCoreGroupBy:
    def __init__(self, inner="PART-AGG", device_budget_bytes=None,
                 host_device=CPU_SERVER, config=None, fault_plan=None, min_blocks=1):
        self.inner = inner
        self.device_budget_bytes = device_budget_bytes
        self.host_device = host_device
        self.config = config
        self.fault_plan = None if fault_plan is None else fault_plan.without_capacity()
        self.min_blocks = min_blocks

    def plan_blocks(self, keys, values, budget):
        footprint = estimate_groupby_footprint(keys, values)
        ratio = footprint / budget
        if math.ceil(ratio) > 256:
            raise DeviceOutOfMemoryError(footprint // 256, 0, budget,
                                         label="out-of-core block (256 blocks max)")
        blocks = 1 if footprint <= budget else 1 << max(1, math.ceil(math.log2(ratio)))
        blocks = max(blocks, self.min_blocks)
        return min(256, 1 << math.ceil(math.log2(blocks)))

    def group_by(self, keys, values, aggregates, device=A100, seed=None):
        keys = np.asarray(keys)
        budget = (self.device_budget_bytes if self.device_budget_bytes is not None
                  else device.global_mem_bytes)
        num_blocks = self.plan_blocks(keys, values, budget)
        bits = max(1, int(math.log2(num_blocks)))
        host_ctx = GPUContext(device=self.host_device, seed=seed)
        transfer_ctx = GPUContext(device=device, seed=seed)
        codes = partition_codes(keys, bits, hashed=True)
        input_bytes = int(keys.nbytes) + sum(int(v.nbytes) for v in values.values())
        passes = max(1, -(-bits // 8))
        host_ctx.submit(
            KernelStats(name="host_partition", items=int(keys.size) * passes,
                        seq_read_bytes=input_bytes * passes,
                        seq_write_bytes=input_bytes * passes, launches=0),
            phase="host_partition",
        )
        strategy = make_groupby_algorithm(self.inner, self.config)
        block_results = []
        for block, rows in enumerate(bucket_rows(codes, 1 << bits)):
            if rows.size == 0:
                continue
            block_keys = host_take(keys, rows)
            block_values = {name: host_take(col, rows) for name, col in values.items()}
            block_bytes = int(block_keys.nbytes) + sum(
                int(v.nbytes) for v in block_values.values())
            _frozen_transfer(transfer_ctx, block_bytes, f"transfer_in_{block}")
            ctx = GPUContext(device=device, seed=None if seed is None else seed + block,
                             fault_plan=self.fault_plan, fault_site=f"gpu/block{block}")
            result = strategy.group_by(block_keys, block_values, list(aggregates), ctx=ctx)
            out_bytes = sum(int(col.nbytes) for col in result.output.values())
            _frozen_transfer(transfer_ctx, out_bytes, f"transfer_out_{block}")
            block_results.append(result)
        if block_results:
            output = merge_disjoint_groups([r.output for r in block_results])
            merge_ctx = GPUContext(device=device)
            out_bytes = sum(int(col.nbytes) for col in output.values())
            merge_ctx.submit(
                KernelStats(name="ooc_merge", items=int(output["group_key"].size),
                            seq_read_bytes=out_bytes, seq_write_bytes=out_bytes),
                phase="merge",
            )
            merge_seconds = merge_ctx.elapsed_seconds
        else:
            output = fold_groups(*group_identify(keys), values, aggregates)
            merge_seconds = 0.0
        return GroupByResult.combine(
            block_results, output, keys, values, algorithm=f"OOC[{self.inner}]",
            pattern=strategy.pattern, device=device,
            phase_seconds={
                "host-partition": host_ctx.elapsed_seconds,
                "transfer": transfer_ctx.elapsed_seconds,
                "merge": merge_seconds,
                "device": sum(res.total_seconds for res in block_results),
            },
            num_blocks=num_blocks,
        )


def _frozen_transfer(ctx, num_bytes, label):
    ctx.submit(KernelStats(name=label, host_transfer_bytes=int(num_bytes), launches=0),
               phase="transfer")


def _frozen_degraded(result, attempts, wasted, algorithm=None):
    return replace(
        result, algorithm=algorithm or result.algorithm,
        phase_seconds={**result.phase_seconds, "oom-wasted": wasted},
        recovery=Recovery(True, attempts, wasted),
    )


def _frozen_note_oom(ctx, detail):
    if ctx.faults is not None:
        ctx.faults.note_oom(detail)
    session = current_session() if ctx.trace is None else ctx.trace
    if session is not None:
        session.count("faults_injected_oom")


def _frozen_count_degradation(extra_passes):
    session = current_session()
    if session is not None:
        session.count("degraded_operators")
        if extra_passes > 0:
            session.count("degraded_extra_passes", float(extra_passes))


def _frozen_span(kind, **args):
    session = current_session()
    if session is None:
        return nullcontext()
    return session.span(f"degraded:{kind}", category="degraded", **args)


def frozen_resilient_join(r, s, algorithm="auto", device=A100, config=None, seed=None,
                          fault_plan=None):
    name = resolve_join_algorithm(algorithm, r, s).algorithm
    attempts, wasted = [], 0.0
    ctx = GPUContext(device=device, seed=seed, fault_plan=fault_plan, fault_site="gpu")
    try:
        result = make_algorithm(name, config).join(r, s, ctx=ctx)
        return replace(result, recovery=Recovery(False, [name]))
    except DeviceOutOfMemoryError:
        attempts.append(name)
        wasted += ctx.elapsed_seconds
        _frozen_note_oom(ctx, f"join:{name}")
        budget = ctx.mem.capacity_bytes
    inner_plan = None if fault_plan is None else fault_plan.without_capacity()
    staged = FrozenOutOfCoreJoin(make_algorithm(name, config), device_budget_bytes=budget,
                                 fault_plan=inner_plan, min_chunks=2)
    with _frozen_span("join", algorithm=name, budget_bytes=int(budget or 0), reason="oom"):
        result = staged.join(r, s, device=device, seed=seed)
    attempts.append(f"out-of-core[{name}]x{result.num_chunks}")
    _frozen_count_degradation(extra_passes=result.num_chunks - 1)
    return _frozen_degraded(result, attempts, wasted)


def frozen_resilient_group_by(keys, values, aggregates, algorithm="auto", device=A100,
                              config=None, seed=None, fault_plan=None):
    keys = np.asarray(keys)
    name = resolve_groupby_algorithm(algorithm, keys, device).algorithm
    attempts, wasted, budget = [], 0.0, None
    ladder = [name] + (["PART-AGG"] if name != "PART-AGG" else [])
    for rung, strategy in enumerate(ladder):
        ctx = GPUContext(device=device, seed=seed, fault_plan=fault_plan, fault_site="gpu")
        try:
            if rung == 0:
                result = make_groupby_algorithm(strategy, config).group_by(
                    keys, values, list(aggregates), ctx=ctx)
            else:
                with _frozen_span("group-by", algorithm=strategy,
                                  budget_bytes=int(budget or 0), reason="oom"):
                    result = make_groupby_algorithm(strategy, config).group_by(
                        keys, values, list(aggregates), ctx=ctx)
                _frozen_count_degradation(extra_passes=1)
            if rung == 0:
                return replace(result, recovery=Recovery(False, [strategy]))
            return _frozen_degraded(result, attempts + [strategy], wasted,
                                    f"degraded[{strategy}]")
        except DeviceOutOfMemoryError:
            attempts.append(strategy)
            wasted += ctx.elapsed_seconds
            _frozen_note_oom(ctx, f"group-by:{strategy}")
            budget = ctx.mem.capacity_bytes
    inner_plan = None if fault_plan is None else fault_plan.without_capacity()
    staged = FrozenOutOfCoreGroupBy(inner="PART-AGG", device_budget_bytes=budget,
                                    config=config, fault_plan=inner_plan, min_blocks=2)
    with _frozen_span("group-by", algorithm="OOC[PART-AGG]",
                      budget_bytes=int(budget or 0), reason="oom"):
        try:
            result = staged.group_by(keys, values, list(aggregates), device=device,
                                     seed=seed)
        except DeviceOutOfMemoryError as err:
            raise GracefulDegradationError(
                f"group-by exceeds the device budget even block-staged: {err}",
                attempts=attempts + ["OOC[PART-AGG]"],
            ) from err
    attempts.append(f"OOC[PART-AGG]x{result.num_blocks}")
    _frozen_count_degradation(extra_passes=result.num_blocks - 1)
    return _frozen_degraded(result, attempts, wasted)


# -- recording -----------------------------------------------------------------


@contextmanager
def recorded(monkeypatch):
    """Every kernel record and fault event of the block, in order, plus
    the counters and spans of a trace session active over it."""
    log: Dict[str, list] = {"kernels": [], "faults": []}
    add, add_many, note = PhaseTimeline.add, PhaseTimeline.add_many, FaultInjector._note

    def _kernel(record):
        return (record.stats.name, record.phase, astuple(record.stats), record.seconds,
                tuple(sorted(record.extra.items())))

    def spy_add(timeline, record):
        add(timeline, record)
        log["kernels"].append(_kernel(record))

    def spy_add_many(timeline, records):
        add_many(timeline, records)
        log["kernels"].extend(_kernel(record) for record in records)

    def spy_note(injector, kind, detail, attempts=1):
        note(injector, kind, detail, attempts)
        log["faults"].append((kind, injector.site, detail, attempts))

    with monkeypatch.context() as patch:
        patch.setattr(PhaseTimeline, "add", spy_add)
        patch.setattr(PhaseTimeline, "add_many", spy_add_many)
        patch.setattr(FaultInjector, "_note", spy_note)
        with TraceSession("staging") as session:
            yield log
    log["counters"] = session.metrics.as_dict(derived=False)
    log["spans"] = [(span.name, span.args.get("budget_bytes"), span.args.get("reason"))
                    for _, span in session.spans(category="degraded")]


def _outcome(call):
    """The result of *call*, or the type and attempts of what it raised."""
    try:
        return call()
    except (DeviceOutOfMemoryError, GracefulDegradationError) as err:
        return (type(err), getattr(err, "attempts", None))


def _attempts(result):
    if result.recovery is None:
        return None
    return [label.replace("out-of-core[", "OOC[") for label in result.recovery.attempts]


def assert_same_run(monkeypatch, new_call, frozen_call):
    """Both calls leave the same records and return the same result."""
    with recorded(monkeypatch) as new_log:
        new = _outcome(new_call)
    with recorded(monkeypatch) as frozen_log:
        frozen = _outcome(frozen_call)
    assert new_log["kernels"] == frozen_log["kernels"]
    assert new_log["faults"] == frozen_log["faults"]
    assert new_log["counters"] == frozen_log["counters"]
    assert new_log["spans"] == frozen_log["spans"]
    if isinstance(frozen, tuple):
        assert new == frozen
        return new
    assert type(new) is type(frozen)
    assert new.algorithm == frozen.algorithm
    assert list(new.phase_seconds.items()) == list(frozen.phase_seconds.items())
    assert new.total_seconds == frozen.total_seconds
    assert new.kernel_count == frozen.kernel_count
    assert new.peak_aux_bytes == frozen.peak_aux_bytes
    assert _attempts(new) == _attempts(frozen)
    if new.recovery is not None:
        assert new.recovery.wasted_seconds == frozen.recovery.wasted_seconds
    if isinstance(new, JoinResult):
        assert new.num_chunks == frozen.num_chunks
        new_out, frozen_out = new.output.columns(), frozen.output.columns()
    else:
        assert new.num_blocks == frozen.num_blocks
        new_out, frozen_out = new.output, frozen.output
    assert list(new_out) == list(frozen_out)
    for column, array in frozen_out.items():
        assert new_out[column].dtype == array.dtype, column
        assert new_out[column].tobytes() == array.tobytes(), column
    return new


# -- inputs --------------------------------------------------------------------


@pytest.fixture(scope="module")
def relations():
    return generate_join_workload(
        JoinWorkloadSpec(r_rows=2048, s_rows=4096, r_payload_columns=2,
                         s_payload_columns=2, seed=5)
    )


@pytest.fixture(scope="module")
def groupby_workload():
    spec = GroupByWorkloadSpec(rows=1 << 14, groups=8192, value_columns=2, seed=5)
    return generate_groupby_workload(spec)


#: No plan, then kernel faults alone and under capacity pressure (which
#: the stagers strip) at each fault seed.
PLANS = {"no-faults": None}
for _seed in FAULT_SEEDS:
    PLANS[f"kernel-{_seed}"] = FaultPlan(seed=_seed, kernel_fault_rate=0.3)
    PLANS[f"kernel+capacity-{_seed}"] = FaultPlan(
        seed=_seed, kernel_fault_rate=0.3, capacity_frac=0.05)


# -- the stagers ---------------------------------------------------------------


@pytest.mark.parametrize("plan_name", sorted(PLANS))
@pytest.mark.parametrize("divisor, min_chunks, chunks", [
    (None, 1, 1),
    (None, 2, 2),   # fits, but the ladder's floor stages it anyway
    (2, 1, 2),
    (8, 1, 8),
    (1000, 1, 256),  # capped
])
def test_join_stager_matches_frozen(monkeypatch, relations, divisor, min_chunks, chunks,
                                    plan_name):
    r, s = relations
    budget = None if divisor is None else estimate_join_footprint(r, s) // divisor
    plan = PLANS[plan_name]
    # PHJ-UM's bucket-chain partitioner draws from each chunk's seed.
    inner = make_algorithm("PHJ-UM")
    result = assert_same_run(
        monkeypatch,
        lambda: OutOfCoreJoin(inner, device_budget_bytes=budget, fault_plan=plan,
                              min_chunks=min_chunks).join(r, s, device=A100, seed=7),
        lambda: FrozenOutOfCoreJoin(inner, device_budget_bytes=budget, fault_plan=plan,
                                    min_chunks=min_chunks).join(r, s, device=A100, seed=7),
    )
    assert result.num_chunks == chunks


@pytest.mark.parametrize("plan_name", sorted(PLANS))
@pytest.mark.parametrize("divisor, min_blocks, blocks", [
    (1, 2, 2),      # fits, but the ladder's floor stages it anyway
    (2, 1, 2),
    (8, 1, 8),
    (256, 1, 256),
])
def test_group_by_stager_matches_frozen(monkeypatch, groupby_workload, divisor,
                                        min_blocks, blocks, plan_name):
    keys, values = groupby_workload
    budget = estimate_groupby_footprint(keys, values) // divisor
    plan = PLANS[plan_name]
    result = assert_same_run(
        monkeypatch,
        lambda: OutOfCoreGroupBy(device_budget_bytes=budget, fault_plan=plan,
                                 min_blocks=min_blocks).group_by(
            keys, dict(values), AGGREGATES, device=A100, seed=7),
        lambda: FrozenOutOfCoreGroupBy(device_budget_bytes=budget, fault_plan=plan,
                                       min_blocks=min_blocks).group_by(
            keys, dict(values), AGGREGATES, device=A100, seed=7),
    )
    assert result.num_blocks == blocks


def test_group_by_over_256_blocks_raises_as_frozen(monkeypatch, groupby_workload):
    keys, values = groupby_workload
    budget = estimate_groupby_footprint(keys, values) // 300
    raised = assert_same_run(
        monkeypatch,
        lambda: OutOfCoreGroupBy(device_budget_bytes=budget).group_by(
            keys, dict(values), AGGREGATES, seed=7),
        lambda: FrozenOutOfCoreGroupBy(device_budget_bytes=budget).group_by(
            keys, dict(values), AGGREGATES, seed=7),
    )
    assert raised[0] is DeviceOutOfMemoryError


@pytest.mark.parametrize("plan_name", ["no-faults", "kernel+capacity-3"])
def test_one_block_group_by_runs_once_unpartitioned(monkeypatch, groupby_workload,
                                                    plan_name):
    """The declared change: one block is one run of the inner strategy
    on the whole input between two transfers, as one chunk is."""
    keys, values = groupby_workload
    plan = PLANS[plan_name]
    with recorded(monkeypatch) as log:
        staged = OutOfCoreGroupBy(fault_plan=plan).group_by(
            keys, dict(values), AGGREGATES, device=A100, seed=7)
    with recorded(monkeypatch) as frozen_log:
        frozen = FrozenOutOfCoreGroupBy(fault_plan=plan).group_by(
            keys, dict(values), AGGREGATES, device=A100, seed=7)
    with recorded(monkeypatch) as plain_log:
        plain = make_groupby_algorithm("PART-AGG").group_by(
            keys, dict(values), AGGREGATES,
            ctx=GPUContext(device=A100, seed=7, fault_plan=None if plan is None
                           else plan.without_capacity(), fault_site="gpu/block0"))
    assert staged.num_blocks == frozen.num_blocks == 1
    names = [kernel[0] for kernel in log["kernels"]]
    assert names[0] == "transfer_in" and names[-1] == "transfer_out"
    assert "host_partition" not in names and "ooc_merge" not in names
    assert log["kernels"][1:-1] == plain_log["kernels"]
    assert log["faults"] == plain_log["faults"]
    assert list(staged.phase_seconds) == ["transfer", "device"]
    assert staged.phase_seconds["device"] == plain.total_seconds
    # The frozen copy ran the inner strategy on two half-blocks instead.
    assert [k[0] for k in frozen_log["kernels"]].count("host_partition") == 1
    for column, array in frozen.output.items():
        assert staged.output[column].tobytes() == array.tobytes(), column


@pytest.mark.parametrize("budget", [0, -5])
def test_non_positive_budgets_raise_config_errors(relations, groupby_workload, budget):
    keys, values = groupby_workload
    with pytest.raises(AggregationConfigError):
        OutOfCoreGroupBy(device_budget_bytes=budget).group_by(keys, dict(values), AGGREGATES)
    r, s = relations
    with pytest.raises(JoinConfigError):
        OutOfCoreJoin(make_algorithm("PHJ-OM"), device_budget_bytes=budget).join(r, s)


def test_fan_out_rules():
    assert fan_out(100, 100) == 1
    assert fan_out(101, 100) == 2
    assert fan_out(100, 100, min_pieces=3) == 4
    assert fan_out(10 ** 9, 1) == MAX_PIECES == 256
    assert staging_budget(None, DEVICE, JoinConfigError) == DEVICE.global_mem_bytes


# -- the ladders ---------------------------------------------------------------


#: Capacity fractions for DEVICE: none, loose (no OOM), mild (the
#: group-by's PART-AGG rung fits), harsh (both operators stage) and
#: exhausted (the join stages 256 chunks, the group-by gives up).
CAPACITIES = {"none": None, "loose": 0.5, "mild": 0.1, "harsh": 0.02, "exhausted": 1e-4}


#: Without kernel faults the fault seed draws nothing; with them, each
#: seed of the fault matrix.
LADDER_FAULTS = [(3, 0.0)] + [(seed, 0.3) for seed in FAULT_SEEDS]


@pytest.mark.parametrize("capacity", sorted(CAPACITIES))
@pytest.mark.parametrize("fault_seed, kernel_rate", LADDER_FAULTS)
def test_join_ladder_matches_frozen(monkeypatch, relations, capacity, fault_seed,
                                    kernel_rate):
    r, s = relations
    plan = FaultPlan(seed=fault_seed, kernel_fault_rate=kernel_rate,
                     capacity_frac=CAPACITIES[capacity])
    assert_same_run(
        monkeypatch,
        lambda: resilient_join(r, s, algorithm="PHJ-OM", device=DEVICE, seed=0,
                               fault_plan=plan),
        lambda: frozen_resilient_join(r, s, algorithm="PHJ-OM", device=DEVICE, seed=0,
                                      fault_plan=plan),
    )


@pytest.mark.parametrize("capacity", sorted(CAPACITIES))
@pytest.mark.parametrize("fault_seed, kernel_rate", LADDER_FAULTS)
# SORT-AGG's OOM wastes simulated seconds before PART-AGG's does, so the
# wasted seconds of two rungs add up.
@pytest.mark.parametrize("algorithm", ["HASH-AGG", "SORT-AGG", "PART-AGG"])
def test_group_by_ladder_matches_frozen(monkeypatch, groupby_workload, capacity,
                                        fault_seed, kernel_rate, algorithm):
    keys, values = groupby_workload
    plan = FaultPlan(seed=fault_seed, kernel_fault_rate=kernel_rate,
                     capacity_frac=CAPACITIES[capacity])
    assert_same_run(
        monkeypatch,
        lambda: resilient_group_by(keys, dict(values), AGGREGATES, algorithm=algorithm,
                                   device=DEVICE, seed=0, fault_plan=plan),
        lambda: frozen_resilient_group_by(keys, dict(values), AGGREGATES,
                                          algorithm=algorithm, device=DEVICE, seed=0,
                                          fault_plan=plan),
    )


@pytest.mark.parametrize("kind", ["join", "group-by"])
def test_ladder_stages_at_least_twice_when_the_estimate_fits(
        monkeypatch, relations, groupby_workload, kind):
    """An observed OOM re-plans with more passes even where the
    footprint estimate says the input fits: the ladder's floor of 2."""
    import repro.aggregation.out_of_core as group_by_stager
    import repro.joins.out_of_core as join_stager

    frozen = sys.modules[__name__]
    for module, name in [(join_stager, "estimate_join_footprint"),
                         (group_by_stager, "estimate_groupby_footprint"),
                         (frozen, "estimate_join_footprint"),
                         (frozen, "estimate_groupby_footprint")]:
        monkeypatch.setattr(module, name, lambda *inputs: 1)
    plan = FaultPlan(seed=3, kernel_fault_rate=0.3, capacity_frac=CAPACITIES["harsh"])
    if kind == "join":
        r, s = relations
        result = assert_same_run(
            monkeypatch,
            lambda: resilient_join(r, s, algorithm="PHJ-OM", device=DEVICE, seed=0,
                                   fault_plan=plan),
            lambda: frozen_resilient_join(r, s, algorithm="PHJ-OM", device=DEVICE,
                                          seed=0, fault_plan=plan),
        )
        assert result.num_chunks == 2
    else:
        keys, values = groupby_workload
        result = assert_same_run(
            monkeypatch,
            lambda: resilient_group_by(keys, dict(values), AGGREGATES,
                                       algorithm="HASH-AGG", device=DEVICE, seed=0,
                                       fault_plan=plan),
            lambda: frozen_resilient_group_by(keys, dict(values), AGGREGATES,
                                              algorithm="HASH-AGG", device=DEVICE,
                                              seed=0, fault_plan=plan),
        )
        assert result.num_blocks == 2


def test_the_ladder_cases_reach_every_rung(relations, groupby_workload):
    """The capacities above land where their names say."""
    r, s = relations
    keys, values = groupby_workload

    def join_attempts(frac):
        plan = FaultPlan(seed=3, capacity_frac=frac)
        return resilient_join(r, s, algorithm="PHJ-OM", device=DEVICE, seed=0,
                              fault_plan=plan).recovery.attempts

    def group_by_attempts(frac):
        plan = FaultPlan(seed=3, capacity_frac=frac)
        return resilient_group_by(keys, dict(values), AGGREGATES, algorithm="HASH-AGG",
                                  device=DEVICE, seed=0, fault_plan=plan).recovery.attempts

    assert join_attempts(CAPACITIES["loose"]) == ["PHJ-OM"]
    assert join_attempts(CAPACITIES["harsh"])[-1].startswith("OOC[PHJ-OM]x")
    assert join_attempts(CAPACITIES["exhausted"])[-1] == "OOC[PHJ-OM]x256"
    assert group_by_attempts(CAPACITIES["loose"]) == ["HASH-AGG"]
    assert group_by_attempts(CAPACITIES["mild"]) == ["HASH-AGG", "PART-AGG"]
    assert group_by_attempts(CAPACITIES["harsh"])[-1].startswith("OOC[PART-AGG]x")
    with pytest.raises(GracefulDegradationError) as info:
        group_by_attempts(CAPACITIES["exhausted"])
    assert info.value.attempts == ["HASH-AGG", "PART-AGG", "OOC[PART-AGG]"]
