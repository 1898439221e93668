"""Fault matrix: fixed seeds x every injection mechanism vs the oracle.

The framework's acceptance bar (run by CI as its own matrix job): for
any fixed fault seed with every rate nonzero, join, group-by, executor
and cluster results must be bit-identical to the fault-free run —
joins up to row order when degradation re-chunks them, group-bys and
query outputs exactly.
"""

import numpy as np
import pytest

from repro.aggregation import AggSpec
from repro.cluster import sharded_group_by, sharded_join
from repro.faults import FaultPlan, resilient_group_by, resilient_join
from repro.gpusim import A100
from repro.query import Aggregate, Join, Scan, execute
from repro.workloads import JoinWorkloadSpec, generate_join_workload
from repro.workloads.groupby_gen import GroupByWorkloadSpec, generate_groupby_workload

FAULT_SEEDS = (3, 17, 123)
DEVICE = A100.with_overrides(global_mem_bytes=1 << 20)


def harsh_plan(seed: int) -> FaultPlan:
    """Every single-device and cluster mechanism armed at once."""
    return FaultPlan(
        seed=seed,
        kernel_fault_rate=0.2,
        capacity_frac=0.05,
        link_failure_rate=0.3,
        straggler_rate=0.3,
        device_failure_rate=0.2,
    )


@pytest.fixture(scope="module")
def relations():
    return generate_join_workload(
        JoinWorkloadSpec(r_rows=4096, s_rows=8192, r_payload_columns=2,
                         s_payload_columns=2, seed=0)
    )


@pytest.fixture(scope="module")
def groupby_workload():
    spec = GroupByWorkloadSpec(rows=1 << 14, groups=2048, value_columns=2, seed=0)
    keys, values = generate_groupby_workload(spec)
    return keys, values, [AggSpec("v1", "sum"), AggSpec("v2", "max")]


@pytest.mark.parametrize("fault_seed", FAULT_SEEDS)
def test_join_matches_fault_free_oracle(relations, fault_seed):
    r, s = relations
    oracle = resilient_join(r, s, algorithm="PHJ-OM", device=DEVICE, seed=0)
    res = resilient_join(r, s, algorithm="PHJ-OM", device=DEVICE, seed=0,
                         fault_plan=harsh_plan(fault_seed))
    assert res.recovery.degraded  # capacity_frac=0.05 forces the OOC re-plan
    assert res.output.equals_unordered(oracle.output)


@pytest.mark.parametrize("fault_seed", FAULT_SEEDS)
def test_group_by_matches_fault_free_oracle(groupby_workload, fault_seed):
    keys, values, aggs = groupby_workload
    oracle = resilient_group_by(keys, dict(values), aggs,
                                algorithm="HASH-AGG", device=DEVICE, seed=0)
    res = resilient_group_by(keys, dict(values), aggs,
                             algorithm="HASH-AGG", device=DEVICE, seed=0,
                             fault_plan=harsh_plan(fault_seed))
    assert set(res.output) == set(oracle.output)
    for column in oracle.output:
        np.testing.assert_array_equal(res.output[column],
                                      oracle.output[column])


@pytest.mark.parametrize("fault_seed", FAULT_SEEDS)
def test_executor_query_matches_fault_free_oracle(relations, fault_seed):
    r, s = relations
    plan = Aggregate(Join(Scan(r), Scan(s)), "r1", (AggSpec("s1", "sum"),))
    oracle = execute(plan, device=DEVICE, seed=0)
    res = execute(plan, device=DEVICE, seed=0,
                  fault_plan=harsh_plan(fault_seed))
    assert list(res.output) == list(oracle.output)
    for column, array in oracle.output.items():
        np.testing.assert_array_equal(res.output[column], array), column


@pytest.mark.parametrize("fault_seed", FAULT_SEEDS)
def test_sharded_join_matches_fault_free_oracle(relations, fault_seed):
    r, s = relations
    plan = harsh_plan(fault_seed).without_capacity()
    oracle = sharded_join(r, s, algorithm="PHJ-OM", num_devices=4, seed=0)
    res = sharded_join(r, s, algorithm="PHJ-OM", num_devices=4, seed=0,
                       fault_plan=plan)
    for column, array in oracle.output.columns().items():
        np.testing.assert_array_equal(res.output.column(column), array)


@pytest.mark.parametrize("fault_seed", FAULT_SEEDS)
def test_sharded_group_by_matches_fault_free_oracle(groupby_workload, fault_seed):
    keys, values, aggs = groupby_workload
    plan = harsh_plan(fault_seed).without_capacity()
    oracle = sharded_group_by(keys, values, aggs, algorithm="HASH-AGG",
                              num_devices=4, seed=0)
    res = sharded_group_by(keys, values, aggs, algorithm="HASH-AGG",
                           num_devices=4, seed=0, fault_plan=plan)
    for column in oracle.output:
        np.testing.assert_array_equal(res.output[column],
                                      oracle.output[column])
