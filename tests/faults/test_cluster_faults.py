"""Cluster fault injection: replays, retransmits, stragglers.

The cluster layer recovers with barrier-synchronous checkpoint/replay:
a failed device re-runs its shard from the superstep's shuffle-buffer
checkpoint, failed links retransmit their buckets whole, stragglers
stretch their timeline — and in every case the sharded rows stay
bit-identical to the fault-free run, because injection draws never
touch the data path.
"""

import numpy as np
import pytest

from repro.aggregation import AggSpec
from repro.cluster import ClusterContext, sharded_group_by, sharded_join
from repro.faults import FaultPlan
from repro.obs import TraceSession
from repro.workloads import JoinWorkloadSpec, generate_join_workload
from repro.workloads.groupby_gen import GroupByWorkloadSpec, generate_groupby_workload

ALL_FAULTS = FaultPlan(
    seed=13,
    kernel_fault_rate=0.2,
    link_failure_rate=0.4,
    straggler_rate=0.3,
    device_failure_rate=0.3,
)


@pytest.fixture(scope="module")
def relations():
    return generate_join_workload(
        JoinWorkloadSpec(r_rows=2048, s_rows=8192, r_payload_columns=2,
                         s_payload_columns=2, seed=3)
    )


@pytest.fixture(scope="module")
def groupby_workload():
    spec = GroupByWorkloadSpec(rows=1 << 14, groups=512, value_columns=2, seed=3)
    keys, values = generate_groupby_workload(spec)
    return keys, values, [AggSpec("v1", "sum"), AggSpec("v2", "mean")]


def test_capacity_pressure_is_stripped_from_shards():
    plan = FaultPlan(seed=1, capacity_frac=0.1, kernel_fault_rate=0.2)
    cluster = ClusterContext(num_devices=2, fault_plan=plan)
    assert cluster.fault_plan.capacity_frac is None
    assert cluster.fault_plan.kernel_fault_rate == 0.2


def test_sharded_join_is_bit_identical_under_faults(relations):
    r, s = relations
    base = sharded_join(r, s, algorithm="PHJ-OM", num_devices=4, seed=0)
    faulty = sharded_join(r, s, algorithm="PHJ-OM", num_devices=4, seed=0,
                          fault_plan=ALL_FAULTS)
    # Exactly identical, not just as a multiset: the recovery replays
    # deterministic shards, so even the row order is unchanged.
    for column, array in base.output.columns().items():
        np.testing.assert_array_equal(faulty.output.column(column), array)
    assert faulty.total_seconds > base.total_seconds


def test_sharded_group_by_is_bit_identical_under_faults(groupby_workload):
    keys, values, aggs = groupby_workload
    base = sharded_group_by(keys, values, aggs, algorithm="HASH-AGG",
                            num_devices=4, seed=0)
    faulty = sharded_group_by(keys, values, aggs, algorithm="HASH-AGG",
                              num_devices=4, seed=0, fault_plan=ALL_FAULTS)
    for column in base.output:
        np.testing.assert_array_equal(faulty.output[column],
                                      base.output[column])
    assert faulty.total_seconds > base.total_seconds


def test_cluster_recovery_is_deterministic(relations):
    r, s = relations
    a = sharded_join(r, s, algorithm="PHJ-OM", num_devices=4, seed=0,
                     fault_plan=ALL_FAULTS)
    b = sharded_join(r, s, algorithm="PHJ-OM", num_devices=4, seed=0,
                     fault_plan=ALL_FAULTS)
    assert a.total_seconds == b.total_seconds
    assert a.cluster.step_seconds("shuffle") == b.cluster.step_seconds("shuffle")


def test_recovery_mechanisms_surface_in_steps_and_counters(relations):
    r, s = relations
    with TraceSession("cluster-faults") as session:
        res = sharded_join(r, s, algorithm="PHJ-OM", num_devices=4, seed=0,
                           fault_plan=ALL_FAULTS)
    cluster = res.cluster
    recovery = sum(step.recovery_seconds for step in cluster.steps)
    assert recovery > 0
    # Link failures append retransmit transfer records to shuffle steps.
    retransmits = [
        t for step in cluster.steps for t in step.transfers
        if t.label.startswith("retransmit:")
    ]
    assert retransmits
    assert session.metrics.value("fault_retransmit_bytes") == sum(
        t.nbytes for t in retransmits
    )
    # At these rates, every injection mechanism fires at least once.
    for counter in (
        "faults_injected_link",
        "faults_injected_device",
        "faults_injected_straggler",
        "fault_replays",
        "fault_replay_seconds",
        "fault_retransmit_seconds",
        "fault_straggler_seconds",
    ):
        assert session.metrics.value(counter) > 0, counter
    # Replays are traced as retry-category spans on the ambient session.
    retry_spans = session.spans(category="retry")
    assert any(span.name.startswith("replay:") for _, span in retry_spans)


def test_device_kernel_retries_roll_up_to_ambient_session(relations):
    """Per-device contexts trace into private sessions; the cluster
    rolls their fault counters up so session totals are cluster-wide."""
    r, s = relations
    plan = FaultPlan(seed=13, kernel_fault_rate=0.3)
    with TraceSession("rollup") as session:
        sharded_join(r, s, algorithm="PHJ-OM", num_devices=4, seed=0,
                     fault_plan=plan)
    assert session.metrics.value("faults_injected_kernel") > 0
    assert session.metrics.value("fault_kernel_retries") > 0
    assert session.metrics.value("fault_retry_seconds") > 0


def test_cluster_step_spans_report_recovery_seconds(relations):
    r, s = relations
    with TraceSession("spans") as session:
        sharded_join(r, s, algorithm="PHJ-OM", num_devices=4, seed=0,
                     fault_plan=ALL_FAULTS)
    steps = session.spans(category="cluster-step")
    assert steps
    assert any(span.args.get("recovery_s", 0.0) > 0 for _, span in steps)


def test_fault_free_plan_leaves_cluster_clock_unchanged(relations):
    r, s = relations
    base = sharded_join(r, s, algorithm="PHJ-OM", num_devices=4, seed=0)
    planned = sharded_join(r, s, algorithm="PHJ-OM", num_devices=4, seed=0,
                           fault_plan=FaultPlan(seed=13))
    assert planned.total_seconds == base.total_seconds
