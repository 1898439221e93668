"""Graceful degradation: OOM pressure re-plans instead of raising.

Acceptance for the fault framework: under an injected ``capacity_frac``
the in-memory join/group-by must degrade to the partitioned /
out-of-core variant, produce the fault-free rows (joins up to row
order, group-bys bit for bit), charge the recovery to the simulated
clock, and account the degradation in the ambient trace session.
"""

import numpy as np
import pytest

from repro.aggregation import AggSpec, GroupByResult
from repro.errors import GracefulDegradationError
from repro.faults import FaultPlan, Recovery, resilient_group_by, resilient_join
from repro.joins import JoinResult
from repro.gpusim import A100
from repro.obs import TraceSession
from repro.workloads import JoinWorkloadSpec, generate_join_workload
from repro.workloads.groupby_gen import GroupByWorkloadSpec, generate_groupby_workload

# A small simulated device makes capacity fractions bite at test scale.
DEVICE = A100.with_overrides(global_mem_bytes=1 << 20)


@pytest.fixture(scope="module")
def relations():
    return generate_join_workload(
        JoinWorkloadSpec(r_rows=4096, s_rows=8192, r_payload_columns=2,
                         s_payload_columns=2, seed=5)
    )


@pytest.fixture(scope="module")
def groupby_workload():
    spec = GroupByWorkloadSpec(rows=1 << 14, groups=2048, value_columns=2, seed=5)
    keys, values = generate_groupby_workload(spec)
    return keys, values, [AggSpec("v1", "sum"), AggSpec("v2", "max")]


class TestResilientJoin:
    def test_no_plan_matches_plain_join(self, relations):
        r, s = relations
        res = resilient_join(r, s, algorithm="PHJ-OM", device=DEVICE, seed=0)
        assert type(res) is JoinResult
        assert not res.recovery.degraded
        assert res.algorithm == "PHJ-OM"
        assert res.recovery.attempts == ["PHJ-OM"]
        assert res.matches == s.num_rows
        assert res.recovery == Recovery(degraded=False, attempts=["PHJ-OM"])

    def test_capacity_pressure_degrades_to_out_of_core(self, relations):
        r, s = relations
        oracle = resilient_join(r, s, algorithm="PHJ-OM", device=DEVICE, seed=0)
        plan = FaultPlan(seed=1, capacity_frac=0.05)
        res = resilient_join(
            r, s, algorithm="PHJ-OM", device=DEVICE, seed=0, fault_plan=plan
        )
        assert res.recovery.degraded
        assert res.algorithm == "OOC[PHJ-OM]"
        assert res.recovery.attempts[0] == "PHJ-OM"
        assert res.recovery.attempts[1] == f"OOC[PHJ-OM]x{res.num_chunks}"
        assert res.output.equals_unordered(oracle.output)
        assert res.total_seconds > oracle.total_seconds
        assert res.recovery.degraded is True
        assert res.num_chunks >= 2

    def test_degradation_is_deterministic(self, relations):
        r, s = relations
        plan = FaultPlan(seed=1, kernel_fault_rate=0.2, capacity_frac=0.05)
        a = resilient_join(r, s, algorithm="PHJ-OM", device=DEVICE, seed=0,
                           fault_plan=plan)
        b = resilient_join(r, s, algorithm="PHJ-OM", device=DEVICE, seed=0,
                           fault_plan=plan)
        assert a.total_seconds == b.total_seconds
        for column, array in a.output.columns().items():
            np.testing.assert_array_equal(array, b.output.column(column))

    def test_degradation_is_traced(self, relations):
        r, s = relations
        plan = FaultPlan(seed=1, capacity_frac=0.05)
        with TraceSession("degrade") as session:
            resilient_join(r, s, algorithm="PHJ-OM", device=DEVICE, seed=0,
                           fault_plan=plan)
        assert session.metrics.value("faults_injected_oom") == 1
        assert session.metrics.value("degraded_operators") == 1
        assert session.metrics.value("degraded_extra_passes") >= 1
        spans = session.spans(category="degraded")
        assert [span.name for _, span in spans] == ["degraded:join"]
        assert spans[0][1].args["reason"] == "oom"
        assert spans[0][1].args["algorithm"] == "OOC[PHJ-OM]"

    def test_transient_faults_inside_degraded_chunks(self, relations):
        """without_capacity forwarding: chunk executions keep injecting
        kernel faults but are not re-broken by the OOM pressure."""
        r, s = relations
        plan = FaultPlan(seed=1, kernel_fault_rate=0.3, capacity_frac=0.05)
        with TraceSession("chunks") as session:
            res = resilient_join(r, s, algorithm="PHJ-OM", device=DEVICE,
                                 seed=0, fault_plan=plan)
        assert res.recovery.degraded
        assert session.metrics.value("fault_kernel_retries") > 0


class TestResilientGroupBy:
    def test_no_plan_is_not_degraded(self, groupby_workload):
        keys, values, aggs = groupby_workload
        res = resilient_group_by(keys, dict(values), aggs,
                                 algorithm="HASH-AGG", device=DEVICE, seed=0)
        assert type(res) is GroupByResult
        assert not res.recovery.degraded
        assert res.algorithm == "HASH-AGG"

    def test_ladder_degrades_and_stays_bit_identical(self, groupby_workload):
        keys, values, aggs = groupby_workload
        oracle = resilient_group_by(keys, dict(values), aggs,
                                    algorithm="HASH-AGG", device=DEVICE, seed=0)
        plan = FaultPlan(seed=1, capacity_frac=0.02)
        res = resilient_group_by(keys, dict(values), aggs,
                                 algorithm="HASH-AGG", device=DEVICE, seed=0,
                                 fault_plan=plan)
        assert res.recovery.degraded
        assert res.recovery.attempts[0] == "HASH-AGG"
        assert set(res.output) == set(oracle.output)
        for column in oracle.output:
            np.testing.assert_array_equal(res.output[column],
                                          oracle.output[column])
        assert res.total_seconds > oracle.total_seconds

    def test_exhausted_ladder_reports_every_attempt(self, groupby_workload):
        keys, values, aggs = groupby_workload
        # Too tight even for 256 out-of-core blocks.
        plan = FaultPlan(seed=1, capacity_frac=1e-4)
        with pytest.raises(GracefulDegradationError) as info:
            resilient_group_by(keys, dict(values), aggs,
                               algorithm="HASH-AGG", device=DEVICE, seed=0,
                               fault_plan=plan)
        assert info.value.attempts == ["HASH-AGG", "PART-AGG", "OOC[PART-AGG]"]
        assert "tried: HASH-AGG, PART-AGG, OOC[PART-AGG]" in str(info.value)

    def test_degradation_counters_and_spans(self, groupby_workload):
        keys, values, aggs = groupby_workload
        plan = FaultPlan(seed=1, capacity_frac=0.02)
        with TraceSession("gb-degrade") as session:
            res = resilient_group_by(keys, dict(values), aggs,
                                     algorithm="HASH-AGG", device=DEVICE,
                                     seed=0, fault_plan=plan)
        assert session.metrics.value("faults_injected_oom") >= 1
        assert session.metrics.value("degraded_operators") >= 1
        spans = session.spans(category="degraded")
        assert all(span.name == "degraded:group-by" for _, span in spans)
        assert res.recovery.degraded is True
        # The staged rung is spelled as the join's: OOC[<inner>]x<n>.
        assert res.recovery.attempts[-1] == f"OOC[PART-AGG]x{res.num_blocks}"
        assert spans[-1][1].args["algorithm"] == "OOC[PART-AGG]"
