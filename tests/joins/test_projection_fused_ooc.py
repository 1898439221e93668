"""Projection pushdown, fused join+aggregate, and out-of-core joins."""

import numpy as np
import pytest

from repro.aggregation import AggSpec
from repro.errors import JoinConfigError
from repro.gpusim import GPUContext
from repro.joins import (
    FusedJoinAggregate,
    JoinConfig,
    OutOfCoreJoin,
    PartitionedHashJoin,
    SortMergeJoinOM,
    SortMergeJoinUM,
    estimate_join_footprint,
)
from repro.joins.base import output_column_names
from repro.relational import Relation, reference_groupby, reference_join
from repro.workloads import JoinWorkloadSpec, generate_join_workload


@pytest.fixture(scope="module")
def relations():
    return generate_join_workload(
        JoinWorkloadSpec(r_rows=2048, s_rows=4096, r_payload_columns=3,
                         s_payload_columns=2, seed=4)
    )


class TestProjection:
    def test_schema_filtered(self, relations):
        r, s = relations
        schema = output_column_names(r, s, projection=("r2", "s1"))
        assert [out for _, _, out in schema] == ["key", "r2", "s1"]

    def test_unknown_column_rejected(self, relations):
        r, s = relations
        with pytest.raises(JoinConfigError, match="unknown columns"):
            output_column_names(r, s, projection=("nope",))

    @pytest.mark.parametrize(
        "cls", [PartitionedHashJoin, SortMergeJoinOM, SortMergeJoinUM],
        ids=lambda c: c.name,
    )
    def test_projected_join_correct(self, relations, cls):
        r, s = relations
        full = reference_join(r, s)
        cfg = JoinConfig(projection=("r1", "s2"))
        result = cls(cfg).join(r, s, seed=0)
        assert result.output.column_names == ["key", "r1", "s2"]
        projected = Relation(
            [(n, full.column(n)) for n in ("key", "r1", "s2")], key="key"
        )
        assert result.output.equals_unordered(projected)

    def test_projection_saves_materialization_time(self, relations, setup):
        r, s = relations
        full = PartitionedHashJoin(setup.config).join(r, s, device=setup.device)
        cfg = JoinConfig(
            tuples_per_partition=setup.config.tuples_per_partition,
            bucket_tuples=setup.config.bucket_tuples,
            projection=("r1",),
        )
        thin = PartitionedHashJoin(cfg).join(r, s, device=setup.device)
        assert thin.phase_seconds["materialize"] < full.phase_seconds["materialize"]

    def test_no_leaks_with_projection(self, relations, setup):
        r, s = relations
        cfg = JoinConfig(projection=("s1",))
        for cls in (PartitionedHashJoin, SortMergeJoinOM):
            ctx = GPUContext(device=setup.device, seed=0)
            cls(cfg).join(r, s, ctx=ctx)
            ctx.mem.assert_no_leaks()


class TestFused:
    def test_fused_aggregates_match_reference(self, relations):
        r, s = relations
        full = reference_join(r, s)
        pipeline = FusedJoinAggregate(PartitionedHashJoin())
        result = pipeline.run(
            r, s, group_column="r1",
            aggregates=[AggSpec("s1", "sum"), AggSpec("s1", "count")], seed=0,
        )
        expected = reference_groupby(
            full.column("r1"), {"s1": full.column("s1")}, {"s1": "sum"}
        )
        assert np.array_equal(result.output["sum_s1"], expected["sum_s1"])
        assert np.array_equal(result.output["group_key"], expected["group_key"])

    def test_fused_faster_than_unfused(self, relations, setup):
        r, s = relations
        pipeline = FusedJoinAggregate(PartitionedHashJoin(setup.config))
        aggs = [AggSpec("s1", "sum")]
        fused = pipeline.run(r, s, "r1", aggs, device=setup.device, seed=0)
        unfused = pipeline.run(r, s, "r1", aggs, device=setup.device, seed=0,
                               fuse=False)
        assert fused.total_seconds < unfused.total_seconds
        assert fused.fusion_credit_seconds > 0
        assert unfused.fusion_credit_seconds == 0

    def test_fused_and_unfused_agree(self, relations):
        r, s = relations
        pipeline = FusedJoinAggregate(PartitionedHashJoin())
        aggs = [AggSpec("s2", "max")]
        fused = pipeline.run(r, s, "r2", aggs, seed=0)
        unfused = pipeline.run(r, s, "r2", aggs, seed=0, fuse=False)
        assert np.array_equal(fused.output["max_s2"], unfused.output["max_s2"])

    def test_callers_algorithm_untouched(self, relations):
        r, s = relations
        algo = PartitionedHashJoin()
        FusedJoinAggregate(algo).run(r, s, "r1", [AggSpec("s1", "sum")], seed=0)
        assert algo.config.projection is None

    def test_count_only_aggregate(self, relations):
        r, s = relations
        pipeline = FusedJoinAggregate(PartitionedHashJoin())
        result = pipeline.run(r, s, "r1", [AggSpec("rows", "count")], seed=0)
        full = reference_join(r, s)
        expected = reference_groupby(full.column("r1"), {}, {"rows": "count"})
        assert np.array_equal(result.output["count_rows"], expected["count_rows"])


class TestOutOfCore:
    def test_in_memory_shortcut(self, relations):
        r, s = relations
        result = OutOfCoreJoin(PartitionedHashJoin()).join(r, s, seed=0)
        assert "host-partition" not in result.phase_seconds
        assert result.num_chunks == 1
        assert result.phase_seconds["transfer"] > 0

    @pytest.mark.parametrize("divisor", [4, 16])
    def test_staged_join_correct(self, relations, divisor):
        r, s = relations
        expected = reference_join(r, s)
        budget = estimate_join_footprint(r, s) // divisor
        result = OutOfCoreJoin(
            PartitionedHashJoin(), device_budget_bytes=budget
        ).join(r, s, seed=0)
        assert "host-partition" in result.phase_seconds
        assert result.num_chunks >= 2
        assert result.output.equals_unordered(expected)
        assert result.matches == expected.num_rows

    def test_chunk_count_grows_as_budget_shrinks(self, relations):
        r, s = relations
        footprint = estimate_join_footprint(r, s)
        ooc = OutOfCoreJoin(PartitionedHashJoin())
        chunks = [ooc.plan_chunks(r, s, footprint // d) for d in (1, 2, 4, 8)]
        assert chunks[0] == 1
        assert chunks == sorted(chunks)

    def test_staging_costs_time(self, relations):
        r, s = relations
        fits = OutOfCoreJoin(PartitionedHashJoin()).join(r, s, seed=0)
        budget = estimate_join_footprint(r, s) // 8
        staged = OutOfCoreJoin(
            PartitionedHashJoin(), device_budget_bytes=budget
        ).join(r, s, seed=0)
        assert staged.total_seconds > fits.total_seconds
        assert staged.phase_seconds["host-partition"] > 0

    def test_zero_budget_rejected(self, relations):
        r, s = relations
        with pytest.raises(JoinConfigError):
            OutOfCoreJoin(PartitionedHashJoin(), device_budget_bytes=0).join(r, s)

    def test_chunk_fanout_capped(self, relations):
        from repro.joins.out_of_core import MAX_CHUNKS

        r, s = relations
        ooc = OutOfCoreJoin(PartitionedHashJoin())
        assert ooc.plan_chunks(r, s, budget=1) == MAX_CHUNKS

    def test_no_matches_across_chunks(self):
        r = Relation.from_key_payloads(
            np.arange(100, dtype=np.int32),
            [np.arange(100, dtype=np.int32)], payload_prefix="r",
        )
        s = Relation.from_key_payloads(
            np.arange(1000, 1100, dtype=np.int32),
            [np.arange(100, dtype=np.int32)], payload_prefix="s",
        )
        result = OutOfCoreJoin(
            PartitionedHashJoin(), device_budget_bytes=64
        ).join(r, s, seed=0)
        assert result.matches == 0
        assert result.output.column_names == ["key", "r1", "s1"]
