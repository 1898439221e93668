"""A 1-device cluster must reproduce the single-GPUContext run exactly.

Not approximately: the degenerate sharded path wraps the unchanged
algorithm in one compute step with no shuffles, so simulated times are
required to be bit-identical floats and outputs bit-identical arrays.
"""

import numpy as np
import pytest

from repro.aggregation import AggSpec
from repro.aggregation.planner import make_groupby_algorithm
from repro.cluster import ClusterContext, sharded_group_by, sharded_join
from repro.gpusim import GPUContext, KernelStats
from repro.joins.planner import make_algorithm
from repro.workloads import (
    GroupByWorkloadSpec,
    JoinWorkloadSpec,
    generate_groupby_workload,
    generate_join_workload,
)


@pytest.fixture(scope="module")
def relations():
    return generate_join_workload(
        JoinWorkloadSpec(r_rows=1024, s_rows=3072, r_payload_columns=2,
                         s_payload_columns=2, seed=11)
    )


@pytest.fixture(scope="module")
def groupby_data():
    return generate_groupby_workload(
        GroupByWorkloadSpec(rows=4096, groups=128, value_columns=2, seed=12)
    )


def test_bare_context_timeline_matches(setup):
    """Same kernels on a 1-device cluster and a bare context: same clock."""
    stats = [
        KernelStats(name="a", items=1000, seq_read_bytes=1 << 20),
        KernelStats(name="b", items=500, random_requests=500,
                    random_sector_touches=700, random_cold_sectors=700),
    ]
    single = GPUContext(device=setup.device, seed=3)
    for s in stats:
        single.submit(s)

    cluster = ClusterContext(device=setup.device, num_devices=1, seed=3)
    with cluster.compute_step("same-work") as step:
        for s in stats:
            step.contexts[0].submit(s)
    assert cluster.total_seconds == single.elapsed_seconds


@pytest.mark.parametrize("name", ["PHJ-OM", "SMJ-OM", "NPJ"])
def test_join_time_and_output_identical(relations, setup, name):
    r, s = relations
    single = make_algorithm(name, setup.config).join(
        r, s, device=setup.device, seed=5
    )
    clustered = sharded_join(
        r, s, algorithm=name, num_devices=1, device=setup.device,
        config=setup.config, seed=5,
    )
    assert clustered.total_seconds == single.total_seconds  # bit-identical
    assert clustered.cluster.step_seconds("shuffle") == 0.0
    assert clustered.matches == single.matches
    for column in single.output.column_names:
        assert np.array_equal(
            clustered.output.column(column), single.output.column(column)
        )


@pytest.mark.parametrize("name", ["HASH-AGG", "SORT-AGG"])
def test_groupby_time_and_output_identical(groupby_data, setup, name):
    keys, values = groupby_data
    aggregates = [AggSpec("v1", "sum"), AggSpec("v2", "mean")]
    single = make_groupby_algorithm(name).group_by(
        keys, values, aggregates, device=setup.device, seed=5
    )
    clustered = sharded_group_by(
        keys, values, aggregates, algorithm=name, num_devices=1,
        device=setup.device, seed=5,
    )
    assert clustered.total_seconds == single.total_seconds  # bit-identical
    assert clustered.groups == single.groups
    assert sorted(clustered.output) == sorted(single.output)
    for column, array in single.output.items():
        assert np.array_equal(clustered.output[column], array)


def test_one_device_cluster_has_no_shuffle_steps(relations, setup):
    r, s = relations
    clustered = sharded_join(
        r, s, algorithm="PHJ-OM", num_devices=1, device=setup.device,
        config=setup.config, seed=5,
    )
    assert [step.kind for step in clustered.cluster.steps] == ["compute"]
    assert clustered.cluster.link_bytes().sum() == 0
