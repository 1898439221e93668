"""The host stager and the degradation ladder.

Both out-of-core operators and both resilient entry points run on one
stager (``repro.primitives.staging``) and one ladder loop
(``repro.faults.recovery._ladder``).  The kernel ledger
(:mod:`tests.kernel_ledger`) was recorded where they equalled frozen
copies of the two stagers and two ladders they replaced, but for the
declared difference: a group-by that fits in one block runs once,
unpartitioned, as a join that fits in one chunk does.  The ``*_frozen``
cases check their ledger cells; the rest check the stager's rules.
"""

import pytest

from repro.aggregation import OutOfCoreGroupBy
from repro.aggregation.planner import make_groupby_algorithm
from repro.errors import AggregationConfigError, GracefulDegradationError, JoinConfigError
from repro.faults import FaultPlan, resilient_group_by, resilient_join
from repro.gpusim import A100, GPUContext
from repro.joins import OutOfCoreJoin
from repro.joins.planner import make_algorithm
from repro.primitives.staging import MAX_PIECES, fan_out, staging_budget

from ..kernel_ledger import (
    LADDER_CAPACITIES,
    LADDER_FAULTS,
    STAGING_AGGREGATES,
    STAGING_DEVICE,
    STAGING_PLANS,
    assert_cells,
    checked,
    recording,
    staging_groupby_workload,
    staging_relations,
)


@pytest.mark.parametrize("plan_name", sorted(STAGING_PLANS))
@pytest.mark.parametrize("divisor, min_chunks, chunks", [
    (None, 1, 1),
    (None, 2, 2),   # fits, but the ladder's floor stages it anyway
    (2, 1, 2),
    (8, 1, 8),
    (1000, 1, 256),  # capped
])
def test_join_stager_matches_frozen(divisor, min_chunks, chunks, plan_name):
    cell = f"staging/join/{plan_name}/{divisor}-{min_chunks}"
    assert_cells(cell)
    assert checked(cell).pieces == chunks


@pytest.mark.parametrize("plan_name", sorted(STAGING_PLANS))
@pytest.mark.parametrize("divisor, min_blocks, blocks", [
    (1, 2, 2),      # fits, but the ladder's floor stages it anyway
    (2, 1, 2),
    (8, 1, 8),
    (256, 1, 256),
])
def test_group_by_stager_matches_frozen(divisor, min_blocks, blocks, plan_name):
    cell = f"staging/group-by/{plan_name}/{divisor}-{min_blocks}"
    assert_cells(cell)
    assert checked(cell).pieces == blocks


def test_group_by_over_256_blocks_raises_as_frozen():
    assert_cells("staging/group-by/over-256-blocks")


@pytest.mark.parametrize("plan_name", ["no-faults", "kernel+capacity-3"])
def test_one_block_group_by_runs_once_unpartitioned(plan_name):
    """One block is one run of the inner strategy on the whole input
    between two transfers, as one chunk is."""
    keys, values = staging_groupby_workload()
    plan = STAGING_PLANS[plan_name]
    with recording() as log:
        staged = OutOfCoreGroupBy(fault_plan=plan).group_by(
            keys, dict(values), STAGING_AGGREGATES, device=A100, seed=7)
    with recording() as plain_log:
        plain = make_groupby_algorithm("PART-AGG").group_by(
            keys, dict(values), STAGING_AGGREGATES,
            ctx=GPUContext(device=A100, seed=7, fault_plan=None if plan is None
                           else plan.without_capacity(), fault_site="gpu/block0"))
    assert staged.num_blocks == 1
    # Each kernel without the index of its context.
    kernels = [kernel[1:] for kernel in log["kernels"]]
    names = [kernel[1][0] for kernel in kernels]
    assert names[0] == "transfer_in" and names[-1] == "transfer_out"
    assert "host_partition" not in names and "ooc_merge" not in names
    assert kernels[1:-1] == [kernel[1:] for kernel in plain_log["kernels"]]
    assert log["faults"] == plain_log["faults"]
    assert list(staged.phase_seconds) == ["transfer", "device"]
    assert staged.phase_seconds["device"] == plain.total_seconds
    for column, array in plain.output.items():
        assert staged.output[column].tobytes() == array.tobytes(), column
    assert_cells(f"staging/group-by/one-block/{plan_name}")


@pytest.mark.parametrize("budget", [0, -5])
def test_non_positive_budgets_raise_config_errors(budget):
    keys, values = staging_groupby_workload()
    with pytest.raises(AggregationConfigError):
        OutOfCoreGroupBy(device_budget_bytes=budget).group_by(
            keys, dict(values), STAGING_AGGREGATES)
    r, s = staging_relations()
    with pytest.raises(JoinConfigError):
        OutOfCoreJoin(make_algorithm("PHJ-OM"), device_budget_bytes=budget).join(r, s)


def test_fan_out_rules():
    assert fan_out(100, 100) == 1
    assert fan_out(101, 100) == 2
    assert fan_out(100, 100, min_pieces=3) == 4
    assert fan_out(10 ** 9, 1) == MAX_PIECES == 256
    assert staging_budget(None, STAGING_DEVICE, JoinConfigError) == (
        STAGING_DEVICE.global_mem_bytes)


@pytest.mark.parametrize("capacity", sorted(LADDER_CAPACITIES))
@pytest.mark.parametrize("fault_seed, kernel_rate", LADDER_FAULTS)
def test_join_ladder_matches_frozen(capacity, fault_seed, kernel_rate):
    assert_cells(f"ladder/join/{capacity}/{fault_seed}-{kernel_rate}")


@pytest.mark.parametrize("capacity", sorted(LADDER_CAPACITIES))
@pytest.mark.parametrize("fault_seed, kernel_rate", LADDER_FAULTS)
@pytest.mark.parametrize("algorithm", ["HASH-AGG", "SORT-AGG", "PART-AGG"])
def test_group_by_ladder_matches_frozen(capacity, fault_seed, kernel_rate, algorithm):
    assert_cells(f"ladder/group-by/{algorithm}/{capacity}/{fault_seed}-{kernel_rate}")


@pytest.mark.parametrize("kind", ["join", "group-by"])
def test_ladder_stages_at_least_twice_when_the_estimate_fits(kind):
    """An observed OOM re-plans with more passes even where the
    footprint estimate says the input fits: the ladder's floor of 2."""
    cell = f"ladder/{kind}/estimate-fits"
    assert_cells(cell)
    assert checked(cell).pieces == 2


def test_the_ladder_cases_reach_every_rung():
    """The capacities above land where their names say."""
    r, s = staging_relations()
    keys, values = staging_groupby_workload()

    def join_attempts(capacity):
        plan = FaultPlan(seed=3, capacity_frac=LADDER_CAPACITIES[capacity])
        return resilient_join(r, s, algorithm="PHJ-OM", device=STAGING_DEVICE, seed=0,
                              fault_plan=plan).recovery.attempts

    def group_by_attempts(capacity):
        plan = FaultPlan(seed=3, capacity_frac=LADDER_CAPACITIES[capacity])
        return resilient_group_by(keys, dict(values), STAGING_AGGREGATES,
                                  algorithm="HASH-AGG", device=STAGING_DEVICE, seed=0,
                                  fault_plan=plan).recovery.attempts

    assert join_attempts("loose") == ["PHJ-OM"]
    assert join_attempts("harsh")[-1].startswith("OOC[PHJ-OM]x")
    assert join_attempts("exhausted")[-1] == "OOC[PHJ-OM]x256"
    assert group_by_attempts("loose") == ["HASH-AGG"]
    assert group_by_attempts("mild") == ["HASH-AGG", "PART-AGG"]
    assert group_by_attempts("harsh")[-1].startswith("OOC[PART-AGG]x")
    with pytest.raises(GracefulDegradationError) as info:
        group_by_attempts("exhausted")
    assert info.value.attempts == ["HASH-AGG", "PART-AGG", "OOC[PART-AGG]"]
