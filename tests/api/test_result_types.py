"""One result type per operator, with the same simulated seconds.

Every way to run a join returns a :class:`JoinResult` and every way to
run a group-by a :class:`GroupByResult`: plain, sharded, under a fault
plan (clean, retrying, degraded) and staged out-of-core, through
``repro.join``/``repro.group_by`` and through each mode's own entry
point.  ``total_seconds`` must equal, bit for bit, the formula each
mode's former result type used, recomputed from the same run: the
cluster clock (a left-to-right sum over steps, not over the step
groups); host-partition + transfer (+ merge) + device for a staged run;
the inner run's total plus the OOM-wasted seconds under a fault plan.
The committed tables print milliseconds to three decimals, so only an
exact comparison sees last-bit drift.
"""

import pytest

from repro import group_by, join
from repro.aggregation import (
    AggSpec,
    GroupByResult,
    OutOfCoreGroupBy,
    estimate_groupby_footprint,
    make_groupby_algorithm,
)
from repro.cluster import sharded_group_by, sharded_join
from repro.faults import FaultPlan, resilient_group_by, resilient_join
from repro.gpusim import A100
from repro.joins import JoinResult, OutOfCoreJoin, estimate_join_footprint, make_algorithm
from repro.workloads import JoinWorkloadSpec, generate_join_workload
from repro.workloads.groupby_gen import GroupByWorkloadSpec, generate_groupby_workload

# A small simulated device makes capacity fractions bite at test scale.
DEVICE = A100.with_overrides(global_mem_bytes=1 << 20)
JOIN = "PHJ-OM"
GROUP_BY = "HASH-AGG"
AGGREGATES = [AggSpec("v1", "sum"), AggSpec("v2", "mean")]

PLANS = {
    "fault-clean": FaultPlan(seed=2),
    "fault-kernel": FaultPlan(seed=2, kernel_fault_rate=0.3),
    # The join degrades to the staged join; the group-by stops at PART-AGG
    # under the milder pressure and goes block-staged under the harsher.
    "fault-degraded": FaultPlan(seed=2, capacity_frac=0.05),
    "fault-degraded-mild": FaultPlan(seed=2, capacity_frac=0.1),
}


@pytest.fixture(scope="module")
def relations():
    return generate_join_workload(
        JoinWorkloadSpec(r_rows=4096, s_rows=8192, r_payload_columns=2,
                         s_payload_columns=2, seed=5)
    )


@pytest.fixture(scope="module")
def groupby_workload():
    return generate_groupby_workload(
        GroupByWorkloadSpec(rows=1 << 14, groups=8192, value_columns=2, seed=5)
    )


def _mode_cases(direct_plain, direct_sharded, direct_resilient):
    """(case, api keywords, direct entry point) for the modes both
    operators share; the direct entry point takes the operator inputs."""
    cases = [
        ("plain", {}, direct_plain),
        ("shards=1", {"shards": 1}, lambda *a: direct_sharded(*a, num_devices=1)),
        ("shards=2", {"shards": 2}, lambda *a: direct_sharded(*a, num_devices=2)),
        ("shards=4", {"shards": 4}, lambda *a: direct_sharded(*a, num_devices=4)),
        ("shards=2+fault-kernel", {"shards": 2, "fault_plan": PLANS["fault-kernel"]},
         lambda *a: direct_sharded(*a, num_devices=2, fault_plan=PLANS["fault-kernel"])),
    ]
    for name, plan in PLANS.items():
        cases.append((name, {"fault_plan": plan},
                      lambda *a, plan=plan: direct_resilient(*a, fault_plan=plan)))
    return cases


def _join_cases():
    def plain(r, s):
        return make_algorithm(JOIN).join(r, s, device=DEVICE, seed=0)

    def sharded(r, s, **kw):
        return sharded_join(r, s, algorithm=JOIN, device=DEVICE, seed=0, **kw)

    def resilient(r, s, **kw):
        return resilient_join(r, s, algorithm=JOIN, device=DEVICE, seed=0, **kw)

    def staged(divisor):
        def run(r, s):
            budget = estimate_join_footprint(r, s) // divisor if divisor else None
            return OutOfCoreJoin(make_algorithm(JOIN), device_budget_bytes=budget).join(
                r, s, device=DEVICE, seed=0
            )
        return run

    cases = _mode_cases(plain, sharded, resilient)
    # The stager has no api keyword: direct entry point only.
    cases += [("ooc-staged", None, staged(4)), ("ooc-unstaged", None, staged(0))]
    return cases


def _group_by_cases():
    def plain(keys, values):
        return make_groupby_algorithm(GROUP_BY).group_by(
            keys, values, AGGREGATES, device=DEVICE, seed=0)

    def sharded(keys, values, **kw):
        return sharded_group_by(keys, values, AGGREGATES, algorithm=GROUP_BY,
                                device=DEVICE, seed=0, **kw)

    def resilient(keys, values, **kw):
        return resilient_group_by(keys, values, AGGREGATES, algorithm=GROUP_BY,
                                  device=DEVICE, seed=0, **kw)

    def staged(divisor):
        def run(keys, values):
            budget = estimate_groupby_footprint(keys, values) // divisor
            return OutOfCoreGroupBy(device_budget_bytes=budget).group_by(
                keys, values, AGGREGATES, device=DEVICE, seed=0
            )
        return run

    cases = _mode_cases(plain, sharded, resilient)
    cases += [("ooc-staged", None, staged(4)), ("ooc-unstaged", None, staged(1))]
    return cases


def _params(cases):
    params = []
    for name, api_kwargs, direct in cases:
        if api_kwargs is not None:
            params.append(pytest.param(api_kwargs, None, id=f"{name}-api"))
        params.append(pytest.param(None, direct, id=f"{name}-direct"))
    return params


def _staged_total(phases, staged_parts) -> float:
    """The former out-of-core totals, or a plain one's phase sum."""
    if staged_parts is None:
        return sum(phases.values())
    if "merge" in phases:  # the former staged group-by total
        return (phases["host-partition"] + phases["transfer"] + phases["merge"]
                + phases["device"])
    # The former staged-join total: no host partition when the join fits.
    # A one-block group-by is staged as the join is: it adds the same.
    return phases.get("host-partition", 0.0) + phases["transfer"] + phases["device"]


def _former_total(result, staged_parts) -> float:
    if result.cluster is not None:  # the former sharded total: the clock
        return sum(step.seconds for step in result.cluster.steps)
    phases = dict(result.phase_seconds)
    if result.recovery is None:
        return _staged_total(phases, staged_parts)
    # The former fault-plan total: the inner total plus the wasted seconds.
    wasted = phases.pop("oom-wasted", 0.0)
    assert wasted == result.recovery.wasted_seconds
    return _staged_total(phases, staged_parts) + result.recovery.wasted_seconds


@pytest.mark.parametrize("api_kwargs, direct", _params(_join_cases()))
def test_every_join_mode_returns_join_result(relations, api_kwargs, direct):
    r, s = relations
    if direct is None:
        result = join(r, s, algorithm=JOIN, device=DEVICE, seed=0, **api_kwargs)
    else:
        result = direct(r, s)
    assert type(result) is JoinResult
    assert result.total_seconds == _former_total(result, result.num_chunks)


@pytest.mark.parametrize("api_kwargs, direct", _params(_group_by_cases()))
def test_every_group_by_mode_returns_group_by_result(
    groupby_workload, api_kwargs, direct
):
    keys, values = groupby_workload
    if direct is None:
        result = group_by(keys, dict(values), AGGREGATES, algorithm=GROUP_BY,
                          device=DEVICE, seed=0, **api_kwargs)
    else:
        result = direct(keys, dict(values))
    assert type(result) is GroupByResult
    assert result.total_seconds == _former_total(result, result.num_blocks)


def test_the_cases_cover_every_mode_detail(relations, groupby_workload):
    """Each mode's detail is set where the mode ran, so the formulas
    above are the former ones and not the phase sum throughout."""
    r, s = relations
    keys, values = groupby_workload
    ran = {}
    for name, _, direct in _join_cases():
        ran["join", name] = direct(r, s)
    for name, _, direct in _group_by_cases():
        ran["group-by", name] = direct(keys, dict(values))
    for (kind, name), result in ran.items():
        assert (result.cluster is not None) == name.startswith("shards"), (kind, name)
        assert (result.recovery is not None) == name.startswith("fault"), (kind, name)
        staged = result.num_chunks if kind == "join" else result.num_blocks
        assert (staged is not None) == (name.startswith("ooc") or (
            result.algorithm.startswith("OOC["))), (kind, name)
    assert ran["join", "fault-degraded"].algorithm == "OOC[PHJ-OM]"
    assert ran["group-by", "fault-degraded"].algorithm == "OOC[PART-AGG]"
    assert ran["group-by", "fault-degraded-mild"].algorithm == "degraded[PART-AGG]"
    assert ran["join", "fault-degraded-mild"].algorithm == "OOC[PHJ-OM]"
    assert "host-partition" in ran["join", "ooc-staged"].phase_seconds
    assert "host-partition" not in ran["join", "ooc-unstaged"].phase_seconds
    assert ran["group-by", "ooc-staged"].num_blocks > 1
    assert ran["group-by", "ooc-unstaged"].num_blocks == 1
    # One block runs once, as one chunk does: no host partition, no merge.
    assert list(ran["group-by", "ooc-unstaged"].phase_seconds) == [
        "transfer", "device"]
    assert list(ran["join", "ooc-unstaged"].phase_seconds) == ["transfer", "device"]
    # The phases are listed in the order the former totals added them.
    assert list(ran["group-by", "ooc-staged"].phase_seconds) == [
        "host-partition", "transfer", "merge", "device"]
    for key in [("join", "fault-degraded"), ("group-by", "fault-degraded"),
                ("group-by", "fault-degraded-mild")]:
        assert list(ran[key].phase_seconds)[-1] == "oom-wasted", key
    # Four shards shuffle R and S in two steps each, and the clock adds
    # them in step order: the grouped sum differs in the last bit here.
    sharded = ran["join", "shards=4"]
    assert sharded.total_seconds != sum(sharded.phase_seconds.values())
