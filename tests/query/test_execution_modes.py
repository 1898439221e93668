"""Execution modes: the compatibility table, output equality across every
allowed combination, and the backends each mode calls at run time."""

import numpy as np
import pytest

import repro
import repro.cluster.sharded as sharded
import repro.faults.recovery as recovery
from repro.aggregation import AggSpec
from repro.errors import JoinConfigError, ServeConfigError
from repro.faults import FaultPlan
from repro.obs import TraceSession
from repro.query import Aggregate, Join, Project, QueryExecutor, Scan
from repro.relational.relation import Relation
from repro.serve import QueryServer
from repro.tier import TieredRuntime
from repro.workloads import JoinWorkloadSpec, generate_join_workload

SEED = 9

#: Kernel faults plus capacity pressure loose enough that nothing OOMs,
#: so every operator keeps its planned algorithm.
FAULTS = FaultPlan(seed=3, kernel_fault_rate=0.3, capacity_frac=0.9)


@pytest.fixture(scope="module")
def relations():
    return generate_join_workload(
        JoinWorkloadSpec(r_rows=1024, s_rows=4096, r_payload_columns=2,
                         s_payload_columns=2, seed=21)
    )


@pytest.fixture(scope="module")
def plans(relations):
    r, s = relations
    join = Join(Scan(r, "r"), Scan(s, "s"))
    return {
        "join": join,
        "project-join": Project(join, ("s1",)),
        "aggregate": Aggregate(Scan(s, "s"), "s2", (AggSpec("s1", "sum"),
                                                    AggSpec("s1", "count"))),
        "aggregate-join": Aggregate(join, "r1", (AggSpec("s1", "sum"),)),
    }


#: Every combination the compatibility check allows.
ALLOWED = {
    "plain": {},
    "shards": {"shards": 2},
    "faults": {"fault_plan": FAULTS},
    "shards+faults": {"shards": 2, "fault_plan": FAULTS.without_capacity()},
    "tiering": {"tiering": True},
    "tiering+faults": {"tiering": True, "fault_plan": FAULTS},
}

#: Every combination it forbids.
FORBIDDEN = {
    "no-devices": {"shards": 0},
    "tiering+shards": {"shards": 2, "tiering": True},
    "shards+capacity": {"shards": 2, "fault_plan": FAULTS},
}


def _executor(**modes) -> QueryExecutor:
    if modes.get("tiering") is True:
        modes = dict(modes, tiering=TieredRuntime(segment_rows=512))
    return QueryExecutor(seed=SEED, **modes)


def _assert_same_output(actual, expected):
    if isinstance(expected, Relation):
        # Sharded joins concatenate per-device outputs: same rows, and
        # the same row order only where the mode keeps it.
        assert actual.equals_unordered(expected)
    else:
        assert list(actual) == list(expected)
        for column, array in expected.items():
            np.testing.assert_array_equal(actual[column], array, err_msg=column)


@pytest.mark.filterwarnings("ignore::repro.errors.ShardedExecutionWarning")
@pytest.mark.parametrize("plan_name", ["join", "project-join", "aggregate",
                                       "aggregate-join"])
@pytest.mark.parametrize("mode", sorted(ALLOWED))
def test_every_allowed_mode_matches_plain(plans, mode, plan_name):
    executor = _executor(**ALLOWED[mode])
    plan = plans[plan_name]
    # The plain reference fuses exactly when the mode does, so both
    # traces have the same operator entries.
    reference = QueryExecutor(
        seed=SEED, enable_fusion=executor.fuses(True)
    ).execute(plan)
    result = executor.execute(plan)
    _assert_same_output(result.output, reference.output)
    assert len(result.trace) == len(reference.trace)
    for got, want in zip(result.trace, reference.trace):
        # Tier-split operators report "TIER" in place of an algorithm.
        assert got.algorithm in (want.algorithm, "TIER")
    if mode.startswith("tiering") and plan_name in ("join", "aggregate"):
        assert result.trace[-1].algorithm == "TIER"


@pytest.mark.parametrize("mode", sorted(FORBIDDEN))
def test_every_forbidden_mode_raises(relations, mode):
    modes = FORBIDDEN[mode]
    with pytest.raises(JoinConfigError):
        _executor(**modes)
    with pytest.raises(ServeConfigError):
        server = QueryServer(
            seed=SEED, shards=modes["shards"], tiering=modes.get("tiering")
        )
        # A fault plan arrives per query: checked at submission.
        r, s = relations
        server.submit(Join(Scan(r), Scan(s)), fault_plan=modes.get("fault_plan"))


def _spy(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


#: The backends a mode may dispatch to; the plain run reaches neither.
BACKENDS = {
    "join": ((sharded, "sharded_join"), (recovery, "resilient_join")),
    "group-by": ((sharded, "sharded_group_by"), (recovery, "resilient_group_by")),
}

#: The modes the public API shares with the executor.
API_MODES = sorted(mode for mode in ALLOWED if not mode.startswith("tiering"))


@pytest.mark.parametrize("kind", sorted(BACKENDS))
@pytest.mark.parametrize("mode", API_MODES)
def test_api_and_executor_share_one_dispatch(relations, monkeypatch, mode, kind):
    """``repro.join``/``repro.group_by`` and the executor reach the same
    backend and return the same output and simulated seconds."""
    r, s = relations
    modes = ALLOWED[mode]
    calls = []
    for owner, name in BACKENDS[kind]:
        _spy(monkeypatch, owner, name, calls)
    aggregates = [AggSpec("s1", "sum"), AggSpec("s1", "count")]
    if kind == "join":
        direct = repro.join(r, s, seed=SEED, **modes)
        plan = Join(Scan(r, "r"), Scan(s, "s"))
    else:
        direct = repro.group_by(s.column("s2"), {"s1": s.column("s1")},
                                aggregates, seed=SEED, **modes)
        plan = Aggregate(Scan(s, "s"), "s2", tuple(aggregates))
    direct_calls, calls[:] = list(calls), []
    executed = _executor(**modes).execute(plan)
    expected = {"plain": [], "shards": [0], "faults": [1], "shards+faults": [0]}
    assert direct_calls == calls == [BACKENDS[kind][i][1] for i in expected[mode]]
    assert executed.trace[-1].algorithm == direct.algorithm
    assert executed.trace[-1].seconds == direct.total_seconds
    _assert_bit_identical(executed.output, direct.output)


@pytest.mark.parametrize("modes,owner,names", [
    ({"shards": 2}, sharded, ("sharded_join", "sharded_group_by")),
    ({"fault_plan": FAULTS}, recovery, ("resilient_join", "resilient_group_by")),
    ({"tiering": True}, TieredRuntime, ("run_join", "run_group_by")),
], ids=["sharded", "resilient", "tiered"])
def test_backends_patched_after_construction_are_called(
    plans, monkeypatch, modes, owner, names
):
    # Tracers patch these names after a workload's executors exist; a
    # mode that captured them at construction would bypass the patch.
    executor = _executor(**modes)
    calls = []
    for name in names:
        _spy(monkeypatch, owner, name, calls)
    executor.execute(plans["join"])
    executor.execute(plans["aggregate"])
    assert calls == list(names)


def _fault_relations():
    return generate_join_workload(
        JoinWorkloadSpec(r_rows=4096, s_rows=8192, r_payload_columns=2,
                         s_payload_columns=2, seed=5)
    )


KERNEL_FAULTS = FaultPlan(seed=3, kernel_fault_rate=0.5)


@pytest.mark.parametrize("kind", ["join", "aggregate"])
def test_sharded_executor_injects_the_fault_plan(kind):
    r, s = _fault_relations()
    plan = Join(Scan(r), Scan(s), algorithm="PHJ-OM")
    if kind == "aggregate":
        plan = Aggregate(Scan(s), "s1", (AggSpec("s2", "sum"),))
    clean = QueryExecutor(seed=SEED, shards=2).execute(plan)
    session = TraceSession("sharded-faults")
    faulty = QueryExecutor(
        seed=SEED, shards=2, fault_plan=KERNEL_FAULTS
    ).execute(plan, trace=session)
    assert session.metrics.value("fault_kernel_retries") > 0
    assert faulty.total_seconds > clean.total_seconds
    _assert_bit_identical(faulty.output, clean.output)


def test_sharded_server_injects_the_fault_plan():
    r, s = _fault_relations()
    plan = Join(Scan(r), Scan(s), algorithm="PHJ-OM")
    clean = QueryExecutor(seed=SEED, shards=2).execute(plan)
    server = QueryServer(seed=SEED, shards=2, streams=1)
    server.submit(plan, fault_plan=KERNEL_FAULTS)
    (outcome,) = server.run()
    assert outcome.status == "completed"
    assert outcome.result.session.metrics.value("fault_kernel_retries") > 0
    _assert_bit_identical(outcome.output, clean.output)


def _assert_bit_identical(actual, expected):
    if isinstance(expected, Relation):
        actual, expected = actual.columns(), expected.columns()
    assert list(actual) == list(expected)
    for column, array in expected.items():
        np.testing.assert_array_equal(actual[column], array, err_msg=column)
