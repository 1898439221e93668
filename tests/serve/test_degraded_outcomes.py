"""A served query is degraded exactly when one of its operators degraded.

Running under a fault plan is not degrading: a query whose operators
all ran their first-choice algorithm reports ``degraded == False`` and
is not counted in ``serve.degraded_queries``, however active the plan.
"""

import pytest

from repro.aggregation import AggSpec
from repro.faults import FaultPlan
from repro.query.plan import Aggregate, Join, Scan
from repro.serve import QueryServer

from tests.serve.conftest import SERVE_SEED


def _plans(r, s):
    return {
        "join": Join(Scan(r), Scan(s), algorithm="PHJ-OM"),
        "aggregate": Aggregate(Scan(s), "s1", (AggSpec("s2", "sum"),)),
    }


@pytest.mark.parametrize("kind", ["join", "aggregate"])
@pytest.mark.parametrize(
    "fault_plan",
    [FaultPlan(seed=2, kernel_fault_rate=0.001), FaultPlan(seed=2, capacity_frac=1.0)],
    ids=["kernel-faults", "full-capacity"],
)
def test_clean_query_under_an_active_plan_is_not_degraded(r, s, kind, fault_plan):
    server = QueryServer(streams=2, seed=SERVE_SEED)
    outcome = server.query(_plans(r, s)[kind], fault_plan=fault_plan)
    assert outcome.status == "completed"
    assert outcome.result.trace[-1].extras["degraded"] == 0.0
    assert not outcome.degraded
    assert server.metrics.value("serve.degraded_queries") == 0


@pytest.mark.parametrize("kind", ["join", "aggregate"])
def test_query_degraded_by_capacity_pressure_is_degraded(r, s, kind):
    server = QueryServer(streams=2, seed=SERVE_SEED)
    outcome = server.query(
        _plans(r, s)[kind], fault_plan=FaultPlan(seed=2, capacity_frac=1e-7)
    )
    assert outcome.status == "completed"
    assert outcome.result.trace[-1].extras["degraded"] == 1.0
    assert outcome.degraded
    assert server.metrics.value("serve.degraded_queries") == 1
