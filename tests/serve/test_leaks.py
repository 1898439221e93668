"""Leak invariants: every exit path returns every byte.

Each test drives one outcome type (completed, rejected, cancelled
while queued / executing / on-stream, failed, server-closed) and then
asserts the same postcondition: zero reserved bytes, zero live
allocation bytes, balanced reserve/release counts, and zeroed
per-tenant accounting.  This is the regression net for the exit-path
audit — an unwound query must be indistinguishable from one that never
ran, resource-wise.
"""

import gc
import weakref
from dataclasses import replace

import pytest

from repro.faults import FaultPlan
from repro.gpusim.device import A100
from repro.query import execute
from repro.query.plan import Join, Scan
from repro.serve import QueryServer, TenantQuota

from tests.serve.conftest import SERVE_SEED, make_relation


@pytest.fixture
def plan(r, s):
    return Join(Scan(r), Scan(s))


def assert_no_leaks(server):
    assert server.memory.reserved_bytes == 0
    assert server.memory.current_bytes == 0
    assert server.memory.reserve_count == server.memory.release_count
    assert not server._inflight
    for tenant, state in server.tenants.items():
        assert state.inflight == 0, tenant
        assert state.reserved_bytes == 0, tenant
        assert state.queued == 0, tenant


def test_completed_queries_release_everything(plan):
    server = QueryServer(streams=2, seed=SERVE_SEED)
    for _ in range(3):
        server.submit(plan, at_s=0.0)
    assert all(o.status == "completed" for o in server.run())
    assert_no_leaks(server)


def test_rejected_queries_never_reserve(plan):
    server = QueryServer(streams=1, queue_depth=1, seed=SERVE_SEED)
    for _ in range(5):
        server.submit(plan, at_s=0.0)
    outcomes = server.run()
    assert any(o.status == "rejected" for o in outcomes)
    assert_no_leaks(server)
    # Rejections took no reservation at all: only the served queries did.
    served = sum(1 for o in outcomes if o.status == "completed")
    assert server.memory.reserve_count == served


def test_cancelled_while_executing_releases_the_reservation(plan):
    server = QueryServer(streams=2, seed=SERVE_SEED)
    server.submit(plan, deadline_s=1e-9)
    (outcome,) = server.run()
    assert outcome.status == "cancelled"
    assert_no_leaks(server)


def test_cancelled_on_the_stream_releases_the_reservation(plan, r, s):
    solo = execute(plan, seed=SERVE_SEED).total_seconds
    server = QueryServer(
        streams=2, seed=SERVE_SEED, enable_result_cache=False, interference=1.0
    )
    server.submit(plan, at_s=0.0, deadline_s=solo * 1.2)
    server.submit(plan, at_s=0.0, deadline_s=solo * 1.2)
    outcomes = server.run()
    assert any(
        o.status == "cancelled" and o.error.reason == "deadline-stream"
        for o in outcomes
    )
    assert_no_leaks(server)


def test_cancelled_while_queued_never_reserves(plan):
    solo = execute(plan, seed=SERVE_SEED).total_seconds
    server = QueryServer(streams=1, seed=SERVE_SEED, enable_result_cache=False)
    server.submit(plan, at_s=0.0)
    server.submit(plan, at_s=0.0, deadline_s=solo / 100)
    outcomes = server.run()
    assert any(o.error and o.error.reason == "deadline-queued" for o in outcomes)
    assert_no_leaks(server)
    assert server.memory.reserve_count == 1  # only the query that ran


def test_failed_queries_release_the_reservation(r, s):
    # A capacity squeeze so deep even block-staged out-of-core execution
    # cannot fit: the ladder exhausts, the serving layer converts the
    # raise to a "failed" outcome, and the reservation still comes back.
    from repro.aggregation import AggSpec
    from repro.query.plan import Aggregate

    plan = Aggregate(Join(Scan(r), Scan(s)), group_column="r1",
                     aggregates=(AggSpec("s1", "sum"),))
    hopeless = FaultPlan(seed=5, capacity_frac=1e-10)
    server = QueryServer(streams=2, seed=SERVE_SEED)
    server.submit(plan, fault_plan=hopeless)
    (outcome,) = server.run()
    assert outcome.status == "failed"
    assert outcome.error is not None and outcome.output is None
    assert server.metrics.value("serve.failed_executing") == 1.0
    assert_no_leaks(server)


def test_close_with_cancel_queued_drains_without_leaks(plan):
    solo = execute(plan, seed=SERVE_SEED).total_seconds
    server = QueryServer(streams=1, seed=SERVE_SEED, enable_result_cache=False)
    running = server.submit(plan, at_s=0.0)
    queued = [server.submit(plan, at_s=0.0) for _ in range(2)]
    future = server.submit(plan, at_s=1e6)
    # Park mid-service: the first query is on the stream, the rest wait.
    server.run(until_s=solo / 2)
    server.close(cancel_queued=True)
    outcomes = {o.query_id: o for o in server.run()}
    assert outcomes[running].status == "completed"
    for i in queued + [future]:
        assert outcomes[i].status == "cancelled"
        assert outcomes[i].error.reason == "server-closed"
    assert_no_leaks(server)


def test_quota_deferral_holds_no_memory(plan):
    server = QueryServer(
        streams=4,
        seed=SERVE_SEED,
        enable_result_cache=False,
        tenants={"capped": TenantQuota(max_concurrent=1)},
    )
    for _ in range(4):
        server.submit(plan, at_s=0.0, tenant="capped")
    server.run()
    assert_no_leaks(server)


def test_memory_blocked_admission_reserves_nothing_while_waiting(plan, r, s):
    estimate = int((r.total_bytes + s.total_bytes) * 3.0)
    device = replace(A100, global_mem_bytes=int(estimate * 1.5))
    server = QueryServer(
        streams=2, queue_depth=4, device=device, seed=SERVE_SEED,
        enable_result_cache=False,
    )
    for _ in range(3):
        server.submit(plan, at_s=0.0)
    outcomes = server.run()
    assert all(o.status == "completed" for o in outcomes)
    assert_no_leaks(server)


def test_update_releases_the_replaced_relations_memo(s):
    # A relation's fingerprint lives on the relation, so nothing the
    # server keeps after update() may pin the replaced version's arrays
    # in host memory for the server's whole lifetime.
    server = QueryServer(streams=1, seed=SERVE_SEED)
    old = make_relation(256, seed=45, prefix="r")
    server.register("r", old)
    server.register("s", s)
    server.query(Join(Scan(old), Scan(s)))
    replaced = weakref.ref(old)
    server.update("r", make_relation(256, seed=44, prefix="r"))
    del old
    gc.collect()
    assert replaced() is None


def test_an_unregistered_scan_is_released_after_its_query(s):
    # Neither cache may keep an ad hoc relation alive after its query:
    # the plan cache keeps resolved algorithm names, not plan trees.
    for plan_cache in (False, True):
        server = QueryServer(streams=1, seed=SERVE_SEED, enable_plan_cache=plan_cache)
        server.register("s", s)
        refs = []
        for seed in range(3):
            adhoc = make_relation(256, seed=100 + seed, prefix="d")
            refs.append(weakref.ref(adhoc))
            server.query(Join(Scan(adhoc), Scan(s)))
            del adhoc
        gc.collect()
        assert [ref() for ref in refs] == [None, None, None], plan_cache
        assert len(server.result_cache) == 3
        assert len(server.plan_cache) == (3 if plan_cache else 0)
