"""Serving-layer tiering interplay: popularity feed, admission demotion
(the one path by which cache bytes go back), cold-fork verification,
update invalidation."""

from dataclasses import replace

import pytest

from repro.errors import ServeConfigError
from repro.gpusim.device import A100
from repro.query.executor import execute
from repro.query.plan import Join, Scan
from repro.serve import QueryServer
from repro.serve.brownout import BrownoutPolicy
from repro.tier import TieredRuntime

from .conftest import assert_bit_identical, make_relation


@pytest.fixture
def plan(r, s):
    return Join(Scan(r, "r"), Scan(s, "s"), algorithm="NPJ")


def tiered_server(**kwargs) -> QueryServer:
    kwargs.setdefault("streams", 1)
    kwargs.setdefault("seed", 0)
    kwargs.setdefault("tiering", True)
    return QueryServer(**kwargs)


def test_tiering_true_builds_runtime_over_server_memory():
    server = tiered_server()
    assert isinstance(server.tiering, TieredRuntime)
    assert server.tiering.cache.memory is server.memory


def test_tiering_conflicts_with_shards():
    with pytest.raises(ServeConfigError, match="tiering"):
        QueryServer(tiering=True, shards=2)


def test_tiered_outcomes_bit_identical_and_cache_warms(plan, r, s):
    # Result caching off: repeats must actually re-execute to exercise
    # the warm segment cache.
    server = tiered_server(enable_result_cache=False)
    server.register("r", r)
    server.register("s", s)
    expected = execute(plan).output
    for _ in range(3):
        server.submit(plan, at_s=0.0)
    outcomes = server.run()
    assert all(o.status == "completed" for o in outcomes)
    for o in outcomes:
        assert_bit_identical(o.output, expected)
    assert server.tiering.cache.resident_bytes > 0
    assert server.tiering.cache.hits > 0  # repeats hit the warm cache


def test_warm_repeat_counts_tier_hits_in_its_trace(plan, r, s):
    server = tiered_server(enable_result_cache=False)
    server.register("r", r)
    server.register("s", s)
    for _ in range(3):
        server.submit(plan, at_s=0.0)
    first, _, last = server.run()
    cold = first.result.session.metrics
    warm = last.result.session.metrics
    assert cold.value("tier.hits") == 0 and cold.value("tier.misses") > 0
    assert warm.value("tier.hits") > 0 and warm.value("tier.misses") == 0


def test_submit_feeds_template_popularity(plan, r, s):
    server = tiered_server()
    server.register("r", r)
    server.register("s", s)
    policy = server.tiering.policy
    base_r = policy.popularity("r")
    for _ in range(5):
        server.submit(plan, at_s=0.0)
    assert policy.popularity("r") > base_r
    assert policy.popularity("s") > 1.0
    assert policy.popularity("never-scanned") == 1.0
    server.run()


def test_verify_cache_inserts_uses_cold_fork(plan, r, s):
    """The insert verifier re-executes on a cold tiering fork — tiered
    result caching stays oracle-checked without touching the warm cache."""
    server = tiered_server(verify_cache_inserts=True)
    server.register("r", r)
    server.register("s", s)
    server.submit(plan, at_s=0.0)
    server.submit(plan, at_s=0.0)
    outcomes = server.run()
    assert all(o.status == "completed" for o in outcomes)
    assert server.metrics.value("serve.result_cache_hits") >= 1.0


def test_update_invalidates_resident_segments(plan, r, s):
    server = tiered_server()
    server.register("r", r)
    server.register("s", s)
    server.submit(plan, at_s=0.0)
    server.run()
    cache = server.tiering.cache
    assert any(k.relation == "r" for k in cache.resident_keys())
    r2 = make_relation(256, seed=44, prefix="r")  # new version of "r"
    server.update("r", r2)
    assert not any(k.relation == "r" for k in cache.resident_keys())
    assert server.metrics.value("serve.tier_invalidated_bytes") > 0
    # the superseded version's placement history is gone too
    assert server.tiering.policy.popularity("r") == 1.0

    # post-update queries re-warm from the new version, still correct
    plan2 = Join(Scan(r2, "r"), Scan(s, "s"), algorithm="NPJ")
    server.submit(plan2)
    outcomes = server.run()
    assert outcomes[-1].status == "completed"
    assert_bit_identical(outcomes[-1].output, execute(plan2).output)


def test_admission_demotes_cache_instead_of_blocking(plan, r, s):
    """When the tier cache shares server memory, admission reservations
    reclaim cached bytes rather than waiting (or rejecting).

    A small query warms the cache, then a *bigger* query arrives whose
    reservation cannot fit beside the warm segments — the cache gives
    bytes back and the query completes instead of blocking."""
    s_big = make_relation(256, seed=55, prefix="t", fanout=3)
    plan_big = Join(Scan(r, "r"), Scan(s_big, "t"), algorithm="NPJ")
    tiny = replace(A100, global_mem_bytes=40_000)
    server = tiered_server(device=tiny, enable_result_cache=False)
    server.register("r", r)
    server.register("s", s)
    server.register("t", s_big)
    server.submit(plan, at_s=0.0)
    outcomes = server.run()
    warm = server.tiering.cache.resident_bytes
    assert warm == r.total_bytes + s.total_bytes  # fully warm
    server.submit(plan_big)
    outcomes += server.run()
    assert all(o.status == "completed" for o in outcomes)
    assert server.metrics.value("serve.tier_admission_demoted_bytes") > 0
    assert server.tiering.cache.resident_bytes < warm


def test_brownout_load_completes_through_admission_demotion(plan, r, s):
    """A warm cache, then a burst on a queue of two that keeps brownout
    escalating (``degrade_enter`` 0.2).  On a device too small for the
    big template beside the warm segments, admission is what gives cache
    bytes back, and every query completes."""
    s_big = make_relation(256, seed=55, prefix="t", fanout=3)
    plan_big = Join(Scan(r, "r"), Scan(s_big, "t"), algorithm="NPJ")
    tiny = replace(A100, global_mem_bytes=40_000)
    server = tiered_server(
        device=tiny,
        queue_depth=2,
        brownout=BrownoutPolicy(degrade_enter=0.2, degrade_exit=0.1),
    )
    server.register("r", r)
    server.register("s", s)
    server.register("t", s_big)
    server.submit(plan, at_s=0.0)
    for i in range(8):
        server.submit(plan_big if i % 2 == 0 else plan, at_s=0.5 + i * 0.001)
    outcomes = server.run()
    assert [o.status for o in outcomes] == ["completed"] * 9
    assert server.metrics.value("serve.brownout_transitions") >= 1.0
    demoted = server.tiering.cache.demoted_bytes
    assert demoted > 0
    assert server.metrics.value("serve.tier_admission_demoted_bytes") == demoted
