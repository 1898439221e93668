"""Brownout load-shedding: the controller state machine and its effect
on serving (degraded execution, door shedding, hysteretic recovery), and
the pressure it reads from a server (busy streams are not overload, and
a tiered server's resident segments are reclaimable, so neither counts)."""

from dataclasses import replace

import pytest

from repro.errors import ServeConfigError
from repro.gpusim.device import A100
from repro.obs import TraceSession
from repro.query import execute
from repro.query.plan import Join, Scan
from repro.serve import (
    DEGRADED,
    NORMAL,
    SHED,
    BrownoutController,
    BrownoutPolicy,
    QueryServer,
)

from tests.serve.conftest import SERVE_SEED, assert_bit_identical, make_relation


@pytest.fixture
def plan(r, s):
    return Join(Scan(r), Scan(s))


# -- the controller in isolation ---------------------------------------------


def test_policy_validation():
    with pytest.raises(ServeConfigError):
        BrownoutPolicy(degrade_enter=0.5, degrade_exit=0.6)  # exit > enter
    with pytest.raises(ServeConfigError):
        BrownoutPolicy(shed_enter=0.5, degrade_enter=0.7)  # shed below degrade
    with pytest.raises(ServeConfigError):
        BrownoutPolicy(shed_fraction=1.5)


def test_pressure_is_the_max_of_queue_and_memory():
    for queue_frac, memory_frac in ((0.75, 0.2), (0.2, 0.75)):
        ctl = BrownoutController()
        ctl.update(0.0, queue_frac=queue_frac, memory_frac=memory_frac)
        assert ctl.pressure == 0.75
        assert ctl.level == DEGRADED  # default degrade_enter=0.70


def test_busy_streams_with_an_empty_queue_and_low_memory_stay_normal():
    """Every stream busy is the device doing its job, not overload: with
    nothing queued and little memory held there is no pressure."""
    ctl = BrownoutController()
    for t in range(4):
        assert ctl.update(float(t), queue_frac=0.0, memory_frac=0.1) == NORMAL
    assert ctl.pressure == 0.1
    assert ctl.transitions == []


def test_escalation_is_immediate_recovery_is_stepped():
    ctl = BrownoutController(
        BrownoutPolicy(degrade_enter=0.6, degrade_exit=0.3,
                       shed_enter=0.9, shed_exit=0.5)
    )
    # NORMAL -> SHED in a single update: no intermediate dwell.
    assert ctl.update(0.0, 0.95, 0.0) == SHED
    # Recovery steps down one level at a time through the exits.
    assert ctl.update(1.0, 0.45, 0.0) == DEGRADED  # <= shed_exit
    assert ctl.update(2.0, 0.45, 0.0) == DEGRADED  # holds: > degrade_exit
    assert ctl.update(3.0, 0.2, 0.0) == NORMAL
    # A deep collapse while shedding skips straight to NORMAL.
    ctl.update(4.0, 0.95, 0.0)
    assert ctl.update(5.0, 0.1, 0.0) == NORMAL


def test_shed_steps_down_once_pressure_is_at_shed_exit():
    # shed_exit (0.7) lies above degrade_enter (0.6): pressure inside
    # [degrade_enter, shed_exit] has left SHED's band but not DEGRADED's.
    ctl = BrownoutController(
        BrownoutPolicy(degrade_enter=0.6, degrade_exit=0.3,
                       shed_enter=0.9, shed_exit=0.7)
    )
    assert ctl.update(0.0, 0.95, 0.0) == SHED
    assert ctl.update(1.0, 0.8, 0.0) == SHED  # still above shed_exit
    assert ctl.update(2.0, 0.65, 0.0) == DEGRADED
    assert ctl.update(3.0, 0.65, 0.0) == DEGRADED
    assert ctl.update(4.0, 0.5, 0.0) == DEGRADED  # > degrade_exit
    assert ctl.update(5.0, 0.7, 0.0) == DEGRADED  # below shed_enter


def test_hysteresis_band_holds_the_level():
    ctl = BrownoutController(
        BrownoutPolicy(degrade_enter=0.6, degrade_exit=0.3)
    )
    ctl.update(0.0, 0.7, 0.0)
    # Pressure falls below the enter threshold but stays above the exit:
    # the level must not flap back to NORMAL.
    assert ctl.update(1.0, 0.5, 0.0) == DEGRADED
    assert ctl.update(2.0, 0.35, 0.0) == DEGRADED
    assert ctl.update(3.0, 0.3, 0.0) == NORMAL


def test_transitions_and_time_in_level_are_recorded():
    ctl = BrownoutController(
        BrownoutPolicy(degrade_enter=0.6, degrade_exit=0.3)
    )
    ctl.update(0.0, 0.7, 0.0)
    ctl.update(10.0, 0.1, 0.0)
    assert [(t.from_level, t.to_level) for t in ctl.transitions] == [
        (NORMAL, DEGRADED), (DEGRADED, NORMAL)
    ]
    assert ctl.transitions[0].describe()
    assert ctl.level_seconds[DEGRADED] == pytest.approx(10.0)
    assert ctl.level_name == "normal"
    assert not ctl.degraded and not ctl.shedding


# -- the server under pressure ------------------------------------------------


def test_degraded_admission_disables_fusion_but_stays_bit_identical(plan):
    baseline = execute(plan, seed=SERVE_SEED).output
    server = QueryServer(
        streams=2,
        seed=SERVE_SEED,
        queue_depth=8,
        enable_result_cache=False,
        # Any queued query pushes queue_frac past the enter threshold.
        brownout=BrownoutPolicy(degrade_enter=0.1, degrade_exit=0.05,
                                shed_enter=0.95, shed_exit=0.5),
    )
    for _ in range(6):
        server.submit(plan, at_s=0.0)
    outcomes = server.run()
    assert all(o.status == "completed" for o in outcomes)
    degraded = [o for o in outcomes if o.brownout_degraded]
    assert degraded  # some queries were admitted under brownout
    for o in outcomes:
        assert_bit_identical(o.output, baseline)
    assert server.metrics.value("serve.brownout_degraded_queries") == len(
        degraded
    )
    # Load has drained: the controller recovered to NORMAL.
    assert server.brownout.level == NORMAL
    assert server.metrics.value("serve.brownout_transitions") >= 2


def test_shedding_drops_low_priority_queued_and_door_rejects(plan):
    server = QueryServer(
        streams=1,
        seed=SERVE_SEED,
        queue_depth=4,
        enable_result_cache=False,
        brownout=BrownoutPolicy(degrade_enter=0.2, degrade_exit=0.1,
                                shed_enter=0.5, shed_exit=0.3,
                                shed_fraction=0.5, shed_priority_max=0),
    )
    # Flood at one instant; the high-priority query must survive the shed.
    vip = server.submit(plan, at_s=0.0, priority=5)
    ids = [server.submit(plan, at_s=0.0) for _ in range(5)]
    outcomes = {o.query_id: o for o in server.run()}
    shed = [
        i for i in ids
        if outcomes[i].status == "rejected"
        and outcomes[i].error.reason == "brownout-shed"
    ]
    assert shed
    assert outcomes[vip].status == "completed"
    assert server.metrics.value("serve.brownout_shed_queued") >= 1
    assert server.brownout.level == NORMAL  # recovered after the drain
    assert server.memory.reserved_bytes == 0


def test_cache_population_is_suspended_while_degraded(plan):
    server = QueryServer(
        streams=2,
        seed=SERVE_SEED,
        queue_depth=8,
        # A 6-query flood exceeds these; a lone query stays below them.
        brownout=BrownoutPolicy(degrade_enter=0.6, degrade_exit=0.3,
                                shed_enter=0.95, shed_exit=0.65),
    )
    for _ in range(6):
        server.submit(plan, at_s=0.0)
    outcomes = server.run()
    degraded = [o for o in outcomes if o.brownout_degraded]
    assert degraded
    # Degraded admissions never populated the result cache, so at most
    # the non-degraded admissions' single entry exists.
    assert len(server.result_cache) <= 1
    # After recovery a fresh query populates again.
    assert server.brownout.level == NORMAL
    server.submit(plan)
    server.run()
    post = server.outcomes[-1]
    assert not post.brownout_degraded
    assert len(server.result_cache) == 1
    assert server.query(plan).result_cache_hit


def test_brownout_true_uses_the_default_policy(plan):
    server = QueryServer(streams=2, seed=SERVE_SEED, brownout=True)
    assert isinstance(server.brownout, BrownoutController)
    server.submit(plan)
    assert server.run()[0].status == "completed"


def test_one_stream_server_under_light_load_stays_normal(plan):
    """One running query keeps the only stream busy; that is not
    pressure.  Each round's second query queues behind the first, which
    reads queue_frac = 1/64: far below every threshold."""
    server = QueryServer(
        streams=1, seed=SERVE_SEED, brownout=True, enable_result_cache=False
    )
    for k in range(8):
        server.submit(plan, at_s=k * 1e-3)
        server.submit(plan, at_s=k * 1e-3 + 1e-9)
    outcomes = server.run()
    assert [o.status for o in outcomes] == ["completed"] * 16
    assert server.brownout.transitions == []
    assert server.metrics.value("serve.rejected_brownout_shed") == 0


def test_no_brownout_by_default(plan):
    server = QueryServer(streams=1, seed=SERVE_SEED)
    assert server.brownout is None


# -- pressure on a tiered server ----------------------------------------------


def tiered_pairs(count: int = 8):
    """*count* registrable join pairs and the bytes one pair scans."""
    pairs = [
        (make_relation(256, seed=100 + i, prefix="r"),
         make_relation(256, seed=200 + i, prefix="s", fanout=2))
        for i in range(count)
    ]
    return pairs, pairs[0][0].total_bytes + pairs[0][1].total_bytes


def tiered_server(pairs, capacity: int, **kwargs):
    """A tiered, brownout-enabled server with one NPJ plan per pair."""
    kwargs.setdefault("seed", SERVE_SEED)
    kwargs.setdefault("brownout", True)
    server = QueryServer(
        device=replace(A100, global_mem_bytes=capacity),
        tiering=True,
        enable_result_cache=False,
        **kwargs,
    )
    plans = []
    for i, (r, s) in enumerate(pairs):
        server.register(f"r{i}", r)
        server.register(f"s{i}", s)
        plans.append(Join(Scan(r, f"r{i}"), Scan(s, f"s{i}"), algorithm="NPJ"))
    return server, plans


def test_warm_tier_under_light_load_stays_normal_and_keeps_its_segments():
    """Resident segments are reclaimable, so they are not pressure.

    One query reserves a quarter of the device and the tier fills half
    of it: counting the tier, two overlapping queries would read 0.75
    and cross ``degrade_enter`` (0.70), and the server would degrade and
    demote because of its own cache."""
    pairs, pair_bytes = tiered_pairs()
    capacity = 12 * pair_bytes
    server, plans = tiered_server(pairs, capacity)
    assert server.estimate_bytes(plans[0]) == capacity // 4
    for k in range(32):
        server.submit(plans[k % 8], at_s=k * 1e-3)
        server.submit(plans[(k + 1) % 8], at_s=k * 1e-3 + 1e-9)
    outcomes = server.run()
    assert all(o.status == "completed" for o in outcomes)
    assert not any(o.brownout_degraded for o in outcomes)
    assert server.brownout.transitions == []
    cache = server.tiering.cache
    assert cache.demotions == 0
    assert cache.resident_bytes >= 0.45 * capacity


@pytest.mark.parametrize("source", ["memory", "queue"])
def test_real_pressure_on_a_warm_tier_still_escalates_and_sheds(source):
    pairs, pair_bytes = tiered_pairs(2)
    capacity = 12 * pair_bytes
    session = TraceSession("brownout")
    server, plans = tiered_server(
        pairs, capacity, streams=1, queue_depth=2, session=session
    )
    server.query(plans[0])  # warm the tier
    assert server.tiering.cache.resident_bytes > 0
    if source == "memory":
        # Bytes no admission can reclaim, above shed_enter (0.90).
        hog = server.memory.reserve(int(0.91 * capacity), label="hog")
        ids = [server.submit(plans[1])]
    else:
        ids = [server.submit(plans[1]) for _ in range(6)]
    outcomes = {o.query_id: o for o in server.run()}
    assert any(
        outcomes[i].status == "rejected"
        and outcomes[i].error.reason == "brownout-shed"
        for i in ids
    )
    (_, span), *_ = session.spans("brownout")
    assert span.name == "brownout:normal->shed"
    assert span.args["pressure"] == max(
        span.args[k] for k in ("queue_frac", "memory_frac")
    )
    if source == "queue":
        assert span.args["queue_frac"] > 1.0
        return
    # The hog counts; the warm tier's resident segments do not.
    assert span.args["memory_frac"] == hog.nbytes / capacity
    assert span.args["pressure"] == span.args["memory_frac"]
    # Once the bytes are freed the next tick recovers; a priority above
    # shed_priority_max gets past the door to trigger it.
    hog.free()
    server.submit(plans[1], priority=1)
    assert server.run()[-1].status == "completed"
    assert server.brownout.level == NORMAL
