"""Caching: fingerprints, the dependent LRU, and no-stale-reads."""

import numpy as np
import pytest

from repro.query import execute
from repro.query.plan import Aggregate, Join, Scan
from repro.aggregation import AggSpec
from repro.relational.relation import Relation
from repro.serve import DependentLRU, QueryServer, plan_signature

from tests.serve.conftest import SERVE_SEED, assert_bit_identical, make_relation


# -- fingerprints -------------------------------------------------------------


def test_fingerprint_is_content_addressed():
    a = make_relation(64, seed=5, prefix="a")
    b = make_relation(64, seed=5, prefix="a")
    assert a.fingerprint == b.fingerprint


def test_fingerprint_sees_every_byte_and_the_schema():
    base = make_relation(64, seed=5, prefix="a")
    fingerprint = base.fingerprint
    columns = base.columns()
    changed = dict(columns)
    changed["a1"] = columns["a1"].copy()
    changed["a1"][17] += 1
    one_value = Relation(list(changed.items()), key=base.key)
    renamed = Relation(
        [("z" + n if n != base.key else n, col) for n, col in columns.items()],
        key=base.key,
    )
    recast = Relation(
        [(n, col.astype(np.int64) if n == "a2" else col)
         for n, col in columns.items()],
        key=base.key,
    )
    for other in (one_value, renamed, recast):
        assert other.fingerprint != fingerprint


def test_plan_signature_distinguishes_structure_and_algorithms(r, s):
    auto = plan_signature(Join(Scan(r), Scan(s)))
    forced = plan_signature(Join(Scan(r), Scan(s), algorithm="SMJ-OM"))
    flipped = plan_signature(Join(Scan(s), Scan(r)))
    agg = plan_signature(
        Aggregate(Join(Scan(r), Scan(s)), "r1", (AggSpec("s1", "sum"),))
    )
    assert len({auto, forced, flipped, agg}) == 4
    assert auto == plan_signature(Join(Scan(r), Scan(s)))
    assert auto[2] == ("scan", r.fingerprint)


# -- the dependent LRU --------------------------------------------------------


def test_lru_evicts_by_entry_count_in_recency_order():
    cache = DependentLRU(max_entries=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a").value == 1  # refreshes "a"
    cache.put("c", 3)
    assert "b" not in cache and "a" in cache and "c" in cache
    assert cache.evictions == 1


def test_lru_evicts_by_byte_budget():
    cache = DependentLRU(max_bytes=100)
    cache.put("a", 1, nbytes=60)
    cache.put("b", 2, nbytes=60)
    assert "a" not in cache
    assert cache.current_bytes == 60
    # A value larger than the whole budget is uncacheable, not admitted.
    assert cache.put("huge", 3, nbytes=101) is None
    assert "huge" not in cache


def test_lru_invalidation_tracks_dependencies():
    cache = DependentLRU()
    cache.put("rs", 1, deps=("r", "s"))
    cache.put("rt", 2, deps=("r", "t"))
    cache.put("t", 3, deps=("t",))
    assert cache.invalidate("t") == 2
    assert "rs" in cache and "rt" not in cache and "t" not in cache
    assert cache.invalidations == 2
    # The dependency index forgets removed entries: no double-counting.
    assert cache.invalidate("t") == 0
    assert cache.invalidate("r") == 1
    assert len(cache) == 0


def test_lru_put_refresh_replaces_bytes_and_deps():
    cache = DependentLRU(max_bytes=1000)
    cache.put("k", 1, deps=("r",), nbytes=100)
    cache.put("k", 2, deps=("s",), nbytes=40)
    assert cache.current_bytes == 40
    assert cache.invalidate("r") == 0
    assert cache.get("k").value == 2
    cache.clear()
    assert len(cache) == 0 and cache.current_bytes == 0


# -- the server's caches ------------------------------------------------------


def test_repeat_query_hits_the_result_cache(r, s):
    server = QueryServer(streams=2, seed=SERVE_SEED)
    server.register("r", r)
    server.register("s", s)
    plan = Join(Scan(r), Scan(s))
    first = server.query(plan)
    second = server.query(plan)
    assert not first.result_cache_hit and second.result_cache_hit
    assert second.solo_seconds < first.solo_seconds
    assert_bit_identical(second.output, first.output)
    assert server.metrics.value("serve.result_cache_hits") == 1.0


@pytest.mark.parametrize("tiering", [False, True])
@pytest.mark.parametrize("kind", ["join", "group-by"])
def test_a_result_cache_hit_cannot_be_poisoned(r, s, kind, tiering):
    # NPJ: a tiered join matches execute() row for row only under NPJ.
    plan = Join(Scan(r), Scan(s), algorithm="NPJ")
    if kind == "group-by":
        plan = Aggregate(Scan(s), "s2", (AggSpec("s1", "sum"),))
    server = QueryServer(streams=1, seed=SERVE_SEED, tiering=tiering)
    server.register("r", r)
    server.register("s", s)
    server.query(plan)
    hit = server.query(plan)
    assert hit.result_cache_hit
    output = hit.output
    columns = output.columns() if isinstance(output, Relation) else output
    name = list(columns)[1]
    with pytest.raises(ValueError, match="read-only"):
        columns[name][:] = -7
    if isinstance(output, dict):
        output[name] = np.full_like(output[name], -7)  # the caller's own dict
    again = server.query(plan)
    assert again.result_cache_hit
    assert_bit_identical(again.output, execute(plan, seed=SERVE_SEED).output)


def test_plan_cache_pins_algorithms_without_result_reuse(r, s):
    server = QueryServer(streams=2, seed=SERVE_SEED, enable_result_cache=False)
    plan = Join(Scan(r), Scan(s))
    first = server.query(plan)
    second = server.query(plan)
    assert not first.plan_cache_hit and second.plan_cache_hit
    assert not second.result_cache_hit
    assert_bit_identical(second.output, first.output)


def test_updating_a_relation_evicts_every_dependent_entry(r, s, t):
    server = QueryServer(streams=2, seed=SERVE_SEED)
    server.register("r", r)
    server.register("s", s)
    server.register("t", t)
    server.query(Join(Scan(r), Scan(s)), tag="rs")
    server.query(Join(Scan(r), Scan(t)), tag="rt")
    assert len(server.result_cache) == 2 and len(server.plan_cache) == 2
    invalidated = server.update("s", make_relation(256, seed=99, prefix="s", fanout=2))
    assert invalidated == 2  # the rs plan-cache and result-cache entries
    assert len(server.result_cache) == 1 and len(server.plan_cache) == 1
    assert server.metrics.value("serve.invalidated_entries") == 2.0
    # The surviving entries still serve the untouched template.
    assert server.query(Join(Scan(r), Scan(t))).result_cache_hit


def test_stale_reads_are_impossible_after_update(r, s):
    server = QueryServer(streams=2, seed=SERVE_SEED)
    server.register("r", r)
    server.register("s", s)
    old = server.query(Join(Scan(r), Scan(s)))
    s2 = make_relation(256, seed=77, prefix="s", fanout=2)
    server.update("s", s2)
    fresh = server.query(Join(Scan(server.relation("r")), Scan(s2)))
    assert not fresh.result_cache_hit and not fresh.plan_cache_hit
    assert_bit_identical(
        fresh.output, execute(Join(Scan(r), Scan(s2)), seed=SERVE_SEED).output
    )
    assert not np.array_equal(
        np.sort(fresh.output.columns()["s1"]),
        np.sort(old.output.columns()["s1"]),
    )


def test_catalog_misuse_raises(r):
    server = QueryServer(seed=SERVE_SEED)
    server.register("r", r)
    with pytest.raises(Exception, match="already registered"):
        server.register("r", r)
    with pytest.raises(Exception, match="not registered"):
        server.update("ghost", r)
    with pytest.raises(Exception, match="not registered"):
        server.relation("ghost")


def test_fault_injected_queries_never_populate_the_caches(r, s):
    # A faulted execution is only guaranteed equal up to row order, so
    # admitting its output would poison every later exact-match lookup.
    from repro.faults import FaultPlan

    storm = FaultPlan(seed=9, kernel_fault_rate=0.5)
    server = QueryServer(streams=1, seed=SERVE_SEED)
    plan = Join(Scan(r), Scan(s))
    server.submit(plan, fault_plan=storm)
    server.run()
    assert len(server.result_cache) == 0 and len(server.plan_cache) == 0
    # A later clean query misses (no stale faulted entry) and populates.
    clean = server.query(plan)
    assert not clean.result_cache_hit
    assert len(server.result_cache) == 1
    assert_bit_identical(clean.output, execute(plan, seed=SERVE_SEED).output)


def test_failed_queries_never_populate_the_result_cache(r, s):
    from repro.aggregation import AggSpec
    from repro.faults import FaultPlan
    from repro.query.plan import Aggregate

    plan = Aggregate(Join(Scan(r), Scan(s)), group_column="r1",
                     aggregates=(AggSpec("s1", "sum"),))
    server = QueryServer(streams=1, seed=SERVE_SEED)
    server.submit(plan, fault_plan=FaultPlan(seed=5, capacity_frac=1e-10))
    (outcome,) = server.run()
    assert outcome.status == "failed"
    assert len(server.result_cache) == 0


def test_verify_cache_inserts_oracle_accepts_clean_outputs(r, s):
    server = QueryServer(streams=1, seed=SERVE_SEED, verify_cache_inserts=True)
    plan = Join(Scan(r), Scan(s))
    first = server.query(plan)
    assert server.metrics.value("serve.cache_inserts_verified") == 1.0
    assert server.query(plan).result_cache_hit
    assert_bit_identical(first.output, execute(plan, seed=SERVE_SEED).output)


def test_verify_cache_inserts_env_var_enables_the_oracle(r, s, monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_VERIFY_CACHE", "1")
    server = QueryServer(streams=1, seed=SERVE_SEED)
    assert server.verify_cache_inserts
    server.query(Join(Scan(r), Scan(s)))
    assert server.metrics.value("serve.cache_inserts_verified") == 1.0
    monkeypatch.delenv("REPRO_SERVE_VERIFY_CACHE")
    assert not QueryServer(streams=1, seed=SERVE_SEED).verify_cache_inserts


def test_verify_cache_inserts_catches_a_poisoned_output(r, s, monkeypatch):
    # Sabotage the serving-side execution (it runs under a trace
    # session) while leaving the oracle's clean re-execution (no trace)
    # untouched: the guard must refuse the corrupted output.
    from repro.query.executor import QueryExecutor

    real_execute = QueryExecutor.execute

    def corrupting(self, plan, optimize=True, trace=None):
        result = real_execute(self, plan, optimize=optimize, trace=trace)
        if trace is not None and result.output is not None:
            columns = list(result.output.columns().items())
            name, column = columns[0]
            column = column.copy()
            column[0] += 1
            result.output = Relation(
                [(name, column)] + columns[1:], key=result.output.key
            )
        return result

    monkeypatch.setattr(
        "repro.query.executor.QueryExecutor.execute", corrupting
    )
    server = QueryServer(streams=1, seed=SERVE_SEED, verify_cache_inserts=True)
    plan = Join(Scan(r), Scan(s))
    server.submit(plan)
    with pytest.raises(AssertionError, match="cache poisoning"):
        server.run()
    # The guard fired before the poisoned entry landed, and the
    # unwinding path freed the admission reservation.
    assert len(server.result_cache) == 0
    assert server.memory.reserved_bytes == 0


def test_tiny_result_cache_evicts_but_stays_correct(r, s, t):
    baseline_rs = execute(Join(Scan(r), Scan(s)), seed=SERVE_SEED).output
    baseline_rt = execute(Join(Scan(r), Scan(t)), seed=SERVE_SEED).output
    server = QueryServer(
        streams=1, seed=SERVE_SEED, result_cache_bytes=baseline_rs.total_bytes + 1
    )
    for _ in range(2):
        assert_bit_identical(server.query(Join(Scan(r), Scan(s))).output, baseline_rs)
        assert_bit_identical(server.query(Join(Scan(r), Scan(t))).output, baseline_rt)
    assert server.result_cache.evictions > 0
