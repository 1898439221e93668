"""The tier keeps metadata, not data.

Resident segments are bytes-only reservations labelled ``tier:...`` in
the backing memory; no device array is ever allocated for them, and the
bytes the memory reserves for the tier are exactly the cache's
``resident_bytes`` after any tiered operator.
"""

import numpy as np
import pytest

from repro.aggregation.base import AggSpec
from repro.obs.session import TraceSession
from repro.query.executor import QueryExecutor
from repro.query.plan import Aggregate, Join, Scan
from repro.relational.relation import Relation
from repro.serve import QueryServer
from repro.tier import TieredRuntime

SEGMENT_ROWS = 512


def make_pair(seed: int = 3, n_r: int = 1500, n_s: int = 6000):
    rng = np.random.default_rng(seed)
    r = Relation(
        [
            ("key", rng.permutation(n_r).astype(np.int64)),
            ("rpay", rng.integers(0, 100, n_r).astype(np.int32)),
        ],
        key="key",
        name="R",
    )
    s = Relation(
        [
            ("key", rng.integers(0, n_r, n_s).astype(np.int64)),
            ("spay", rng.integers(0, 1000, n_s).astype(np.int64)),
        ],
        key="key",
        name="S",
    )
    return r, s


def plans(r, s):
    group = Aggregate(
        Scan(s, "S"), group_column="key",
        aggregates=(AggSpec("spay", "sum"), AggSpec("key", "count")),
    )
    return [Join(Scan(r, "R"), Scan(s, "S"), algorithm="NPJ"), group]


def assert_tier_holds_only_reservations(memory, cache, other_reservations=0):
    assert memory.alloc_count == 0  # no DeviceArray was ever made
    assert memory.reserved_bytes - other_reservations == cache.resident_bytes
    tier_labels = [label for label in memory.live_labels if label.startswith("tier:")]
    assert tier_labels == sorted(
        f"tier:{key.describe()}" for key in cache.resident_keys()
    )
    cache.assert_consistent()


@pytest.mark.parametrize("capacity", [None, 60_000], ids=["roomy", "evicting"])
def test_private_memory_holds_reservations_only(capacity):
    r, s = make_pair()
    runtime = TieredRuntime(segment_rows=SEGMENT_ROWS, capacity_bytes=capacity)
    executor = QueryExecutor(tiering=runtime)
    for _ in range(3):
        for plan in plans(r, s):
            executor.execute(plan)
            assert_tier_holds_only_reservations(runtime.memory, runtime.cache)
    assert runtime.cache.resident_bytes > 0
    assert runtime.memory.current_bytes == runtime.cache.resident_bytes
    if capacity is not None:
        assert runtime.cache.evictions > 0


def test_server_memory_holds_tier_reservations_beside_queries():
    r, s = make_pair()
    server = QueryServer(streams=1, seed=0, tiering=True, enable_result_cache=False)
    server.register("R", r)
    server.register("S", s)
    for _ in range(3):
        for plan in plans(r, s):
            server.submit(plan, at_s=0.0)
    outcomes = server.run()
    assert all(o.status == "completed" for o in outcomes)
    memory, cache = server.memory, server.tiering.cache
    queries = sum(
        nbytes for label, nbytes in memory.live_allocations()
        if label.startswith("query-")
    )
    assert cache.resident_bytes > 0
    assert_tier_holds_only_reservations(memory, cache, other_reservations=queries)
    server.update("S", make_pair(seed=4)[1])
    assert_tier_holds_only_reservations(memory, cache, other_reservations=queries)


@pytest.mark.parametrize("exact_room", [False, True])
def test_self_join_admits_each_range_once(exact_room):
    """A self-join names one relation twice; placement notes it once."""
    rng = np.random.default_rng(9)
    n = 20_000
    r = Relation(
        [
            ("key", rng.permutation(n).astype(np.int32)),
            ("pay", rng.integers(0, 9, n).astype(np.int32)),
        ],
        key="key",
        name="R",
    )
    runtime = TieredRuntime(capacity_bytes=r.total_bytes if exact_room else None)
    session = TraceSession()
    run = runtime.run_join(r, r, session=session)
    cache = runtime.cache
    assert cache.admitted_bytes == r.total_bytes
    assert run.extras["tier_admitted_bytes"] == cache.admitted_bytes
    assert session.metrics.value("tier.admitted_bytes") == cache.admitted_bytes
    assert session.metrics.value("tier.admissions") == cache.admissions
    assert session.metrics.value("tier.declined") == 0
    assert session.metrics.value("tier.evictions") == 0
    assert cache.evictions == 0
    assert_tier_holds_only_reservations(runtime.memory, cache)
