"""The tiering oracle: tier-split execution is bit-identical to execute().

Every placement — all-hot, all-cold, mixed, evicting mid-run, and under
fault-injected capacity pressure — must produce output *exactly* equal
(values, dtypes, row order) to the plain single-device ``execute()``.
Joins are compared against NPJ-pinned plans (the algorithm that emits
reference s-major order) and ``equals_unordered`` against the other
algorithms; aggregates are compared exactly (dict of arrays).
"""

import numpy as np
import pytest

from repro.aggregation.base import AggSpec
from repro.errors import JoinConfigError
from repro.faults import FaultPlan
from repro.query.executor import QueryExecutor, execute
from repro.query.plan import Aggregate, Join, Scan
from repro.relational.relation import Relation
from repro.tier import TieredRuntime

SEGMENT_ROWS = 1024


@pytest.fixture
def relations(rng):
    n_r, n_s = 3000, 30000
    r = Relation(
        [
            ("key", np.arange(n_r, dtype=np.int64)),
            ("rpay", rng.integers(0, 100, n_r).astype(np.int64)),
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


def join_plan(r, s, algorithm="NPJ"):
    return Join(Scan(r, "R"), Scan(s, "S"), algorithm=algorithm)


def assert_exact(tiered: Relation, plain: Relation):
    assert tiered.column_names == plain.column_names
    for name in plain.column_names:
        a, b = tiered.column(name), plain.column(name)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def runtime(capacity: int) -> TieredRuntime:
    return TieredRuntime(capacity_bytes=capacity, segment_rows=SEGMENT_ROWS)


@pytest.mark.parametrize(
    "capacity,kind",
    [(0, "all-cold"), (1 << 30, "all-hot"), (120_000, "mixed")],
)
def test_join_bit_identical_across_placements(relations, capacity, kind):
    r, s = relations
    plain = execute(join_plan(r, s)).output
    ex = QueryExecutor(tiering=runtime(capacity))
    result = None
    for _ in range(3):  # warm the cache; every repetition must agree
        result = ex.execute(join_plan(r, s))
    assert_exact(result.output, plain)
    tier_ops = [t for t in result.trace if t.algorithm == "TIER"]
    assert len(tier_ops) == 1
    hot, cold = result.output, None  # silence lint on unused
    if kind == "all-cold":
        assert ex.tiering.cache.resident_bytes == 0
        assert "hot:0" in tier_ops[0].description
    elif kind == "all-hot":
        assert "cold:0" in tier_ops[0].description
    else:
        assert ex.tiering.cache.resident_bytes <= 120_000
        assert "hot:0" not in tier_ops[0].description
        assert "cold:0" not in tier_ops[0].description
    ex.tiering.cache.assert_consistent()


def test_join_matches_every_real_algorithm_unordered(relations):
    r, s = relations
    ex = QueryExecutor(tiering=runtime(1 << 30))
    tiered = ex.execute(join_plan(r, s)).output
    for algorithm in ("PHJ-OM", "SMJ-OM", "CPU"):
        other = execute(join_plan(r, s, algorithm)).output
        assert tiered.equals_unordered(other)


def test_aggregate_bit_identical_across_placements(relations):
    _, s = relations
    specs = (
        AggSpec("key", "count"),
        AggSpec("spay", "sum"),
        AggSpec("spay", "mean"),
        AggSpec("spay", "min"),
        AggSpec("spay", "max"),
    )
    plan = Aggregate(Scan(s, "S"), group_column="key", aggregates=specs)
    plain = execute(plan).output
    for capacity in (0, 1 << 30, 100_000):
        ex = QueryExecutor(tiering=runtime(capacity))
        for _ in range(3):
            tiered = ex.execute(plan).output
        assert list(tiered.keys()) == list(plain.keys())
        for name in plain:
            assert tiered[name].dtype == plain[name].dtype
            np.testing.assert_array_equal(tiered[name], plain[name])


def test_eviction_churn_mid_query_stays_bit_identical(rng):
    """Capacity fits only a sliver of the working set: every query's
    placement pass admits and evicts under its feet.  Outputs must stay
    exact and the accounting must never drift."""
    n_r, n_s = 2000, 20000
    rels = []
    for name in ("A", "B", "C"):
        keys = rng.integers(0, n_r, n_s).astype(np.int64)
        rels.append(
            Relation(
                [("key", keys), ("pay", rng.integers(0, 50, n_s).astype(np.int64))],
                key="key",
                name=name,
            )
        )
    r = Relation(
        [
            ("key", np.arange(n_r, dtype=np.int64)),
            ("rpay", np.arange(n_r, dtype=np.int64)),
        ],
        key="key",
        name="R",
    )
    rt = TieredRuntime(capacity_bytes=60_000, segment_rows=SEGMENT_ROWS)
    ex = QueryExecutor(tiering=rt)
    for _ in range(3):
        for s in rels:
            plan = join_plan(r, s)
            assert_exact(ex.execute(plan).output, execute(plan).output)
            rt.cache.assert_consistent()
            assert rt.cache.resident_bytes <= 60_000
    assert rt.cache.evictions + rt.cache.declined > 0  # churn really happened


def test_capacity_pressure_degrades_gracefully(relations):
    """fault_plan.capacity_frac shrinks the segment cache instead of
    OOM-failing: the warm cache demotes, queries keep completing
    bit-identically with more cold (CPU-tier) work."""
    r, s = relations
    plain = execute(join_plan(r, s)).output
    rt = runtime(1_000_000)  # working set (~528 KB) fits comfortably
    ex = QueryExecutor(tiering=rt)
    ex.execute(join_plan(r, s))  # warm: everything resident
    warm_bytes = rt.cache.resident_bytes
    assert warm_bytes > 0

    pressured = QueryExecutor(
        tiering=rt, fault_plan=FaultPlan(seed=2, capacity_frac=0.1)
    )
    result = pressured.execute(join_plan(r, s))
    assert_exact(result.output, plain)
    assert rt.cache.resident_bytes <= int(rt.capacity_bytes * 0.1)
    assert rt.cache.resident_bytes < warm_bytes
    assert rt.cache.pressure_demotions >= 1
    rt.cache.assert_consistent()

    # pressure lifts when a fault-free executor runs again
    recovered = QueryExecutor(tiering=rt)
    for _ in range(3):
        result = recovered.execute(join_plan(r, s))
    assert_exact(result.output, plain)
    assert rt.cache.resident_bytes > int(rt.capacity_bytes * 0.1)


def test_kernel_faults_retry_inside_tier_contexts(relations):
    r, s = relations
    plain = execute(join_plan(r, s)).output
    ex = QueryExecutor(
        tiering=runtime(1 << 30),
        fault_plan=FaultPlan(seed=7, kernel_fault_rate=0.2),
    )
    result = ex.execute(join_plan(r, s))
    assert_exact(result.output, plain)


def test_tiering_conflicts_with_shards():
    with pytest.raises(JoinConfigError):
        QueryExecutor(tiering=TieredRuntime(capacity_bytes=0), shards=2)


def test_aggregate_over_join_runs_join_tiered_and_fold_plain(relations):
    r, s = relations
    specs = (AggSpec("spay", "sum"), AggSpec("spay", "max"))
    plan = Aggregate(join_plan(r, s), group_column="key", aggregates=specs)
    plain = execute(plan).output
    ex = QueryExecutor(tiering=runtime(1 << 30))
    result = ex.execute(plan)
    for name in plain:
        np.testing.assert_array_equal(result.output[name], plain[name])
    descriptions = [t.description for t in result.trace]
    assert any("Join[TIER" in d for d in descriptions)
    assert not any("Fused" in d for d in descriptions)
    # the join output is an intermediate, never auto-registered/tier-cached
    assert all(k.relation in ("R", "S") for k in ex.tiering.cache.resident_keys())


def _assert_same_aggregate(tiered, plain):
    assert list(tiered.keys()) == list(plain.keys())
    for name in plain:
        assert tiered[name].dtype == plain[name].dtype
        np.testing.assert_array_equal(tiered[name], plain[name])


def test_mixed_placement_is_exact_above_float_precision(rng):
    """int64 values in [2^50, 2^51): each group's sum passes 2^53, where a
    float64 fold rounds.  The tier must still equal plain bit for bit."""
    n = 30000
    s = Relation(
        [
            ("key", rng.integers(0, 50, n).astype(np.int64)),
            ("v", rng.integers(1 << 50, 1 << 51, n).astype(np.int64)),
        ],
        key="key",
        name="S",
    )
    specs = (AggSpec("v", "sum"), AggSpec("v", "mean"), AggSpec("v", "max"))
    plan = Aggregate(Scan(s, "S"), group_column="key", aggregates=specs)
    plain = execute(plan).output
    ex = QueryExecutor(tiering=runtime(200_000))
    for _ in range(3):
        result = ex.execute(plan)
    description = result.trace[-1].description
    assert "hot:0" not in description and "cold:0" not in description
    _assert_same_aggregate(result.output, plain)


def test_aggregate_over_empty_relation_matches_plain():
    empty = Relation(
        [("key", np.empty(0, dtype=np.int64)), ("v", np.empty(0, dtype=np.int32))],
        key="key",
        name="E",
    )
    specs = (AggSpec("v", "sum"), AggSpec("v", "min"), AggSpec("key", "count"))
    plan = Aggregate(Scan(empty, "E"), group_column="key", aggregates=specs)
    plain = execute(plan).output
    tiered = QueryExecutor(tiering=runtime(1 << 30)).execute(plan).output
    _assert_same_aggregate(tiered, plain)
