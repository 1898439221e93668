"""The tier's join indexes, group indexes and folds: kept until the
relation changes.

Keys change only on ``update()``/``invalidate_relation``, so a repeated
tiered operator over unchanged relations redoes no host-side matching,
grouping or folding.  Every recomputation must still equal plain ``execute()`` bit
for bit.
"""

import numpy as np
import pytest

from repro.aggregation.base import AggSpec
from repro.joins.base import JoinConfig
from repro.query.executor import QueryExecutor, execute
from repro.query.plan import Aggregate, Join, Scan
from repro.relational.relation import Relation
from repro.serve import QueryServer
from repro.tier import TieredRuntime
from repro.tier import executor as tier_executor
from repro.tier import segments as tier_segments

SEGMENT_ROWS = 512
SPECS = (AggSpec("key", "count"), AggSpec("spay", "sum"), AggSpec("spay", "max"))


def make_pair(seed: int, n_r: int = 1000, n_s: int = 6000):
    rng = np.random.default_rng(seed)
    r = Relation(
        [
            ("key", rng.permutation(n_r).astype(np.int64)),
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


def join_plan(r, s):
    return Join(Scan(r, "R"), Scan(s, "S"), algorithm="NPJ")


def group_plan(s):
    return Aggregate(Scan(s, "S"), group_column="key", aggregates=SPECS)


@pytest.fixture
def spy(monkeypatch):
    """Counts the tier's calls of its matching, grouping and fold."""
    calls = {"match_positions": 0, "group_identify": 0, "fold_groups": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(tier_executor, "match_positions")
    counting(tier_segments, "group_identify")
    counting(tier_segments, "fold_groups")
    return calls


def assert_same_output(actual, expected):
    if isinstance(expected, Relation):
        actual, expected = actual.columns(), expected.columns()
    assert list(actual) == list(expected)
    for name in expected:
        assert actual[name].dtype == expected[name].dtype
        np.testing.assert_array_equal(actual[name], expected[name], err_msg=name)


def test_repeat_operators_on_unchanged_relations_reuse_indexes(spy):
    r, s = make_pair(1)
    ex = QueryExecutor(tiering=TieredRuntime(segment_rows=SEGMENT_ROWS))
    first_join = ex.execute(join_plan(r, s)).output
    first_groups = ex.execute(group_plan(s)).output
    assert spy == {"match_positions": 1, "group_identify": 1, "fold_groups": 1}
    second_join = ex.execute(join_plan(r, s)).output
    second_groups = ex.execute(group_plan(s)).output
    assert spy == {"match_positions": 1, "group_identify": 1, "fold_groups": 1}
    assert_same_output(second_join, first_join)
    assert_same_output(second_groups, first_groups)
    assert_same_output(second_join, execute(join_plan(r, s)).output)
    assert_same_output(second_groups, execute(group_plan(s)).output)


def test_group_output_does_not_alias_the_index():
    """Neither the group index nor the memoised folds leak into outputs."""
    _, s = make_pair(2)
    ex = QueryExecutor(tiering=TieredRuntime(segment_rows=SEGMENT_ROWS))
    out = ex.execute(group_plan(s)).output
    for column in out.values():
        column[:] = -1  # callers own their output
    again = ex.execute(group_plan(s)).output
    assert_same_output(again, execute(group_plan(s)).output)


def test_server_update_recomputes_and_matches_execute(spy):
    r, s = make_pair(3)
    server = QueryServer(
        streams=1, seed=0, tiering=True, enable_result_cache=False
    )
    server.register("R", r)
    server.register("S", s)
    for plan in (join_plan(r, s), group_plan(s), join_plan(r, s), group_plan(s)):
        server.submit(plan, at_s=0.0)
    assert all(o.status == "completed" for o in server.run())
    assert spy == {"match_positions": 1, "group_identify": 1, "fold_groups": 1}

    _, s2 = make_pair(4)
    server.update("S", s2)
    server.submit(join_plan(r, s2))
    server.submit(group_plan(s2))
    joined, grouped = server.run()[-2:]
    assert spy == {"match_positions": 2, "group_identify": 2, "fold_groups": 2}
    assert_same_output(joined.output, execute(join_plan(r, s2)).output)
    assert_same_output(grouped.output, execute(group_plan(s2)).output)


@pytest.mark.parametrize("by_name", [True, False])
def test_invalidate_relation_drops_its_indexes(spy, by_name):
    r, s = make_pair(5)
    _, t = make_pair(6)
    runtime = TieredRuntime(segment_rows=SEGMENT_ROWS)
    runtime.register(r, "R")
    runtime.register(s, "S")
    runtime.register(t, "T")
    ex = QueryExecutor(tiering=runtime)
    ex.execute(join_plan(r, s))
    ex.execute(join_plan(r, t))
    ex.execute(group_plan(s))
    assert set(runtime._join_indexes) == {("R", "S", None), ("R", "T", None)}

    runtime.invalidate_relation("S" if by_name else s)
    assert set(runtime._join_indexes) == {("R", "T", None)}
    ex.execute(join_plan(r, t))
    assert spy["match_positions"] == 2  # the unrelated pair kept its index
    joined = ex.execute(join_plan(r, s)).output
    grouped = ex.execute(group_plan(s)).output
    assert spy == {"match_positions": 3, "group_identify": 2, "fold_groups": 2}
    assert_same_output(joined, execute(join_plan(r, s)).output)
    assert_same_output(grouped, execute(group_plan(s)).output)


def test_fork_cold_shares_no_index(spy):
    r, s = make_pair(7)
    runtime = TieredRuntime(segment_rows=SEGMENT_ROWS)
    ex = QueryExecutor(tiering=runtime)
    ex.execute(join_plan(r, s))
    ex.execute(group_plan(s))
    fork = runtime.fork_cold()
    assert fork._join_indexes == {}
    assert fork.register(s) is not runtime.register(s)
    cold = QueryExecutor(tiering=fork)
    cold.execute(join_plan(r, s))
    cold.execute(group_plan(s))
    assert spy == {"match_positions": 2, "group_identify": 2, "fold_groups": 2}


def test_unique_hint_and_auto_detection_do_not_share_an_entry():
    rng = np.random.default_rng(8)
    r = Relation(
        [("key", np.repeat(np.arange(50, dtype=np.int64), 2))], key="key", name="R"
    )
    s = Relation(
        [("key", rng.integers(0, 50, 400).astype(np.int64))], key="key", name="S"
    )
    runtime = TieredRuntime(segment_rows=SEGMENT_ROWS)
    hinted = runtime.run_join(r, s, config=JoinConfig(unique_build_keys=True))
    auto = runtime.run_join(r, s, config=JoinConfig())
    assert set(runtime._join_indexes) == {("R", "S", True), ("R", "S", None)}
    assert hinted.rows == s.num_rows  # the wrong hint keeps one match each
    assert auto.rows == 2 * s.num_rows
    assert_same_output(auto.output, execute(join_plan(r, s)).output)


def test_colliding_payload_names_match_execute():
    """The tier names S payloads that collide with R or ``key`` like execute()."""
    rng = np.random.default_rng(6)
    r = Relation(
        [("id", rng.permutation(400).astype(np.int64)),
         ("a", rng.integers(0, 100, 400).astype(np.int64))],
        key="id",
        name="R",
    )
    s = Relation(
        [("fk", rng.integers(0, 400, 2000).astype(np.int64)),
         ("a", rng.integers(0, 9, 2000).astype(np.int32)),
         ("key", rng.integers(0, 9, 2000).astype(np.int64))],
        key="fk",
        name="S",
    )
    ex = QueryExecutor(tiering=TieredRuntime(segment_rows=SEGMENT_ROWS))
    tiered = ex.execute(join_plan(r, s)).output
    assert tiered.column_names == ["key", "a", "a_s", "key_s"]
    assert_same_output(tiered, execute(join_plan(r, s)).output)
