"""Aggregation strategies produce exactly the reference group-by."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation import AggSpec, OutOfCoreGroupBy, make_groupby_algorithm
from repro.api import group_by
from repro.errors import AggregationConfigError
from repro.faults.recovery import resilient_group_by
from repro.relational import reference_groupby
from repro.relational.relation import Relation
from repro.workloads import GroupByWorkloadSpec, generate_groupby_workload

ALL_STRATEGIES = ["HASH-AGG", "SORT-AGG", "SORT-AGG/gfur", "PART-AGG", "PART-AGG/gfur"]

WORKLOADS = {
    "mid_cardinality": GroupByWorkloadSpec(rows=4000, groups=200, value_columns=2, seed=1),
    "few_groups": GroupByWorkloadSpec(rows=4000, groups=3, value_columns=2, seed=2),
    "all_distinct": GroupByWorkloadSpec(rows=1000, groups=100000, value_columns=1, seed=3),
    "skewed": GroupByWorkloadSpec(rows=4000, groups=500, zipf_factor=1.5, seed=4),
    "wide_types": GroupByWorkloadSpec(
        rows=2000, groups=64, value_columns=2, key_type="int64",
        value_type="int64", seed=5,
    ),
}


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
@pytest.mark.parametrize("workload", sorted(WORKLOADS), ids=str)
def test_sum_matches_reference(strategy, workload):
    keys, values = generate_groupby_workload(WORKLOADS[workload])
    expected = reference_groupby(keys, values, {"v1": "sum"})
    result = make_groupby_algorithm(strategy).group_by(
        keys, values, [AggSpec("v1", "sum")], seed=0
    )
    assert np.array_equal(result.output["group_key"], expected["group_key"])
    assert np.array_equal(result.output["sum_v1"], expected["sum_v1"])
    assert result.groups == expected["group_key"].size
    assert result.rows == keys.size


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
@pytest.mark.parametrize("op", ["sum", "count", "min", "max", "mean"])
def test_every_operator(strategy, op):
    keys, values = generate_groupby_workload(WORKLOADS["mid_cardinality"])
    expected = reference_groupby(keys, values, {"v1": op})
    result = make_groupby_algorithm(strategy).group_by(
        keys, values, [AggSpec("v1", op)], seed=0
    )
    name = f"{op}_v1"
    if op == "mean":
        np.testing.assert_allclose(result.output[name], expected[name])
    else:
        assert np.array_equal(result.output[name], expected[name])


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_multiple_aggregates_in_one_pass(strategy):
    keys, values = generate_groupby_workload(WORKLOADS["mid_cardinality"])
    aggs = [AggSpec("v1", "sum"), AggSpec("v2", "max"), AggSpec("v1", "count")]
    result = make_groupby_algorithm(strategy).group_by(keys, values, aggs, seed=0)
    assert list(result.output) == ["group_key", "sum_v1", "max_v2", "count_v1"]
    ref = reference_groupby(keys, values, {"v2": "max"})
    assert np.array_equal(result.output["max_v2"], ref["max_v2"])


class TestValidation:
    def test_missing_column_rejected(self):
        keys = np.arange(10, dtype=np.int32)
        with pytest.raises(AggregationConfigError, match="missing column"):
            make_groupby_algorithm("HASH-AGG").group_by(
                keys, {}, [AggSpec("nope", "sum")]
            )

    def test_unknown_operator_rejected(self):
        with pytest.raises(AggregationConfigError, match="unsupported"):
            AggSpec("v", "median")

    def test_unknown_strategy(self):
        with pytest.raises(KeyError, match="HASH-AGG"):
            make_groupby_algorithm("MAGIC-AGG")

    def test_count_without_values_allowed(self):
        keys = np.array([1, 1, 2], dtype=np.int32)
        result = make_groupby_algorithm("HASH-AGG").group_by(
            keys, {}, [AggSpec("anything", "count")]
        )
        assert list(result.output["count_anything"]) == [2, 1]


class TestSingleGroupAndSingleRow:
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_single_group(self, strategy):
        keys = np.zeros(100, dtype=np.int32)
        values = {"v": np.arange(100, dtype=np.int32)}
        result = make_groupby_algorithm(strategy).group_by(
            keys, values, [AggSpec("v", "sum")], seed=0
        )
        assert result.groups == 1
        assert result.output["sum_v"][0] == 4950

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_single_row(self, strategy):
        keys = np.array([42], dtype=np.int32)
        values = {"v": np.array([7], dtype=np.int32)}
        result = make_groupby_algorithm(strategy).group_by(
            keys, values, [AggSpec("v", "min")], seed=0
        )
        assert list(result.output["group_key"]) == [42]
        assert list(result.output["min_v"]) == [7]


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 100)),
                  min_size=1, max_size=80),
    strategy=st.sampled_from(ALL_STRATEGIES),
)
def test_property_sum(rows, strategy):
    keys = np.asarray([k for k, _ in rows], dtype=np.int32)
    vals = np.asarray([v for _, v in rows], dtype=np.int32)
    expected = reference_groupby(keys, {"v": vals}, {"v": "sum"})
    result = make_groupby_algorithm(strategy).group_by(
        keys, {"v": vals}, [AggSpec("v", "sum")], seed=0
    )
    assert np.array_equal(result.output["sum_v"], expected["sum_v"])


@pytest.mark.parametrize("shards", [1, 2], ids=lambda s: f"shards{s}")
@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_nan_keys_form_one_group(strategy, shards):
    """NaN keys collapse into one last group, as in ``np.unique``.

    The tier is not in this matrix: a ``Relation`` holds only int32 and
    int64 columns, so no float key reaches it.
    """
    keys = np.array([1, np.nan, 2, np.nan] * 64)
    values = {"v": np.arange(keys.size, dtype=np.int64)}
    result = group_by(
        keys, values, [("v", "sum"), ("v", "count")], algorithm=strategy,
        shards=shards, seed=0,
    )
    assert np.array_equal(
        result.output["group_key"], np.array([1.0, 2.0, np.nan]), equal_nan=True
    )
    assert result.output["count_v"].tolist() == [64, 64, 128]
    assert result.output["sum_v"].tolist() == [
        int(values["v"][0::4].sum()), int(values["v"][2::4].sum()),
        int(values["v"][1::2].sum()),
    ]
    with pytest.raises(KeyError, match="unsupported dtype"):
        Relation([("k", keys)], key="k")


_ALL_OPS = [(column, op) for column in ("i", "f", "b")
            for op in ("sum", "count", "min", "max", "mean")]


def _dtype_runs(strategy, keys, values):
    """Each way to run one strategy: plain, staged out-of-core, sharded
    and through the recovery ladder."""
    specs = [AggSpec(column, op) for column, op in _ALL_OPS]
    return {
        "plain": make_groupby_algorithm(strategy).group_by(keys, values, specs),
        "out-of-core": OutOfCoreGroupBy(inner=strategy, min_blocks=2).group_by(
            keys, values, specs
        ),
        "shards=2": group_by(keys, values, _ALL_OPS, algorithm=strategy, shards=2),
        "resilient": resilient_group_by(keys, values, specs, algorithm=strategy),
    }


@pytest.mark.parametrize("key_dtype", [np.int32, np.float32], ids=["int32", "float32"])
@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_zero_rows_keep_the_dtype_contract(strategy, key_dtype):
    """An empty group-by returns the dtypes a non-empty one does."""
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 9, 300).astype(key_dtype)
    values = {
        "i": rng.integers(-50, 50, 300).astype(np.int32),
        "f": rng.standard_normal(300),
        "b": rng.integers(0, 2, 300).astype(bool),
    }
    expected = [
        (name, column.dtype)
        for name, column in make_groupby_algorithm(strategy).group_by(
            keys, values, [AggSpec(c, op) for c, op in _ALL_OPS]
        ).output.items()
    ]
    empty = {name: column[:0] for name, column in values.items()}
    for mode, result in _dtype_runs(strategy, keys[:0], empty).items():
        actual = [(name, column.dtype) for name, column in result.output.items()]
        assert actual == expected, mode
        assert all(column.size == 0 for column in result.output.values()), mode


def test_signed_zero_keys_name_one_group_alike_everywhere():
    """The ±0.0 group gets the same key bits in every strategy and mode."""
    keys = np.random.default_rng(0).choice([0.0, -0.0, 1.5], 1000)
    keys[::9] = np.nan
    values = {"v": np.arange(keys.size, dtype=np.int64)}
    specs = [AggSpec("v", "sum")]
    outputs = {}
    for strategy in ALL_STRATEGIES:
        outputs[strategy] = make_groupby_algorithm(strategy).group_by(
            keys, values, specs
        ).output
        outputs[f"{strategy} x4"] = group_by(
            keys, values, specs, algorithm=strategy, shards=4
        ).output
        outputs[f"OOC[{strategy}]"] = OutOfCoreGroupBy(
            inner=strategy, device_budget_bytes=keys.nbytes // 2
        ).group_by(keys, values, specs).output
    bits = {mode: out["group_key"].tobytes() for mode, out in outputs.items()}
    assert len(set(bits.values())) == 1, bits
    sums = {mode: out["sum_v"].tobytes() for mode, out in outputs.items()}
    assert len(set(sums.values())) == 1
    group_keys = outputs["HASH-AGG"]["group_key"]
    assert group_keys.size == 3 and np.signbit(group_keys[0]) and group_keys[0] == 0
