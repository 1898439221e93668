"""Exact aggregates for every accepted dtype, against a pure-Python fold.

``_python_fold`` imports nothing from the library: integer sums are
Python ``int`` (unbounded), float sums fold sequentially in row order,
and means divide the exact sum by the count.  Every strategy, the
sharded path and the tier must equal it bit for bit, or refuse a total
that does not fit in int64 with :class:`AggregationConfigError`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import group_by
from repro.aggregation.base import AggSpec
from repro.errors import AggregationConfigError
from repro.query.executor import QueryExecutor
from repro.query.plan import Aggregate, Scan
from repro.relational.relation import Relation
from repro.tier import TieredRuntime

STRATEGIES = ("HASH-AGG", "SORT-AGG", "SORT-AGG/gfur", "PART-AGG", "PART-AGG/gfur")
INT64_MIN, INT64_MAX = -(2 ** 63), 2 ** 63 - 1


class Overflow(Exception):
    """The exact total of some group does not fit in int64."""


def _python_fold(keys, values, op):
    """``(group keys, aggregate)`` as Python lists, ascending by key."""
    groups = {}
    for key, value in zip(keys.tolist(), values.tolist()):
        groups.setdefault(key, []).append(value)
    is_float = values.dtype.kind == "f"
    out = []
    for key in sorted(groups):
        members = groups[key]
        if op == "count":
            out.append(len(members))
        elif op in ("min", "max"):
            out.append((min if op == "min" else max)(members))
        else:
            if is_float:
                total = 0.0
                for value in members:
                    total += value
            else:
                total = sum(members)
                if not INT64_MIN <= total <= INT64_MAX:
                    raise Overflow
            out.append(total if op == "sum" else float(total) / len(members))
    return sorted(groups), out


def _expected_dtype(values, op):
    if op == "count":
        return np.int64
    if op == "mean" or values.dtype.kind == "f":
        return np.float64
    return np.int64


def _assert_exact(output, keys, values, op, column="v"):
    want_keys, want = _python_fold(keys, values, op)
    got = output[f"{op}_{column}"]
    assert got.dtype == _expected_dtype(values, op)
    assert output["group_key"].tolist() == want_keys
    assert got.tolist() == want


def _tier_group_by(keys, values, op):
    """A tiered Aggregate: 8-row segments and room for half of them, so
    inputs of more than two segments run with a mixed hot/cold placement."""
    rel = Relation([("key", keys), ("v", values)], key="key", name="X")
    plan = Aggregate(Scan(rel, "X"), group_column="key", aggregates=(AggSpec("v", op),))
    runtime = TieredRuntime(capacity_bytes=max(1, rel.total_bytes // 2), segment_rows=8)
    ex = QueryExecutor(tiering=runtime)
    for _ in range(2):
        result = ex.execute(plan)
    return result.output


def _run(mode, keys, values, op):
    if mode == "tier":
        return _tier_group_by(keys, values, op)
    if mode == "shards=2":
        return group_by(keys, {"v": values}, {"v": op}, algorithm="HASH-AGG",
                        shards=2, seed=0).output
    return group_by(keys, {"v": values}, {"v": op}, algorithm=mode, seed=0).output


# -- 2^23 rows of INT32_MAX: the float64 fold is off by 4,194,304 -----------

@pytest.fixture(scope="module")
def int32_max_column():
    n = 1 << 23
    return np.zeros(n, dtype=np.int32), np.full(n, 2 ** 31 - 1, dtype=np.int32)


@pytest.mark.parametrize("mode", STRATEGIES + ("shards=2",))
def test_int32_max_sum_at_2_23_rows_is_exact(int32_max_column, mode):
    keys, values = int32_max_column
    output = _run(mode, keys, values, "sum")
    assert output["sum_v"].dtype == np.int64
    assert output["sum_v"].tolist() == [(2 ** 31 - 1) * (1 << 23)]


# -- float columns keep float64 (relations, so the tier, hold integers) --------

@pytest.mark.parametrize("mode", STRATEGIES + ("shards=2",))
@pytest.mark.parametrize("op", ["min", "max", "sum", "mean"])
def test_float_values_keep_float64(mode, op):
    keys = np.array([7, 7, 7, 2, 2, 9], dtype=np.int64)
    values = np.array([0.5, 1.7, -0.2, 1e300, -3.25, 0.1], dtype=np.float64)
    _assert_exact(_run(mode, keys, values, op), keys, values, op)


def test_float_min_is_not_truncated():
    keys = np.zeros(3, dtype=np.int32)
    values = np.array([0.5, 1.7, -0.2])
    output = group_by(keys, {"v": values}, {"v": "min"}).output
    assert output["min_v"].tolist() == [-0.2]


# -- bounded sweep over integer extremes x op x mode --------------------------

_INT_DTYPES = {"int32": np.int32, "int64": np.int64}


@st.composite
def _columns(draw):
    dtype = _INT_DTYPES[draw(st.sampled_from(sorted(_INT_DTYPES)))]
    info = np.iinfo(dtype)
    extremes = st.sampled_from([int(info.min), int(info.max), 0, -1, 1])
    anywhere = st.integers(int(info.min), int(info.max))
    values = draw(st.lists(st.one_of(extremes, anywhere), min_size=1, max_size=48))
    keys = draw(
        st.lists(st.integers(0, 3), min_size=len(values), max_size=len(values))
    )
    return np.asarray(keys, dtype=np.int64), np.asarray(values, dtype=dtype)


@settings(max_examples=60, deadline=None)
@given(
    columns=_columns(),
    op=st.sampled_from(["sum", "count", "min", "max", "mean"]),
    mode=st.sampled_from(
        ["HASH-AGG", "SORT-AGG", "PART-AGG", "PART-AGG/gfur", "shards=2", "tier"]
    ),
)
def test_integer_extremes_are_exact_or_refused(columns, op, mode):
    keys, values = columns
    try:
        _python_fold(keys, values, op)
    except Overflow:
        with pytest.raises(AggregationConfigError):
            _run(mode, keys, values, op)
        return
    _assert_exact(_run(mode, keys, values, op), keys, values, op)
