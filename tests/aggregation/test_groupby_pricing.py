"""Every group-by strategy prices exactly as its own ``_execute`` did.

The kernel ledger (:mod:`tests.kernel_ledger`) was recorded where the
strategies, which now only charge kernels and reserve bytes while one
fold of record computes the values, equalled frozen copies of the old
``_execute`` bodies with their per-aggregate folds: HASH-AGG (privatized
and global tables), SORT-AGG and PART-AGG under both patterns, with
int32, int64 and float64 keys, plain and under a fault plan at, and one
byte under, each level of memory in use.  Each case checks its ledger
cells.
"""

import importlib

import numpy as np
import pytest

from repro.aggregation import AggSpec, make_groupby_algorithm

from ..kernel_ledger import GROUPBY_CASES, GROUPBYS, assert_cells, fold


@pytest.mark.parametrize("case", sorted(GROUPBY_CASES))
@pytest.mark.parametrize("key_dtype", ["int32", "int64", "float64"])
@pytest.mark.parametrize("name", sorted(GROUPBYS))
def test_pricing_equals_the_frozen_execute(name, key_dtype, case):
    assert_cells(f"groupby/{name}/{key_dtype}/{case}")


@pytest.mark.parametrize("aggregates", ["none", "count"])
@pytest.mark.parametrize("name", sorted(GROUPBYS))
def test_pricing_without_value_columns(name, aggregates):
    assert_cells(f"groupby/{name}/no-values/{aggregates}")


@pytest.mark.parametrize("key_dtype", ["int32", "int64"])
@pytest.mark.parametrize("name", sorted(GROUPBYS))
def test_pricing_equals_the_frozen_execute_under_faults(name, key_dtype):
    assert_cells(f"groupby/{name}/{key_dtype}/levels")


@pytest.mark.parametrize("groups", [1, 7, 400])
def test_fold_of_record_equals_the_frozen_per_op_fold(groups):
    """One pass per column returns what one fold per aggregate did, and
    callers own their output: no two columns share memory."""
    assert_cells(f"fold/{groups}")
    columns = list(fold(groups).values())
    for i, a in enumerate(columns):
        assert not any(np.shares_memory(a, b) for b in columns[i + 1:])


@pytest.mark.parametrize("name", ["SORT-AGG/gfur", "PART-AGG/gfur"])
def test_gfur_analyses_each_map_once_per_item_size(name, monkeypatch):
    """Four non-count aggregates over two int64 columns: one map, one
    item size, one sector analysis (re-submitted under each name)."""
    calls = []
    gather_module = importlib.import_module("repro.primitives.gather")
    real = gather_module.analyze_indices

    def spy(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(gather_module, "analyze_indices", spy)
    rng = np.random.default_rng(4)
    rows = 1 << 16
    keys = rng.integers(0, 1 << 12, rows).astype(np.int32)
    values = {c: rng.integers(0, 1000, rows).astype(np.int64) for c in ("p", "q")}
    aggregates = [AggSpec("p", "sum"), AggSpec("q", "max"), AggSpec("p", "min"),
                  AggSpec("q", "mean"), AggSpec("p", "count")]
    result = make_groupby_algorithm(name).group_by(keys, values, aggregates, seed=0)
    assert calls == [8]
    assert result.kernel_count > 0
