"""The shared strided-sample group-cardinality estimator.

One implementation (``aggregation.planner.estimate_group_cardinality``)
now serves ``repro.api.group_by`` and the query executor; these tests
pin its behaviour so neither call site drifts.
"""

import numpy as np
import pytest

from repro.aggregation import AggSpec
from repro.aggregation.planner import (
    CARDINALITY_SAMPLE_LIMIT,
    estimate_group_cardinality,
)


class TestExactRegime:
    """At or below the sample limit the estimate is exact."""

    def test_empty(self):
        assert estimate_group_cardinality(np.empty(0, dtype=np.int32)) == 0

    def test_single_element(self):
        assert estimate_group_cardinality(np.array([42], dtype=np.int64)) == 1

    def test_all_duplicates(self):
        assert estimate_group_cardinality(np.full(1000, 7, dtype=np.int32)) == 1

    def test_all_distinct(self):
        keys = np.random.default_rng(0).permutation(5000).astype(np.int32)
        assert estimate_group_cardinality(keys) == 5000

    def test_exactly_at_limit(self):
        keys = np.arange(CARDINALITY_SAMPLE_LIMIT, dtype=np.int64)
        assert estimate_group_cardinality(keys) == CARDINALITY_SAMPLE_LIMIT

    def test_skewed_small_input(self):
        keys = np.concatenate(
            [np.zeros(900, dtype=np.int32), np.arange(1, 101, dtype=np.int32)]
        )
        assert estimate_group_cardinality(keys) == 101


class TestSampledRegime:
    """Above the limit a strided sample bounds the work."""

    def test_never_exceeds_true_cardinality_for_repeating_keys(self):
        keys = np.tile(np.arange(64, dtype=np.int32), 3000)  # 192k rows, 64 groups
        estimate = estimate_group_cardinality(keys)
        assert 1 <= estimate <= 64

    def test_uniform_large_input_close_to_truth(self):
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 50, 200_000).astype(np.int32)
        estimate = estimate_group_cardinality(keys)
        # A 64k strided sample of 200k uniform draws over 50 values
        # sees every value with overwhelming probability.
        assert estimate == 50

    def test_custom_sample_limit(self):
        keys = np.arange(10_000, dtype=np.int64)
        exact = estimate_group_cardinality(keys, sample_limit=10_000)
        sampled = estimate_group_cardinality(keys, sample_limit=100)
        assert exact == 10_000
        assert 0 < sampled <= 10_000
        # stride = size // limit = 100 -> exactly 100 sampled keys
        assert sampled == 100

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        keys = rng.integers(0, 1 << 20, 300_000).astype(np.int64)
        assert estimate_group_cardinality(keys) == estimate_group_cardinality(keys)

    def test_stride_sample_semantics(self):
        """Above the limit, the estimate is distinct-of-keys[::size//limit].

        Pins the exact sampling rule (deterministic stride from element
        0, floor-divided step) so the sort-based counting helper behind
        it can't silently change which keys are examined.
        """
        from repro.primitives.grouping import count_distinct

        rng = np.random.default_rng(13)
        keys = rng.integers(0, 5000, 200_000).astype(np.int32)
        limit = 1000
        stride = keys.size // limit
        expected = count_distinct(keys[::stride])
        assert estimate_group_cardinality(keys, sample_limit=limit) == expected
        # The stride starts at element 0: planting a unique sentinel
        # there must always be visible to the estimate.
        keys[0] = 999_983
        assert estimate_group_cardinality(keys, sample_limit=limit) == count_distinct(
            keys[::stride]
        )


class TestCallSitesAgree:
    """api.group_by and the executor resolve the same estimate."""

    def test_same_helper_is_used(self, monkeypatch):
        # Both resolve "auto" through the one planner resolver, which
        # calls the estimator; a spy on it must see both call sites.
        import repro.aggregation.planner as planner
        from repro import group_by
        from repro.query import Aggregate, Scan, execute
        from repro.relational.relation import Relation

        calls = []

        def spy(keys, *args, **kwargs):
            calls.append(keys.size)
            return estimate_group_cardinality(keys, *args, **kwargs)

        monkeypatch.setattr(planner, "estimate_group_cardinality", spy)
        keys = np.arange(64, dtype=np.int32).repeat(4)
        values = np.ones(keys.size, dtype=np.int32)
        group_by(keys, {"v": values}, {"v": "sum"})
        assert calls == [keys.size]
        relation = Relation.from_key_payloads(keys, [values], payload_prefix="v")
        execute(Aggregate(Scan(relation), "key", (AggSpec("v1", "sum"),)))
        assert calls == [keys.size, keys.size]

    def test_auto_algorithm_selection_uses_estimate(self):
        from repro import group_by

        rng = np.random.default_rng(11)
        keys = rng.integers(0, 8, 4096).astype(np.int32)
        values = {"v": rng.integers(0, 100, 4096).astype(np.int32)}
        result = group_by(keys, values, {"v": "sum"})
        assert result.groups == np.unique(keys).size
