"""Top-level convenience API."""

import numpy as np
import pytest

from repro import (
    A100,
    AggSpec,
    Relation,
    group_by,
    join,
    reference_groupby,
    reference_join,
)
from repro.faults import FaultPlan


@pytest.fixture
def relations():
    rng = np.random.default_rng(0)
    r = Relation.from_key_payloads(
        rng.permutation(2000).astype(np.int32),
        [rng.integers(0, 99, 2000).astype(np.int32) for _ in range(2)],
        payload_prefix="r",
    )
    s = Relation.from_key_payloads(
        rng.integers(0, 2000, 5000).astype(np.int32),
        [rng.integers(0, 99, 5000).astype(np.int32) for _ in range(2)],
        payload_prefix="s",
    )
    return r, s


class TestJoin:
    def test_auto_picks_and_is_correct(self, relations):
        r, s = relations
        result = join(r, s)
        assert result.algorithm in ("PHJ-OM", "PHJ-UM", "SMJ-OM", "SMJ-UM")
        assert result.output.equals_unordered(reference_join(r, s))

    def test_named_algorithm(self, relations):
        r, s = relations
        result = join(r, s, algorithm="SMJ-UM")
        assert result.algorithm == "SMJ-UM"

    def test_device_by_name(self, relations):
        r, s = relations
        result = join(r, s, device="RTX3090")
        assert result.device.name == "RTX3090"

    def test_device_by_spec(self, relations):
        r, s = relations
        assert join(r, s, device=A100).device is A100

    def test_unknown_algorithm(self, relations):
        r, s = relations
        with pytest.raises(KeyError):
            join(r, s, algorithm="WAT")

    def test_unknown_device(self, relations):
        r, s = relations
        with pytest.raises(KeyError):
            join(r, s, device="TPU")

    def test_hints_steer_planner(self, relations):
        r, s = relations
        low = join(r, s, match_ratio=0.05)
        assert low.algorithm == "PHJ-UM"
        skewed_low = join(r, s, match_ratio=0.05, zipf_factor=1.5)
        assert skewed_low.algorithm == "SMJ-UM"


class TestGroupBy:
    def test_dict_aggregates(self):
        keys = np.array([1, 1, 2], dtype=np.int32)
        result = group_by(keys, {"v": np.array([5, 6, 7], dtype=np.int32)}, {"v": "sum"})
        assert list(result.output["sum_v"]) == [11, 7]

    def test_list_of_pairs(self):
        keys = np.array([0, 0], dtype=np.int32)
        values = {"v": np.array([1, 2], dtype=np.int32)}
        result = group_by(keys, values, [("v", "min"), ("v", "max")])
        assert list(result.output["min_v"]) == [1]
        assert list(result.output["max_v"]) == [2]

    def test_aggspec_passthrough(self):
        keys = np.array([0], dtype=np.int32)
        result = group_by(keys, {"v": np.array([9], dtype=np.int32)},
                          [AggSpec("v", "count")])
        assert list(result.output["count_v"]) == [1]

    def test_auto_strategy_correct(self):
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 500, 10000).astype(np.int32)
        values = {"v": rng.integers(0, 100, 10000).astype(np.int32)}
        result = group_by(keys, values, {"v": "sum"})
        expected = reference_groupby(keys, values, {"v": "sum"})
        assert np.array_equal(result.output["sum_v"], expected["sum_v"])

    def test_named_strategy(self):
        keys = np.array([3, 3], dtype=np.int32)
        result = group_by(keys, {"v": np.array([1, 1], dtype=np.int32)},
                          {"v": "sum"}, algorithm="SORT-AGG")
        assert result.algorithm == "SORT-AGG"

    def test_large_input_sampled_estimate(self):
        rng = np.random.default_rng(2)
        keys = rng.integers(0, 32, 200000).astype(np.int32)
        result = group_by(keys, {"v": keys}, {"v": "count"})
        assert result.groups == 32


HINT_MODES = {
    "plain": {},
    "shards": {"shards": 2},
    "fault_plan": {"fault_plan": FaultPlan(seed=1)},
}


class TestPlannerHintsInEveryMode:
    """``auto`` is resolved once, with the caller's hints, before the
    call dispatches to a mode."""

    @pytest.mark.parametrize("mode", sorted(HINT_MODES))
    def test_join_zipf_hint(self, mode):
        rng = np.random.default_rng(4)
        r = Relation.from_key_payloads(
            rng.permutation(1 << 12).astype(np.int32),
            [np.arange(1 << 12, dtype=np.int32)], payload_prefix="r")
        s = Relation.from_key_payloads(
            rng.integers(0, 1 << 12, 1 << 14).astype(np.int32),
            [np.arange(1 << 14, dtype=np.int32)], payload_prefix="s")
        assert join(r, s, seed=0, **HINT_MODES[mode]).algorithm == "PHJ-UM"
        skewed = join(r, s, seed=0, zipf_factor=1.5, **HINT_MODES[mode])
        assert skewed.algorithm == "PHJ-OM"

    @pytest.mark.parametrize("mode", sorted(HINT_MODES))
    def test_group_by_zipf_hint(self, mode):
        keys = np.random.default_rng(5).integers(0, 20000, 1 << 18).astype(np.int32)
        values = {"v": np.ones(keys.size, dtype=np.int32)}
        plain = group_by(keys, values, {"v": "sum"}, seed=0, **HINT_MODES[mode])
        assert plain.algorithm == "HASH-AGG"
        skewed = group_by(keys, values, {"v": "sum"}, seed=0, zipf_factor=1.5,
                          **HINT_MODES[mode])
        assert skewed.algorithm == "PART-AGG"
