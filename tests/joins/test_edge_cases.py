"""Join edge cases: empty matches, single rows, zero payloads, errors."""

import numpy as np
import pytest

from repro.errors import JoinConfigError
from repro.joins import (
    ALGORITHMS,
    JoinConfig,
    NonPartitionedHashJoin,
    PartitionedHashJoin,
    make_algorithm,
)
from repro.relational import Relation, reference_join, assert_join_equal

ALL = list(ALGORITHMS.values()) + [NonPartitionedHashJoin]


def _rel(keys, payloads=1, prefix="p", dtype=np.int32):
    arr = np.asarray(keys, dtype=dtype)
    cols = [np.arange(arr.size, dtype=dtype) for _ in range(payloads)]
    return Relation.from_key_payloads(arr, cols, payload_prefix=prefix)


@pytest.mark.parametrize("cls", ALL, ids=lambda c: c.name)
class TestDegenerate:
    def test_no_matches(self, cls):
        result = cls().join(_rel([1, 2, 3], prefix="r"), _rel([7, 8], prefix="s"), seed=0)
        assert result.matches == 0
        assert result.output.num_rows == 0
        assert result.output.column_names == ["key", "r1", "s1"]

    def test_single_row_each(self, cls):
        result = cls().join(_rel([5], prefix="r"), _rel([5], prefix="s"), seed=0)
        assert result.matches == 1
        assert result.output.column("key")[0] == 5

    def test_probe_much_larger(self, cls):
        r = _rel([0, 1], prefix="r")
        s = _rel([0] * 500 + [1] * 500, prefix="s")
        result = cls().join(r, s, seed=0)
        assert result.matches == 1000

    def test_zero_payload_columns(self, cls):
        r = _rel(np.arange(100), payloads=0)
        s = _rel(np.arange(100), payloads=0)
        result = cls().join(r, s, seed=0)
        assert result.matches == 100
        assert result.output.column_names == ["key"]

    def test_wide_output_names_unique(self, cls):
        r = _rel([1, 2], payloads=2, prefix="x")
        s = _rel([1, 2], payloads=2, prefix="x")
        result = cls().join(r, s, seed=0)
        assert result.output.column_names == ["key", "x1", "x2", "x1_s", "x2_s"]


class TestConfigValidation:
    def test_bad_tuples_per_partition(self):
        with pytest.raises(JoinConfigError):
            JoinConfig(tuples_per_partition=0).validate()

    def test_bad_partition_bits(self):
        with pytest.raises(JoinConfigError):
            JoinConfig(partition_bits=0).validate()
        with pytest.raises(JoinConfigError):
            JoinConfig(partition_bits=30).validate()

    def test_bad_bucket_tuples(self):
        with pytest.raises(JoinConfigError):
            JoinConfig(bucket_tuples=-1).validate()

    def test_bad_pattern(self):
        with pytest.raises(JoinConfigError):
            PartitionedHashJoin(pattern="nope")

    def test_make_algorithm_unknown(self):
        with pytest.raises(KeyError, match="PHJ-OM"):
            make_algorithm("FOO")


class TestForcedOptions:
    def test_forced_partition_bits_still_correct(self):
        rng = np.random.default_rng(0)
        r = _rel(rng.permutation(2000), payloads=2, prefix="r")
        s = _rel(rng.integers(0, 2000, 3000), payloads=2, prefix="s")
        expected = reference_join(r, s)
        for bits in (2, 6, 12):
            cfg = JoinConfig(partition_bits=bits)
            assert_join_equal(
                PartitionedHashJoin(cfg).join(r, s, seed=0).output, expected
            )

    def test_hashed_partitioning_still_correct(self):
        rng = np.random.default_rng(1)
        # Keys sharing low bits: raw radix would put everything in one
        # partition; hashed partitioning spreads them.
        r = _rel(np.arange(1000) * 1024, payloads=2, prefix="r", dtype=np.int64)
        s = _rel(rng.choice(np.arange(1000) * 1024, 2000), payloads=2, prefix="s",
                 dtype=np.int64)
        expected = reference_join(r, s)
        cfg = JoinConfig(hashed_partitioning=True)
        assert_join_equal(PartitionedHashJoin(cfg).join(r, s, seed=0).output, expected)

    def test_double_merge_pass_same_result(self):
        rng = np.random.default_rng(2)
        r = _rel(rng.permutation(500), payloads=2, prefix="r")
        s = _rel(rng.integers(0, 500, 900), payloads=2, prefix="s")
        from repro.joins import SortMergeJoinOM

        single = SortMergeJoinOM().join(r, s, seed=0)
        double = SortMergeJoinOM(JoinConfig(double_merge_pass=True)).join(r, s, seed=0)
        assert single.output.equals_unordered(double.output)
