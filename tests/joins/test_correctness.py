"""Every join algorithm produces exactly the reference join output."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.joins import (
    CPURadixJoin,
    NonPartitionedHashJoin,
    PartitionedHashJoin,
    PartitionedHashJoinUM,
    SortMergeJoinOM,
    SortMergeJoinUM,
)
from repro.relational import Relation, assert_join_equal, reference_join
from repro.workloads import JoinWorkloadSpec, generate_join_workload

ALL_ALGORITHMS = [
    SortMergeJoinUM,
    SortMergeJoinOM,
    PartitionedHashJoinUM,
    PartitionedHashJoin,
    NonPartitionedHashJoin,
    CPURadixJoin,
]

WORKLOADS = {
    "pk_fk_full_match": JoinWorkloadSpec(
        r_rows=2048, s_rows=4096, r_payload_columns=2, s_payload_columns=2, seed=1
    ),
    "half_match": JoinWorkloadSpec(
        r_rows=2048, s_rows=4096, r_payload_columns=2, s_payload_columns=2,
        match_ratio=0.5, seed=2,
    ),
    "narrow": JoinWorkloadSpec(
        r_rows=2048, s_rows=4096, r_payload_columns=1, s_payload_columns=1, seed=3
    ),
    "skewed": JoinWorkloadSpec(
        r_rows=2048, s_rows=4096, r_payload_columns=2, s_payload_columns=2,
        zipf_factor=1.5, seed=4,
    ),
    "wide_types": JoinWorkloadSpec(
        r_rows=1024, s_rows=2048, r_payload_columns=3, s_payload_columns=2,
        key_type="int64", payload_type="int64", seed=5,
    ),
    "asymmetric_payloads": JoinWorkloadSpec(
        r_rows=1024, s_rows=4096, r_payload_columns=4, s_payload_columns=1, seed=6
    ),
    "tiny": JoinWorkloadSpec(
        r_rows=70, s_rows=90, r_payload_columns=2, s_payload_columns=2, seed=7
    ),
}


@pytest.mark.parametrize("algorithm_cls", ALL_ALGORITHMS, ids=lambda c: c.name)
@pytest.mark.parametrize("workload", sorted(WORKLOADS), ids=str)
def test_matches_reference(algorithm_cls, workload):
    r, s = generate_join_workload(WORKLOADS[workload])
    expected = reference_join(r, s)
    result = algorithm_cls().join(r, s, seed=42)
    assert_join_equal(result.output, expected)
    assert result.matches == expected.num_rows


@pytest.mark.parametrize("pattern", ["gftr", "gfur"])
def test_phj_patterns_agree(pattern):
    r, s = generate_join_workload(WORKLOADS["pk_fk_full_match"])
    expected = reference_join(r, s)
    result = PartitionedHashJoin(pattern=pattern).join(r, s, seed=1)
    assert_join_equal(result.output, expected)


def test_duplicate_keys_on_both_sides():
    rng = np.random.default_rng(8)
    r = Relation.from_key_payloads(
        rng.integers(0, 50, 300).astype(np.int32),
        [rng.integers(0, 9, 300).astype(np.int32)] * 2,
        payload_prefix="r",
    )
    s = Relation.from_key_payloads(
        rng.integers(0, 50, 400).astype(np.int32),
        [rng.integers(0, 9, 400).astype(np.int32)] * 2,
        payload_prefix="s",
    )
    expected = reference_join(r, s)
    for cls in ALL_ALGORITHMS:
        result = cls().join(r, s, seed=9)
        assert_join_equal(result.output, expected)


def test_self_join_shape():
    """J5-style FK-FK self join with heavy duplication."""
    rng = np.random.default_rng(10)
    keys = rng.integers(0, 40, 500).astype(np.int32)
    r = Relation.from_key_payloads(keys, [np.arange(500, dtype=np.int32)], payload_prefix="r")
    s = Relation.from_key_payloads(keys, [np.arange(500, dtype=np.int32)], payload_prefix="s")
    expected = reference_join(r, s)
    assert expected.num_rows > 500  # multiplicity > 1
    for cls in (PartitionedHashJoin, SortMergeJoinOM, NonPartitionedHashJoin):
        assert_join_equal(cls().join(r, s, seed=11).output, expected)


def test_bucket_chain_correct_across_seeds():
    """Non-determinism must never leak into results (IDs travel with keys)."""
    r, s = generate_join_workload(WORKLOADS["pk_fk_full_match"])
    expected = reference_join(r, s)
    for seed in (1, 2, 3):
        result = PartitionedHashJoinUM().join(r, s, seed=seed)
        assert_join_equal(result.output, expected)


@settings(max_examples=25, deadline=None)
@given(
    r_keys=st.lists(st.integers(0, 30), min_size=1, max_size=60),
    s_keys=st.lists(st.integers(0, 35), min_size=1, max_size=60),
    algorithm=st.sampled_from(["SMJ-OM", "PHJ-OM", "PHJ-UM", "SMJ-UM", "NPJ"]),
)
def test_property_any_key_multiset(r_keys, s_keys, algorithm):
    from repro.joins import make_algorithm

    rng = np.random.default_rng(0)
    r = Relation.from_key_payloads(
        np.asarray(r_keys, dtype=np.int32),
        [rng.integers(0, 5, len(r_keys)).astype(np.int32) for _ in range(2)],
        payload_prefix="r",
    )
    s = Relation.from_key_payloads(
        np.asarray(s_keys, dtype=np.int32),
        [rng.integers(0, 5, len(s_keys)).astype(np.int32) for _ in range(2)],
        payload_prefix="s",
    )
    expected = reference_join(r, s)
    result = make_algorithm(algorithm).join(r, s, seed=1)
    assert_join_equal(result.output, expected)


@pytest.mark.parametrize("wide", [True, False], ids=["wide", "narrow"])
@pytest.mark.parametrize("algorithm_cls", ALL_ALGORITHMS, ids=lambda c: c.name)
def test_colliding_payload_names_get_the_reference_suffix(algorithm_cls, wide):
    """S payloads named like an R payload or like ``key`` become ``*_s``."""
    rng = np.random.default_rng(12)
    r = Relation(
        [("id", rng.permutation(300).astype(np.int32)),
         ("a", rng.integers(0, 9, 300).astype(np.int64))]
        + ([("b", rng.integers(0, 9, 300).astype(np.int32))] if wide else []),
        key="id",
    )
    s_payloads = [("a", rng.integers(0, 9, 500).astype(np.int32))]
    if wide:
        s_payloads.append(("key", rng.integers(0, 9, 500).astype(np.int64)))
    s = Relation(
        [("fk", rng.integers(0, 300, 500).astype(np.int32))] + s_payloads, key="fk"
    )
    expected = reference_join(r, s)
    assert expected.column_names == (
        ["key", "a", "b", "a_s", "key_s"] if wide else ["key", "a", "a_s"]
    )
    result = algorithm_cls().join(r, s, seed=13)
    assert_join_equal(result.output, expected)
