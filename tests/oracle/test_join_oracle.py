"""Differential testing: every join algorithm vs the numpy oracle.

The oracle is :func:`repro.relational.reference_join`.  The sweep in
``conftest.py`` randomizes relation sizes, dtypes, match ratios, zipf
skew and payload widths; the edge-case tests pin down empty inputs,
all-duplicate keys and zero-match joins for the whole algorithm set,
including the out-of-core wrapper.
"""

import numpy as np
import pytest

from repro.joins import CPURadixJoin, OutOfCoreJoin, make_algorithm
from repro.relational import assert_join_equal, reference_join
from repro.workloads import generate_join_workload

from .conftest import JOIN_NAMES, JOIN_SPECS, empty_relation, relation_from_keys


def _make(name):
    return CPURadixJoin() if name == "CPU-RADIX" else make_algorithm(name)


ALL_NAMES = JOIN_NAMES + ["CPU-RADIX"]


@pytest.mark.parametrize("algorithm", ALL_NAMES)
@pytest.mark.parametrize("spec_name", sorted(JOIN_SPECS), ids=str)
def test_randomized_sweep_matches_oracle(algorithm, spec_name):
    r, s = generate_join_workload(JOIN_SPECS[spec_name])
    expected = reference_join(r, s)
    result = _make(algorithm).join(r, s, seed=7)
    assert_join_equal(result.output, expected)
    assert result.matches == expected.num_rows


class TestEdgeCases:
    @pytest.mark.parametrize("algorithm", ALL_NAMES)
    def test_empty_build_side(self, algorithm):
        r = empty_relation(prefix="r")
        s = relation_from_keys(np.arange(64, dtype=np.int32), prefix="s", seed=1)
        result = _make(algorithm).join(r, s, seed=1)
        assert result.output.num_rows == 0
        assert_join_equal(result.output, reference_join(r, s))

    @pytest.mark.parametrize("algorithm", ALL_NAMES)
    def test_empty_probe_side(self, algorithm):
        r = relation_from_keys(np.arange(64, dtype=np.int32), prefix="r", seed=2)
        s = empty_relation(prefix="s")
        result = _make(algorithm).join(r, s, seed=2)
        assert result.output.num_rows == 0

    @pytest.mark.parametrize("algorithm", ALL_NAMES)
    def test_both_sides_empty(self, algorithm):
        result = _make(algorithm).join(
            empty_relation(prefix="r"), empty_relation(prefix="s"), seed=3
        )
        assert result.output.num_rows == 0

    @pytest.mark.parametrize("algorithm", ALL_NAMES)
    def test_all_duplicate_keys_both_sides(self, algorithm):
        """Worst-case multiplicity: every tuple matches every other."""
        r = relation_from_keys(np.full(40, 7, dtype=np.int32), prefix="r", seed=4)
        s = relation_from_keys(np.full(50, 7, dtype=np.int32), prefix="s", seed=5)
        expected = reference_join(r, s)
        assert expected.num_rows == 40 * 50
        assert_join_equal(_make(algorithm).join(r, s, seed=4).output, expected)

    @pytest.mark.parametrize("algorithm", ALL_NAMES)
    def test_disjoint_key_domains(self, algorithm):
        r = relation_from_keys(np.arange(100, dtype=np.int32), prefix="r", seed=6)
        s = relation_from_keys(
            np.arange(1000, 1100, dtype=np.int32), prefix="s", seed=7
        )
        result = _make(algorithm).join(r, s, seed=6)
        assert result.output.num_rows == 0
        assert result.matches == 0

    @pytest.mark.parametrize("algorithm", ALL_NAMES)
    def test_single_row_each_side(self, algorithm):
        r = relation_from_keys(np.array([5], dtype=np.int64), prefix="r", seed=8)
        s = relation_from_keys(np.array([5], dtype=np.int64), prefix="s", seed=9)
        result = _make(algorithm).join(r, s, seed=8)
        assert_join_equal(result.output, reference_join(r, s))

    @pytest.mark.parametrize("algorithm", JOIN_NAMES)
    def test_narrow_single_payload(self, algorithm):
        """The 1-payload narrow execution path agrees with the oracle."""
        rng = np.random.default_rng(10)
        r = relation_from_keys(
            rng.permutation(512).astype(np.int32), payloads=1, prefix="r", seed=10
        )
        s = relation_from_keys(
            rng.integers(0, 512, 2048).astype(np.int32), payloads=1, prefix="s", seed=11
        )
        assert_join_equal(
            _make(algorithm).join(r, s, seed=10).output, reference_join(r, s)
        )


class TestOutOfCoreOracle:
    @pytest.mark.parametrize("inner", ["PHJ-OM", "SMJ-OM"])
    def test_staged_join_matches_oracle(self, inner):
        """A budget far below the footprint forces multi-chunk staging."""
        r, s = generate_join_workload(JOIN_SPECS[sorted(JOIN_SPECS)[0]])
        expected = reference_join(r, s)
        budget = (r.total_bytes + s.total_bytes) // 4
        result = OutOfCoreJoin(make_algorithm(inner), device_budget_bytes=budget).join(
            r, s, seed=12
        )
        assert "host-partition" in result.phase_seconds and result.num_chunks > 1
        assert_join_equal(result.output, expected)

    def test_in_core_fallback_matches_oracle(self):
        r, s = generate_join_workload(JOIN_SPECS[sorted(JOIN_SPECS)[1]])
        result = OutOfCoreJoin(
            make_algorithm("PHJ-OM"), device_budget_bytes=1 << 40
        ).join(r, s, seed=13)
        assert "host-partition" not in result.phase_seconds
        assert result.num_chunks == 1
        assert_join_equal(result.output, reference_join(r, s))

    def test_staged_all_duplicates(self):
        r = relation_from_keys(np.full(64, 3, dtype=np.int32), prefix="r", seed=14)
        s = relation_from_keys(np.full(96, 3, dtype=np.int32), prefix="s", seed=15)
        result = OutOfCoreJoin(
            make_algorithm("PHJ-OM"), device_budget_bytes=256
        ).join(r, s, seed=16)
        assert_join_equal(result.output, reference_join(r, s))
