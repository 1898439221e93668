"""Relation container: construction, validation, transforms, comparison."""

import hashlib

import numpy as np
import pytest

import repro
from repro.errors import InvalidRelationError
from repro.relational import Relation
from repro.relational import relation as relation_module


def _rel(n=10, payloads=2, key="key"):
    rng = np.random.default_rng(0)
    columns = [(key, np.arange(n, dtype=np.int32))]
    for i in range(payloads):
        columns.append((f"p{i + 1}", rng.integers(0, 100, n).astype(np.int32)))
    return Relation(columns, key=key)


class TestConstruction:
    def test_from_dict(self):
        rel = Relation({"k": np.arange(3, dtype=np.int32)}, key="k")
        assert rel.num_rows == 3

    def test_from_key_payloads(self):
        rel = Relation.from_key_payloads(
            np.arange(4, dtype=np.int32),
            [np.arange(4, dtype=np.int32)],
            payload_prefix="x",
        )
        assert rel.payload_names == ["x1"]
        assert rel.key == "key"

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InvalidRelationError, match="rows"):
            Relation(
                [("k", np.arange(3, dtype=np.int32)),
                 ("p", np.arange(4, dtype=np.int32))],
                key="k",
            )

    def test_missing_key_rejected(self):
        with pytest.raises(InvalidRelationError, match="key column"):
            Relation([("a", np.arange(3, dtype=np.int32))], key="k")

    def test_2d_column_rejected(self):
        with pytest.raises(InvalidRelationError, match="1-D"):
            Relation([("k", np.zeros((2, 2), dtype=np.int32))], key="k")

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(KeyError):
            Relation([("k", np.zeros(3, dtype=np.float64))], key="k")

    def test_empty_relation_rejected(self):
        with pytest.raises(InvalidRelationError, match="at least one column"):
            Relation([], key="k")


class TestShape:
    def test_counts_and_bytes(self):
        rel = _rel(n=10, payloads=2)
        assert rel.num_rows == 10
        assert rel.num_payload_columns == 2
        assert rel.total_bytes == 3 * 10 * 4
        assert rel.column_names == ["key", "p1", "p2"]
        assert rel.payload_names == ["p1", "p2"]

    def test_contains(self):
        rel = _rel()
        assert "p1" in rel
        assert "nope" not in rel

    def test_column_lookup_error(self):
        with pytest.raises(InvalidRelationError, match="nope"):
            _rel().column("nope")

    def test_key_values(self):
        rel = _rel(n=5)
        assert np.array_equal(rel.key_values, np.arange(5))


class TestTransforms:
    def test_take_reorders_all_columns(self):
        rel = _rel(n=5)
        taken = rel.take(np.array([4, 0]))
        assert list(taken.key_values) == [4, 0]
        assert taken.column("p1")[0] == rel.column("p1")[4]

    def test_rename(self):
        rel = _rel(n=3).rename({"key": "id", "p1": "a"})
        assert rel.key == "id"
        assert "a" in rel

    def test_head(self):
        assert _rel(n=10).head(3).num_rows == 3

    def test_payload_columns_excludes_key(self):
        assert list(_rel().payload_columns()) == ["p1", "p2"]


class TestComparison:
    def test_equals_unordered_same_rows(self):
        rel = _rel(n=20)
        shuffled = rel.take(np.random.default_rng(1).permutation(20))
        assert rel.equals_unordered(shuffled)

    def test_equals_unordered_detects_difference(self):
        rel = _rel(n=5)
        columns = {n: a.copy() for n, a in rel.columns().items()}
        columns["p1"][0] += 1
        other = Relation(columns, key=rel.key)
        assert not rel.equals_unordered(other)

    def test_equals_unordered_different_schemas(self):
        assert not _rel(payloads=1).equals_unordered(_rel(payloads=2))

    def test_equals_unordered_different_row_counts(self):
        assert not _rel(n=4).equals_unordered(_rel(n=5))

    def test_sorted_by_all_columns_is_canonical(self):
        rel = _rel(n=20)
        a = rel.take(np.random.default_rng(2).permutation(20)).sorted_by_all_columns()
        b = rel.take(np.random.default_rng(3).permutation(20)).sorted_by_all_columns()
        assert np.array_equal(a.key_values, b.key_values)


class TestValueFacts:
    """A relation is a read-only value that carries its own facts."""

    def test_a_callers_write_to_a_stored_array_raises(self):
        keys = np.arange(8, dtype=np.int32)
        rel = Relation({"key": keys}, key="key")
        with pytest.raises(ValueError, match="read-only"):
            keys[0] = 7
        with pytest.raises(ValueError, match="read-only"):
            rel.key_values[0] = 7
        assert rel.key_values.tolist() == list(range(8))

    def test_key_uniqueness_is_detected_once_per_relation(self, monkeypatch):
        calls = []
        real = relation_module.detect_unique_keys

        def spy(keys):
            calls.append(keys.size)
            return real(keys)

        monkeypatch.setattr(relation_module, "detect_unique_keys", spy)
        rng = np.random.default_rng(4)
        payloads = [rng.integers(0, 100, 600).astype(np.int32)] * 2
        r = Relation.from_key_payloads(
            rng.permutation(600).astype(np.int32), payloads, payload_prefix="r"
        )
        s = Relation.from_key_payloads(
            rng.integers(0, 600, 600).astype(np.int32), payloads, payload_prefix="s"
        )
        for algorithm in ("PHJ-OM", "SMJ-OM", "PHJ-OM", "NPJ"):
            repro.join(r, s, algorithm=algorithm, seed=0)
        assert calls == [600]
        assert r.key_is_unique and not s.key_is_unique
        assert calls == [600, 600]

    def test_fingerprint_hashes_schema_and_bytes(self):
        rel = _rel(n=50)
        digest = hashlib.blake2b(digest_size=16)
        digest.update(rel.key.encode("utf-8"))
        for name, array in rel.columns().items():
            digest.update(b"\x00")
            digest.update(name.encode("utf-8"))
            digest.update(str(array.dtype).encode("ascii"))
            digest.update(array.tobytes())
        assert rel.fingerprint == digest.hexdigest()
        assert _rel(n=50).fingerprint == rel.fingerprint
