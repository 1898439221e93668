"""Linear-probing hash table: real inserts, probes, duplicates, touches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.primitives.hashing import hash_to_slots
from repro.primitives.hash_table import (
    EMPTY,
    build_table,
    probe_table,
    table_capacity,
)
from repro.relational.types import id_dtype


class TestCapacity:
    def test_power_of_two_and_load_factor(self):
        assert table_capacity(100, 0.5) >= 200
        cap = table_capacity(100)
        assert cap & (cap - 1) == 0

    def test_minimum(self):
        assert table_capacity(0) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            table_capacity(-1)


class TestBuild:
    def test_all_keys_inserted(self):
        keys = np.arange(100, dtype=np.int64)
        result = build_table(keys, keys * 2, table_capacity(100))
        occupied = result.table_keys != EMPTY
        assert occupied.sum() == 100
        # values co-located with their keys
        assert np.array_equal(
            result.table_values[occupied], result.table_keys[occupied] * 2
        )

    def test_duplicates_get_separate_slots(self):
        keys = np.array([7, 7, 7], dtype=np.int64)
        result = build_table(keys, np.arange(3, dtype=np.int64), 8)
        assert (result.table_keys == 7).sum() == 3

    def test_touched_slots_at_least_one_per_insert(self):
        keys = np.arange(64, dtype=np.int64)
        result = build_table(keys, keys, 128)
        assert result.touched_slots.size >= 64

    def test_collisions_increase_touches(self):
        # Full-ish table forces probing chains.
        keys = np.arange(96, dtype=np.int64)
        loose = build_table(keys, keys, 1024)
        tight = build_table(keys, keys, 128)
        assert tight.touched_slots.size >= loose.touched_slots.size

    def test_overfull_rejected(self):
        with pytest.raises(ReproError, match="insert"):
            build_table(np.arange(10, dtype=np.int64), np.arange(10), 8)

    def test_negative_keys_rejected(self):
        with pytest.raises(ReproError, match="non-negative"):
            build_table(np.array([-1], dtype=np.int64), np.array([0]), 8)


class TestProbe:
    def test_finds_matches(self):
        keys = np.array([1, 5, 9], dtype=np.int64)
        built = build_table(keys, np.array([10, 50, 90], dtype=np.int64), 8)
        probe = probe_table(built.table_keys, built.table_values,
                            np.array([5, 2, 9], dtype=np.int64))
        assert list(probe.probe_indices) == [0, 2]
        assert list(probe.build_values) == [50, 90]

    def test_finds_all_duplicates(self):
        keys = np.array([4, 4, 8], dtype=np.int64)
        built = build_table(keys, np.array([0, 1, 2], dtype=np.int64), 16)
        probe = probe_table(built.table_keys, built.table_values,
                            np.array([4], dtype=np.int64))
        assert list(probe.probe_indices) == [0, 0]
        assert sorted(probe.build_values) == [0, 1]

    def test_probe_major_order(self):
        keys = np.arange(50, dtype=np.int64)
        built = build_table(keys, keys, 128)
        probe_keys = np.array([30, 10, 20, 10], dtype=np.int64)
        probe = probe_table(built.table_keys, built.table_values, probe_keys)
        assert list(probe.probe_indices) == [0, 1, 2, 3]

    def test_no_matches(self):
        built = build_table(np.array([1], dtype=np.int64), np.array([0]), 8)
        probe = probe_table(built.table_keys, built.table_values,
                            np.array([99], dtype=np.int64))
        assert probe.probe_indices.size == 0

    def test_empty_probe(self):
        built = build_table(np.array([1], dtype=np.int64), np.array([0]), 8)
        probe = probe_table(built.table_keys, built.table_values,
                            np.empty(0, dtype=np.int64))
        assert probe.probe_indices.size == 0
        assert probe.rounds == 0


@settings(max_examples=40, deadline=None)
@given(
    build=st.lists(st.integers(0, 200), min_size=1, max_size=120),
    probe=st.lists(st.integers(0, 250), max_size=120),
)
def test_probe_matches_reference_semantics(build, probe):
    build_arr = np.asarray(build, dtype=np.int64)
    probe_arr = np.asarray(probe, dtype=np.int64)
    built = build_table(build_arr, np.arange(build_arr.size, dtype=np.int64),
                        table_capacity(build_arr.size))
    result = probe_table(built.table_keys, built.table_values, probe_arr)
    pairs = set(zip(result.probe_indices.tolist(), result.build_values.tolist()))
    expected = {
        (si, bi)
        for si, sk in enumerate(probe)
        for bi, bk in enumerate(build)
        if sk == bk
    }
    assert pairs == expected


# -- differential: the linear-time claim and hit order vs the sort-based
# implementation they replaced (frozen copies below) ------------------------


def _frozen_build(keys, values, capacity):
    """Round-by-round insert; each slot's first writer found by a stable sort."""
    table_keys = np.full(capacity, EMPTY, dtype=np.int64)
    table_values = np.zeros(capacity, dtype=np.int64)
    cur = hash_to_slots(keys, capacity)
    pending = np.arange(keys.size, dtype=np.int64)
    touched = []
    rounds = 0
    while pending.size:
        rounds += 1
        slots = cur[pending]
        touched.append(slots.copy())
        order = np.argsort(slots, kind="stable")
        slots_sorted = slots[order]
        pending_sorted = pending[order]
        is_first = np.ones(slots_sorted.size, dtype=bool)
        is_first[1:] = slots_sorted[1:] != slots_sorted[:-1]
        candidates = pending_sorted[is_first]
        candidate_slots = slots_sorted[is_first]
        free = table_keys[candidate_slots] == EMPTY
        winners = candidates[free]
        winner_slots = candidate_slots[free]
        table_keys[winner_slots] = keys[winners]
        table_values[winner_slots] = values[winners]
        done = np.zeros(keys.size, dtype=bool)
        done[winners] = True
        pending = pending[~done[pending]]
        cur[pending] = (cur[pending] + 1) % capacity
    all_touched = np.concatenate(touched) if touched else np.empty(0, dtype=np.int64)
    return table_keys, table_values, all_touched, rounds


def _frozen_probe(table_keys, table_values, probe_keys):
    """Walk every probe's run; order the hits by (probe, build value)."""
    capacity = table_keys.size
    cur = hash_to_slots(probe_keys, capacity)
    active = np.arange(probe_keys.size, dtype=np.int64)
    hits_probe, hits_value, touched = [], [], []
    rounds = 0
    while active.size:
        rounds += 1
        slots = cur[active]
        touched.append(slots.copy())
        slot_keys = table_keys[slots]
        empty = slot_keys == EMPTY
        hit = slot_keys == probe_keys[active]
        if hit.any():
            hits_probe.append(active[hit])
            hits_value.append(table_values[slots[hit]])
        survivors = active[~empty]
        cur[survivors] = (cur[survivors] + 1) % capacity
        active = survivors
    if hits_probe:
        probe_idx = np.concatenate(hits_probe)
        build_vals = np.concatenate(hits_value)
        order = np.lexsort((build_vals, probe_idx))
        probe_idx, build_vals = probe_idx[order], build_vals[order]
    else:
        probe_idx = np.empty(0, dtype=np.int64)
        build_vals = np.empty(0, dtype=np.int64)
    all_touched = np.concatenate(touched) if touched else np.empty(0, dtype=np.int64)
    return probe_idx, build_vals, all_touched, rounds


def _at_key_width(frozen, key_dtype, capacity):
    """The frozen build with its int64 table keys at the (signed) keys'
    own width, which the live table stores them at, and its int64
    touched slots at the table's slot-id width."""
    table_keys, table_values, touched, rounds = frozen
    return table_keys.astype(key_dtype), table_values, _at_id_width(touched, capacity), rounds


def _at_id_width(ids, count):
    """Frozen int64 row or slot ids at the live :func:`id_dtype` width:
    the values are compared as they were, the width is the live one."""
    assert ids.dtype == np.int64
    return ids.astype(id_dtype(count))


def _probe_at_id_width(frozen, probe_rows, capacity):
    """The frozen probe with its probe indices and touched slots at the
    live ID widths."""
    probe_idx, build_vals, touched, rounds = frozen
    return (
        _at_id_width(probe_idx, probe_rows), build_vals,
        _at_id_width(touched, capacity), rounds,
    )


def _assert_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)
        else:
            assert g == w


@st.composite
def _table_case(draw):
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    # A narrow domain forces duplicate build keys (the sorted hit order)
    # and, with a tight capacity, many collision rounds.
    domain = draw(st.sampled_from([3, 40, 2**31 - 6]))
    unique = draw(st.booleans())
    build = draw(st.lists(st.integers(0, domain), max_size=150, unique=unique))
    probe = draw(st.lists(st.integers(0, domain + 5), max_size=150))
    # At least one slot stays empty, so every probe run ends.
    slack = draw(st.sampled_from([1, 2, 8]))
    capacity = 1 << max(1, (len(build) * slack).bit_length())
    return (
        np.asarray(build, dtype=dtype),
        np.asarray(probe, dtype=dtype),
        capacity,
    )


@settings(max_examples=200, deadline=None)
@given(case=_table_case())
def test_build_and_probe_match_frozen_sort_implementation(case):
    build, probe, capacity = case
    values = np.arange(build.size, dtype=np.int64)[::-1].copy()
    built = build_table(build, values, capacity)
    _assert_identical(
        (built.table_keys, built.table_values, built.touched_slots, built.rounds),
        _at_key_width(_frozen_build(build, values, capacity), build.dtype, capacity),
    )
    probed = probe_table(built.table_keys, built.table_values, probe)
    _assert_identical(
        (probed.probe_indices, probed.build_values, probed.touched_slots, probed.rounds),
        _probe_at_id_width(
            _frozen_probe(built.table_keys, built.table_values, probe), probe.size, capacity
        ),
    )


@pytest.mark.parametrize("unique", [True, False])
def test_build_and_probe_match_frozen_at_scale(unique):
    """2^14 keys into a half-full table, as NPJ sizes it."""
    rng = np.random.default_rng(5)
    n = 1 << 14
    build = rng.permutation(n).astype(np.int32)
    if not unique:
        build //= 4
    probe = rng.integers(0, n + n // 8, n).astype(np.int32)
    values = np.arange(n, dtype=np.int64)
    capacity = table_capacity(n)
    built = build_table(build, values, capacity)
    _assert_identical(
        (built.table_keys, built.table_values, built.touched_slots, built.rounds),
        _at_key_width(_frozen_build(build, values, capacity), build.dtype, capacity),
    )
    probed = probe_table(built.table_keys, built.table_values, probe)
    _assert_identical(
        (probed.probe_indices, probed.build_values, probed.touched_slots, probed.rounds),
        _probe_at_id_width(
            _frozen_probe(built.table_keys, built.table_values, probe), probe.size, capacity
        ),
    )


# -- independent reference: plain-Python inserts --------------------------


def _reference_build(keys, values, capacity):
    """Round-by-round linear-probing inserts in plain Python.

    Each round, every pending row tries its current slot in row order;
    the first pending writer of a slot wins it if the slot is empty, and
    every other row moves one slot on.  The slot of a key is the top
    ``log2(capacity)`` bits of its 64-bit word times the Fibonacci
    multiplier.  Returns ``(table keys, table values, touched slots,
    rounds)`` as lists, -1 marking an empty slot.
    """
    shift = 64 - (capacity.bit_length() - 1)
    key_list = [int(k) for k in keys]
    value_list = [int(v) for v in values]
    slot = [((k % 2**64) * 11400714819323198485 % 2**64) >> shift for k in key_list]
    table_keys = [-1] * capacity
    table_values = [0] * capacity
    pending = list(range(len(key_list)))
    touched = []
    rounds = 0
    while pending:
        rounds += 1
        claimed = set()
        losers = []
        for row in pending:
            s = slot[row]
            touched.append(s)
            first = s not in claimed
            claimed.add(s)
            if first and table_keys[s] == -1:
                table_keys[s] = key_list[row]
                table_values[s] = value_list[row]
            else:
                losers.append(row)
        for row in losers:
            slot[row] = (slot[row] + 1) % capacity
        pending = losers
    return table_keys, table_values, touched, rounds


def _assert_matches_reference(keys, capacity):
    values = np.arange(keys.size, dtype=np.int64)[::-1] * 3
    built = build_table(keys, values, capacity)
    want_keys, want_values, want_touched, want_rounds = _reference_build(keys, values, capacity)
    assert built.table_keys.tolist() == want_keys
    assert built.table_values.tolist() == want_values
    assert built.touched_slots.tolist() == want_touched
    assert built.rounds == want_rounds
    return built.rounds


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint32])
@pytest.mark.parametrize("rows", [1, 2, 37, 500])
def test_dense_keys_insert_in_one_round_like_the_reference(dtype, rows):
    """A permutation of ``[0, n)`` hashes to distinct slots: one round."""
    keys = np.random.default_rng(rows).permutation(rows).astype(dtype)
    assert _assert_matches_reference(keys, table_capacity(rows)) == 1


@pytest.mark.parametrize("seed", range(4))
def test_colliding_keys_match_the_reference_over_many_rounds(seed):
    """Wide random keys packed into a nearly full table."""
    rng = np.random.default_rng(seed)
    keys = rng.choice(2**40, size=120, replace=False).astype(np.int64)
    assert _assert_matches_reference(keys, 128) > 3


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_duplicate_keys_match_the_reference(dtype):
    """Repeated keys share a home slot and queue along its run, one
    copy per round: five copies of 7 take five rounds at least."""
    keys = np.array([7, 7, 3, 7, 9, 3, 7, 0, 7], dtype=dtype)
    assert _assert_matches_reference(keys, 16) >= 5


@settings(max_examples=100, deadline=None)
@given(
    keys=st.lists(st.integers(0, 2**31 - 1), max_size=60),
    slack=st.sampled_from([1, 2, 8]),
)
def test_build_matches_the_reference(keys, slack):
    capacity = 1 << max(1, (len(keys) * slack).bit_length())
    _assert_matches_reference(np.asarray(keys, dtype=np.int64), capacity)


# -- widths and edge sizes -------------------------------------------------


@pytest.mark.parametrize(
    "key_dtype,table_dtype",
    [
        (np.int8, np.int8), (np.int16, np.int16), (np.int32, np.int32),
        (np.int64, np.int64), (np.uint8, np.int16), (np.uint16, np.int32),
        (np.uint32, np.int64), (np.uint64, np.int64),
    ],
    ids=lambda d: np.dtype(d).name,
)
def test_table_holds_keys_at_their_own_width(key_dtype, table_dtype):
    """Signed keys keep their dtype; unsigned ones the next signed width
    that also holds EMPTY; values keep theirs."""
    top = min(int(np.iinfo(key_dtype).max), int(np.iinfo(np.int64).max))
    keys = np.array([0, 3, top, 3], dtype=key_dtype)
    values = np.arange(4, dtype=np.int32)
    built = build_table(keys, values, table_capacity(4))
    assert built.table_keys.dtype == table_dtype
    assert built.table_values.dtype == np.int32
    stored = built.table_keys[built.table_keys != EMPTY]
    assert sorted(stored.tolist()) == sorted(keys.tolist())
    probed = probe_table(built.table_keys, built.table_values, keys)
    assert probed.build_values.dtype == np.int32
    assert probed.probe_indices.tolist() == [0, 1, 1, 2, 3, 3]
    assert probed.build_values.tolist() == [0, 1, 3, 2, 1, 3]


@pytest.mark.parametrize("key_dtype", [np.int32, np.int64, np.uint32])
@pytest.mark.parametrize("rows", [0, 1])
def test_zero_and_one_row_builds(key_dtype, rows):
    """Round 1 skips the table read; it must not run on an empty build."""
    keys = np.arange(rows, dtype=key_dtype) + key_dtype(7)
    values = np.arange(rows, dtype=np.int32)
    capacity = table_capacity(rows)
    built = build_table(keys, values, capacity)
    frozen_keys, frozen_values, frozen_touched, frozen_rounds = _frozen_build(
        keys, values, capacity
    )
    assert built.rounds == frozen_rounds == rows
    assert built.touched_slots.dtype == id_dtype(capacity) == np.int32
    assert np.array_equal(built.touched_slots, frozen_touched)
    assert built.touched_slots.size == rows
    assert np.array_equal(built.table_keys, frozen_keys)
    assert np.array_equal(built.table_values, frozen_values)
    probe = np.array([7, 8, 7], dtype=key_dtype)
    probed = probe_table(built.table_keys, built.table_values, probe)
    frozen = _probe_at_id_width(
        _frozen_probe(built.table_keys, built.table_values, probe), probe.size, capacity
    )
    _assert_identical(
        (probed.probe_indices, probed.touched_slots, probed.rounds),
        (frozen[0], frozen[2], frozen[3]),
    )
    # Hits carry the table's value dtype, with or without a match.
    assert probed.build_values.dtype == np.int32
    assert np.array_equal(probed.build_values, frozen[1])
    assert probed.probe_indices.tolist() == ([0, 2] if rows else [])


@pytest.mark.parametrize("capacity", [2**30, 2**31, 2**32], ids=lambda c: f"2^{c.bit_length() - 1}")
def test_slot_ids_widen_past_2_31_slots(capacity):
    """Touched slots are int32 ids up to 2^30 slots and int64 from 2^31.

    A read-only all-EMPTY table is one broadcast scalar, so a 2^32-slot
    table costs no memory: every probe misses in round 1."""
    table_keys = np.broadcast_to(np.int32(EMPTY), (capacity,))
    table_values = np.broadcast_to(np.int32(0), (capacity,))
    probe = np.array([3, 0, 2**31 - 1, 3], dtype=np.int32)
    probed = probe_table(table_keys, table_values, probe)
    assert probed.rounds == 1
    assert probed.probe_indices.size == 0
    assert probed.probe_indices.dtype == np.int32  # four probe rows
    assert probed.touched_slots.dtype == (np.int32 if capacity < 2**31 else np.int64)
    assert np.array_equal(probed.touched_slots, hash_to_slots(probe, capacity))


def test_row_ids_widen_at_2_31_rows():
    """The width rule every table and join applies to row ids: int32 for
    2^31 - 1 rows (largest id 2^31 - 2), int64 from 2^31 rows."""
    assert id_dtype(2**31 - 1) == np.int32
    assert id_dtype(2**31) == np.int64
    assert id_dtype(0) == np.int32


def test_uint64_keys_past_int64_refused():
    """The table stores uint64 keys as int64, where 2^64 - 1 would be EMPTY."""
    keys = np.array([1, 2**64 - 1], dtype=np.uint64)
    with pytest.raises(ReproError, match="below 2\\^63"):
        build_table(keys, np.arange(2), 8)
