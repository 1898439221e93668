"""Segment cache: residency, counters, pressure, accounting invariant."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim.memory import DeviceMemory
from repro.tier import PlacementPolicy, SegmentCache, SegmentKey

K = lambda i, col="c", rel="R": SegmentKey(rel, col, i)  # noqa: E731


def seg_bytes(n: int) -> int:
    """Bytes of an n-row int64 column segment."""
    return 8 * n


def make_cache(capacity=None, mem_capacity=None):
    return SegmentCache(DeviceMemory(mem_capacity), capacity_bytes=capacity)


def test_admit_reserves_bytes_without_a_copy():
    cache = make_cache()
    assert cache.admit(K(0), seg_bytes(100))
    assert cache.is_resident(K(0))
    assert cache.resident_bytes == 800
    memory = cache.memory
    assert memory.current_bytes == memory.reserved_bytes == 800
    assert memory.live_allocations() == [("tier:R.c[0]", 800)]
    assert memory.alloc_count == 0  # no DeviceArray backs a segment


def test_admit_is_idempotent():
    cache = make_cache()
    assert cache.admit(K(0), seg_bytes(10))
    assert cache.admit(K(0), seg_bytes(10))
    assert cache.admissions == 1


def test_budget_decline_leaves_segment_cold():
    cache = make_cache(capacity=100)
    assert not cache.admit(K(0), seg_bytes(100))  # 800 bytes > 100
    assert cache.declined == 1
    assert not cache.is_resident(K(0))
    assert cache.resident_bytes == 0


def test_memory_oom_decline_is_graceful():
    cache = make_cache(mem_capacity=100)
    assert cache.can_fit(80)
    assert not cache.admit(K(0), seg_bytes(100))
    assert cache.declined == 1
    assert cache.memory.current_bytes == 0


def test_reservations_compete_with_segments():
    memory = DeviceMemory(1000)
    cache = SegmentCache(memory)
    reservation = memory.reserve(900, label="admission")
    assert not cache.admit(K(0), seg_bytes(50))  # 400 bytes do not fit
    reservation.free()
    assert cache.admit(K(0), seg_bytes(50))


def test_evict_frees_device_bytes():
    cache = make_cache()
    cache.admit(K(0), seg_bytes(10))
    freed = cache.evict(K(0))
    assert freed == 80
    assert cache.evictions == 1
    assert cache.resident_bytes == 0
    assert cache.memory.current_bytes == 0
    assert cache.memory.live_count == 0
    assert cache.evict(K(0)) == 0  # double evict is a no-op


def test_demote_bytes_cheapest_first_with_policy():
    cache = make_cache()
    policy = PlacementPolicy()
    for i in range(3):
        cache.admit(K(i), seg_bytes(10))
    for _ in range(5):
        policy.note_access(K(2))
    policy.note_access(K(1))
    freed = cache.demote_bytes(100, policy=policy)
    assert freed == 160  # two cheapest segments
    assert cache.is_resident(K(2))  # most valuable survives
    assert cache.demotions == 2


def test_apply_pressure_demotes_to_cap_and_lifts():
    cache = make_cache()
    for i in range(4):
        cache.admit(K(i), seg_bytes(10))  # 320 bytes resident
    freed = cache.apply_pressure(150)
    assert freed >= 170
    assert cache.resident_bytes <= 150
    assert cache.pressure_demotions == 1
    assert not cache.can_fit(80)
    cache.apply_pressure(None)
    assert cache.can_fit(80)


def test_hit_ratio_is_byte_weighted():
    cache = make_cache()
    cache.record_access(True, 300)
    cache.record_access(False, 100)
    assert cache.hit_ratio == pytest.approx(0.75)


def test_evict_relation_and_clear():
    cache = make_cache()
    cache.admit(K(0, rel="A"), seg_bytes(10))
    cache.admit(K(0, rel="B"), seg_bytes(10))
    assert cache.evict_relation("A") == 80
    assert not cache.is_resident(K(0, rel="A"))
    assert cache.is_resident(K(0, rel="B"))
    assert cache.clear() == 80
    assert cache.resident_bytes == 0


# -- the property: resident_bytes == sum of resident segment sizes ----------

OPS = st.lists(
    st.tuples(
        st.sampled_from(["admit", "evict", "demote", "pressure", "lift"]),
        st.integers(0, 11),  # key index
        st.integers(1, 64),  # segment length (x8 bytes)
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(ops=OPS, capacity=st.integers(200, 4000))
def test_accounting_invariant_across_interleavings(ops, capacity):
    """The tentpole invariant: across ANY interleaving of placement
    operations, the cache's byte accounting never drifts from the sum of
    the resident segments, and the backing DeviceMemory agrees."""
    memory = DeviceMemory(capacity)
    cache = SegmentCache(memory, capacity_bytes=capacity)
    policy = PlacementPolicy(min_residency_ticks=0)
    for op, idx, length in ops:
        if op == "admit":
            policy.note_access(K(idx))
            cache.admit(K(idx), seg_bytes(length))
        elif op == "evict":
            cache.evict(K(idx))
        elif op == "demote":
            cache.demote_bytes(length * 8, policy=policy)
        elif op == "pressure":
            cache.apply_pressure(length * 8)
        else:
            cache.apply_pressure(None)
        cache.assert_consistent()
        assert cache.resident_bytes == sum(
            n for _, n in cache.resident_items()
        )
        assert memory.current_bytes == cache.resident_bytes
        assert memory.reserved_bytes == cache.resident_bytes
        cap = cache.effective_capacity_bytes
        if cap is not None:
            assert cache.resident_bytes <= cap
