"""Device memory allocator: tracking, peaks, phases, failure modes."""

import numpy as np
import pytest

from repro.errors import AllocationError, DeviceOutOfMemoryError
from repro.gpusim.memory import BufferPool, DeviceMemory


class TestAllocFree:
    def test_alloc_counts_bytes(self):
        mem = DeviceMemory()
        arr = mem.alloc(1024, np.int32, "a")
        assert mem.current_bytes == 4096
        assert arr.nbytes == 4096
        assert arr.size == 1024

    def test_free_returns_bytes(self):
        mem = DeviceMemory()
        arr = mem.alloc(10, np.int64)
        mem.free(arr)
        assert mem.current_bytes == 0
        assert arr.freed

    def test_double_free_rejected(self):
        mem = DeviceMemory()
        arr = mem.alloc(10, np.int64)
        mem.free(arr)
        with pytest.raises(AllocationError, match="double free"):
            mem.free(arr)

    def test_use_after_free_rejected(self):
        mem = DeviceMemory()
        arr = mem.alloc(10, np.int64, "victim")
        mem.free(arr)
        with pytest.raises(AllocationError, match="use after free"):
            _ = arr.data

    def test_free_foreign_array_rejected(self):
        mem_a, mem_b = DeviceMemory(), DeviceMemory()
        arr = mem_a.alloc(10, np.int64)
        with pytest.raises(AllocationError, match="not owned"):
            mem_b.free(arr)

    def test_adopt_does_not_copy(self):
        mem = DeviceMemory()
        host = np.arange(5)
        dev = mem.adopt(host)
        assert dev.data is not None
        assert mem.current_bytes == host.nbytes

    def test_free_all_skips_already_freed(self):
        mem = DeviceMemory()
        a, b = mem.alloc(1, np.int8), mem.alloc(1, np.int8)
        mem.free(a)
        mem.free_all([a, b])
        assert mem.current_bytes == 0

    def test_free_by_prefix(self):
        mem = DeviceMemory()
        mem.alloc(1, np.int8, "part_keys_r")
        mem.alloc(1, np.int8, "part_keys_s")
        keep = mem.alloc(1, np.int8, "other")
        assert mem.free_by_prefix("part_keys_") == 2
        assert mem.live_labels == ["other"]
        mem.free(keep)


class TestPoolOwnership:
    """The pool recycles only the buffers ``alloc`` produced."""

    def test_freed_adopted_array_is_dropped(self):
        pool = BufferPool()
        mem = DeviceMemory(pool=pool)
        mem.adopt(np.arange(1000, dtype=np.int64), "adopted").free()
        assert pool.recycled == 0 and pool.pooled_bytes == 0
        assert mem.alloc(1000, np.int64).data is not None
        assert pool.hits == 0

    def test_freed_allocation_is_recycled(self):
        pool = BufferPool()
        mem = DeviceMemory(pool=pool)
        mem.alloc(1000, np.int64, zeroed=False).free()
        assert pool.recycled == 1 and pool.pooled_bytes == 8000
        mem.alloc(1000, np.int64)
        assert pool.hits == 1

    def test_allocation_still_referenced_is_not_recycled(self):
        pool = BufferPool()
        mem = DeviceMemory(pool=pool)
        arr = mem.alloc(10, np.int64)
        kept = arr.data
        arr.free()
        assert pool.recycled == 0
        assert kept.sum() == 0


class TestPeaks:
    def test_peak_tracks_high_water_mark(self):
        mem = DeviceMemory()
        a = mem.alloc(1000, np.int8)
        b = mem.alloc(2000, np.int8)
        mem.free(a)
        mem.free(b)
        assert mem.peak_bytes == 3000
        assert mem.current_bytes == 0

    def test_phase_peaks(self):
        mem = DeviceMemory()
        mem.set_phase("transform")
        a = mem.alloc(100, np.int8)
        mem.set_phase("match")
        b = mem.alloc(50, np.int8)
        mem.free(a)
        mem.set_phase(None)
        assert mem.phase_peaks["transform"] == 100
        assert mem.phase_peaks["match"] == 150
        mem.free(b)

    def test_phase_records_entry_level(self):
        mem = DeviceMemory()
        a = mem.alloc(70, np.int8)
        mem.set_phase("late")
        assert mem.phase_peaks["late"] == 70
        mem.free(a)

    def test_reset_peak(self):
        mem = DeviceMemory()
        a = mem.alloc(100, np.int8)
        mem.free(a)
        mem.reset_peak()
        assert mem.peak_bytes == 0


class TestCapacity:
    def test_oom_raises_with_details(self):
        mem = DeviceMemory(capacity_bytes=100)
        mem.alloc(60, np.int8)
        with pytest.raises(DeviceOutOfMemoryError) as info:
            mem.alloc(60, np.int8)
        assert info.value.requested == 60
        assert info.value.in_use == 60
        assert info.value.capacity == 100

    def test_oom_names_failing_label_and_live_allocations(self):
        mem = DeviceMemory(capacity_bytes=100)
        mem.alloc(40, np.int8, "build_table")
        mem.alloc(20, np.int8, "probe_keys")
        with pytest.raises(DeviceOutOfMemoryError) as info:
            mem.alloc(60, np.int8, "matches")
        err = info.value
        assert err.label == "matches"
        assert err.top_live == [("build_table", 40), ("probe_keys", 20)]
        message = str(err)
        assert "'matches'" in message
        assert "build_table=40 B" in message

    def test_oom_top_live_sorted_largest_first_ties_on_label(self):
        mem = DeviceMemory(capacity_bytes=100)
        mem.alloc(30, np.int8, "b_array")
        mem.alloc(30, np.int8, "a_array")
        mem.alloc(40, np.int8, "big")
        with pytest.raises(DeviceOutOfMemoryError) as info:
            mem.alloc(1, np.int8)
        assert info.value.top_live == [
            ("big", 40), ("a_array", 30), ("b_array", 30)
        ]

    def test_oom_message_truncates_to_top_live_limit(self):
        mem = DeviceMemory(capacity_bytes=80)
        for i in range(DeviceOutOfMemoryError.TOP_LIVE_LIMIT + 2):
            mem.alloc(10, np.int8, f"chunk{i}")
        with pytest.raises(DeviceOutOfMemoryError) as info:
            mem.alloc(60, np.int8)
        err = info.value
        assert len(err.top_live) == DeviceOutOfMemoryError.TOP_LIVE_LIMIT + 2
        assert "(+2 more)" in str(err)

    def test_free_makes_room(self):
        mem = DeviceMemory(capacity_bytes=100)
        a = mem.alloc(80, np.int8)
        mem.free(a)
        mem.alloc(80, np.int8)  # does not raise

    def test_unlimited_when_capacity_none(self):
        mem = DeviceMemory()
        mem.alloc(10 ** 7, np.int8)  # no error


class TestLeakDetection:
    def test_assert_no_leaks_passes_when_clean(self):
        mem = DeviceMemory()
        a = mem.alloc(1, np.int8, "x")
        mem.free(a)
        mem.assert_no_leaks()

    def test_assert_no_leaks_reports_labels(self):
        mem = DeviceMemory()
        mem.alloc(1, np.int8, "leaky")
        with pytest.raises(AllocationError, match="leaky"):
            mem.assert_no_leaks()

    def test_allowed_labels_are_ignored(self):
        mem = DeviceMemory()
        mem.alloc(1, np.int8, "expected")
        mem.assert_no_leaks(allowed_labels=["expected"])

    def test_live_count(self):
        mem = DeviceMemory()
        a = mem.alloc(1, np.int8)
        assert mem.live_count == 1
        mem.free(a)
        assert mem.live_count == 0


class TestReservations:
    """Bytes-only reservations (the serving admission controller's claim)."""

    def test_reserve_counts_like_an_allocation(self):
        mem = DeviceMemory(capacity_bytes=1000)
        reservation = mem.reserve(600, "query-0")
        assert mem.current_bytes == 600
        assert mem.reserved_bytes == 600
        assert mem.reserve_count == 1
        reservation.free()
        assert mem.current_bytes == 0
        assert mem.release_count == 1
        assert reservation.freed

    def test_reservations_enforce_capacity_against_allocations(self):
        mem = DeviceMemory(capacity_bytes=1000)
        mem.reserve(900, "query-0")
        with pytest.raises(DeviceOutOfMemoryError):
            mem.alloc(200, np.int8, "spill")
        with pytest.raises(DeviceOutOfMemoryError):
            mem.reserve(200, "query-1")

    def test_reservation_peak_participates_in_high_water_mark(self):
        mem = DeviceMemory()
        reservation = mem.reserve(512)
        arr = mem.alloc(64, np.int8)
        assert mem.peak_bytes == 512 + 64
        mem.free(arr)
        reservation.free()
        assert mem.peak_bytes == 512 + 64

    def test_double_release_rejected(self):
        mem = DeviceMemory()
        reservation = mem.reserve(10, "q")
        reservation.free()
        with pytest.raises(AllocationError, match="double release"):
            reservation.free()

    def test_foreign_release_rejected(self):
        mem_a, mem_b = DeviceMemory(), DeviceMemory()
        reservation = mem_a.reserve(10, "q")
        with pytest.raises(AllocationError, match="not owned"):
            mem_b.release(reservation)

    def test_reservation_as_context_manager(self):
        mem = DeviceMemory()
        with mem.reserve(128, "scoped"):
            assert mem.current_bytes == 128
        assert mem.current_bytes == 0
