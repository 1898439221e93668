"""Phase timeline and Nsight-style profiler."""

import numpy as np
import pytest

from repro.gpusim import A100, GPUContext, KernelStats
from repro.gpusim.timeline import PhaseTimeline
from repro.gpusim.kernel import KernelRecord


def _record(name="k", seconds=1.0, phase="", **kw):
    return KernelRecord(stats=KernelStats(name=name, **kw), seconds=seconds, phase=phase)


class TestTimeline:
    def test_phase_context_attributes_records(self):
        tl = PhaseTimeline()
        with tl.phase("transform"):
            tl.add(_record(seconds=2.0))
        tl.add(_record(seconds=1.0, phase="match"))
        assert tl.phase_seconds() == {"transform": 2.0, "match": 1.0}
        assert tl.total_seconds() == 3.0

    def test_unphased_records_fall_into_other(self):
        tl = PhaseTimeline()
        tl.add(_record(seconds=1.0))
        assert tl.phase_seconds() == {"other": 1.0}

    def test_nested_phases_restore(self):
        tl = PhaseTimeline()
        with tl.phase("outer"):
            with tl.phase("inner"):
                tl.add(_record(seconds=1.0))
            tl.add(_record(seconds=2.0))
        assert tl.phase_seconds() == {"inner": 1.0, "outer": 2.0}

    def test_breakdown_orders_canonical_phases_first(self):
        tl = PhaseTimeline()
        tl.add(_record(seconds=1.0, phase="materialize"))
        tl.add(_record(seconds=1.0, phase="custom"))
        tl.add(_record(seconds=1.0, phase="transform"))
        assert list(tl.breakdown()) == ["transform", "materialize", "custom"]

    def test_records_filter_by_phase(self):
        tl = PhaseTimeline()
        tl.add(_record(phase="a"))
        tl.add(_record(phase="b"))
        assert len(tl.records("a")) == 1
        assert len(tl.records()) == 2
        assert tl.kernel_count() == 2

    def test_merged_stats(self):
        tl = PhaseTimeline()
        tl.add(_record(phase="a", items=5, seq_read_bytes=10))
        tl.add(_record(phase="a", items=7, seq_write_bytes=20))
        merged = tl.merged_stats("a")
        assert merged.items == 12
        assert merged.seq_read_bytes == 10
        assert merged.seq_write_bytes == 20


class TestProfiler:
    def test_counters_aggregate_recorded_kernels(self):
        ctx = GPUContext(device=A100)
        ctx.submit(KernelStats(name="gather:x", items=3200, seq_read_bytes=12800))
        ctx.submit(KernelStats(name="sort", items=3200, seq_read_bytes=12800))
        all_counters = ctx.profiler.counters()
        gather_only = ctx.profiler.counters(name_filter="gather")
        assert all_counters.items == 6400
        assert gather_only.items == 3200

    def test_cycles_follow_simulated_time(self):
        ctx = GPUContext(device=A100)
        seconds = ctx.submit(KernelStats(name="k", seq_read_bytes=10 ** 9))
        counters = ctx.profiler.counters()
        assert counters.total_cycles == pytest.approx(seconds * A100.clock_hz)

    def test_sectors_per_request_counter(self):
        ctx = GPUContext(device=A100)
        ctx.submit(
            KernelStats(
                name="k", random_requests=10, random_sector_touches=180,
                random_cold_sectors=50, locality_footprint_bytes=1e9,
            )
        )
        assert ctx.profiler.counters().sectors_per_request == pytest.approx(18.0)

    def test_table_rows_layout(self):
        ctx = GPUContext(device=A100)
        ctx.submit(KernelStats(name="k", items=32))
        rows = ctx.profiler.counters().as_table_rows()
        assert rows[0] == ("Number of items", 32)
        assert len(rows) == 6

    def test_clear(self):
        ctx = GPUContext(device=A100)
        ctx.submit(KernelStats(name="k", items=32))
        ctx.profiler.clear()
        assert ctx.profiler.counters().items == 0


class TestContext:
    def test_submit_validates(self):
        ctx = GPUContext(device=A100)
        with pytest.raises(ValueError):
            ctx.submit(KernelStats(name="k", seq_read_bytes=-5))

    def test_phase_scopes_memory_and_time(self):
        import numpy as np
        ctx = GPUContext(device=A100)
        with ctx.phase("transform"):
            ctx.mem.alloc(100, np.uint8, "tmp")
            ctx.submit(KernelStats(name="k", seq_read_bytes=1000))
        assert "transform" in ctx.mem.phase_peaks
        assert ctx.timeline.phase_seconds()["transform"] > 0

    def test_fork_gives_fresh_state(self):
        ctx = GPUContext(device=A100)
        ctx.submit(KernelStats(name="k", seq_read_bytes=1000))
        fork = ctx.fork()
        assert fork.device is ctx.device
        assert fork.elapsed_seconds == 0.0

    def test_rng_seeded(self):
        a = GPUContext(device=A100, seed=5).rng.integers(0, 100, 10)
        b = GPUContext(device=A100, seed=5).rng.integers(0, 100, 10)
        assert list(a) == list(b)

    def test_rng_is_created_on_first_access_from_the_seed(self):
        ctx = GPUContext(device=A100, seed=5)
        assert ctx._rng is None
        drawn = ctx.rng.integers(0, 100, 10)
        assert ctx.rng is ctx.rng
        assert list(drawn) == list(np.random.default_rng(5).integers(0, 100, 10))
