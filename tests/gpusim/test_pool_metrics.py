"""BufferPool hit/miss observability: ``pool.*`` metrics in trace sessions."""

import numpy as np

from repro.gpusim.context import GPUContext
from repro.gpusim.memory import BufferPool, DeviceMemory
from repro.obs import TraceSession
from repro.query.executor import execute
from repro.query.plan import Join, Scan
from repro.relational.relation import Relation


def test_pool_counters_flow_to_sink():
    session = TraceSession("pool")
    mem = DeviceMemory(pool=BufferPool(sink=session))
    a = mem.alloc(1024, np.int64)
    a.free()  # recycled into the pool
    b = mem.alloc(1024, np.int64)  # pool hit
    c = mem.alloc(2048, np.int64)  # pool miss
    b.free()
    c.free()
    m = session.metrics
    assert m.value("pool.take_hit") == 1.0
    assert m.value("pool.take_miss") >= 2.0  # first alloc + the 2048 one
    assert m.value("pool.recycled") >= 2.0
    assert m.value("pool.pooled_bytes_peak") > 0.0


def test_pool_drop_and_clear_are_counted():
    session = TraceSession("pool")
    pool = BufferPool(max_bytes=4096, sink=session)
    mem = DeviceMemory(pool=pool)
    big = mem.alloc(4096, np.int64)  # 32 KiB > max
    big.free()
    assert session.metrics.value("pool.dropped") == 1.0
    small = mem.alloc(64, np.int64)
    small.free()
    pool.clear()
    assert session.metrics.value("pool.cleared_bytes") == 64 * 8


def test_context_wires_active_session_as_pool_sink():
    with TraceSession("wired") as session:
        ctx = GPUContext()
        assert ctx.mem.pool.sink is session


def test_query_execution_emits_pool_metrics_in_trace():
    rng = np.random.default_rng(3)
    r = Relation(
        [("key", np.arange(500, dtype=np.int64)),
         ("rp", rng.integers(0, 9, 500).astype(np.int64))],
        key="key", name="R",
    )
    s = Relation(
        [("key", rng.integers(0, 500, 5000).astype(np.int64)),
         ("sp", rng.integers(0, 9, 5000).astype(np.int64))],
        key="key", name="S",
    )
    with TraceSession("q") as session:
        execute(Join(Scan(r, "R"), Scan(s, "S")))
    m = session.metrics
    assert m.value("pool.take_miss") > 0.0  # cold pool allocates
    total = m.value("pool.take_hit") + m.value("pool.take_miss")
    assert total > 0.0
