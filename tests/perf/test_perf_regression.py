"""Perf-regression floors for the host-side hot path.

Each test measures the warm, best-of-N throughput of one hot-path
operation — no profiler, following the measurement discipline that the
simulated-kernel charges are *not* what these guard (those are pinned
bit-identically elsewhere): this is about the *host* wall-clock that
dominates native-scale (2^27) bench runs.

Floors live in ``baselines.json`` at half the reference-box throughput
(2x slack).  The ``perf`` marker lets slow or noisy environments skip
the whole module with ``-m "not perf"``; ``REPRO_PERF_SLACK=<k>``
divides every floor by ``k`` for known-slow runners.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.aggregation import AggSpec, make_groupby_algorithm
from repro.gpusim import GPUContext, KernelStats
from repro.joins.matching import match_positions
from repro.primitives.hash_table import build_table, probe_table, table_capacity
from repro.primitives.bucket_chain import bucket_chain_partition
from repro.primitives.grouping import group_identify
from repro.primitives.radix_partition import radix_partition
from repro.primitives.sector_analysis import analyze_indices, set_sector_mode
from repro.relational.relation import Relation
from repro.tier import TieredRuntime

pytestmark = pytest.mark.perf

_BASELINES = json.loads(
    (Path(__file__).parent / "baselines.json").read_text()
)
_SLACK = float(os.environ.get("REPRO_PERF_SLACK", "1") or "1")


def floor(name: str) -> float:
    return _BASELINES[name] / _SLACK


def best_seconds(fn, reps: int = 3) -> float:
    """Warm best-of-N wall-clock of ``fn()`` (one untimed warmup call)."""
    fn()
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_kernel_submit_throughput():
    """Batched kernel submission sustains the committed submits/s floor."""
    ctx = GPUContext()
    batch = [
        KernelStats(name="k", items=1024, seq_read_bytes=4096)
        for _ in range(5000)
    ]
    seconds = best_seconds(lambda: ctx.submit_many(batch, phase="match"))
    throughput = len(batch) / seconds
    assert throughput >= floor("kernel_submit_per_s"), (
        f"kernel submission at {throughput:.0f}/s, "
        f"floor {floor('kernel_submit_per_s'):.0f}/s"
    )


def test_group_identify_throughput():
    """Sort-based group identification sustains the keys/s floor."""
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 1 << 22, 1 << 20).astype(np.int32)
    seconds = best_seconds(lambda: group_identify(keys))
    throughput = keys.size / seconds
    assert throughput >= floor("group_identify_keys_per_s"), (
        f"group_identify at {throughput:.0f} keys/s, "
        f"floor {floor('group_identify_keys_per_s'):.0f}"
    )


def test_sector_count_throughput():
    """Sampled sector accounting sustains the indices/s floor."""
    rng = np.random.default_rng(3)
    indices = rng.permutation(1 << 21).astype(np.int64)
    previous = set_sector_mode("sampled")
    try:
        seconds = best_seconds(lambda: analyze_indices(indices, 4))
    finally:
        set_sector_mode(previous)
    throughput = indices.size / seconds
    assert throughput >= floor("sector_count_indices_per_s"), (
        f"sector analysis at {throughput:.0f} indices/s, "
        f"floor {floor('sector_count_indices_per_s'):.0f}"
    )


def test_match_positions_throughput():
    """The partitioned hash joins' match search sustains the probes/s floor.

    2^20 unique build keys against 2^20 probe keys, both radix
    partitioned on 10 bits as PHJ-OM lays them out.
    """
    rng = np.random.default_rng(3)
    n = 1 << 20
    build = rng.permutation(n).astype(np.int32)
    probe = rng.integers(0, n, n).astype(np.int32)
    pr = radix_partition(GPUContext(), build, [], total_bits=10).keys
    ps = radix_partition(GPUContext(), probe, [], total_bits=10).keys
    seconds = best_seconds(lambda: match_positions(pr, ps, True))
    throughput = ps.size / seconds
    assert throughput >= floor("match_positions_probes_per_s"), (
        f"match_positions at {throughput:.0f} probes/s, "
        f"floor {floor('match_positions_probes_per_s'):.0f}"
    )


def test_match_positions_sparse_throughput():
    """The sort path of the match search, on keys spread over 2^30.

    Same shape as the dense floor above, but the build keys span ~2^30
    values, far past the direct-address threshold, so this guards the
    sorted-probe binary search.
    """
    rng = np.random.default_rng(3)
    n = 1 << 20
    build = (rng.permutation(n) * 1024 + rng.integers(0, 1024, n)).astype(np.int32)
    probe = build[rng.integers(0, n, n)]
    pr = radix_partition(GPUContext(), build, [], total_bits=10).keys
    ps = radix_partition(GPUContext(), probe, [], total_bits=10).keys
    seconds = best_seconds(lambda: match_positions(pr, ps, True))
    throughput = ps.size / seconds
    assert throughput >= floor("match_positions_sparse_probes_per_s"), (
        f"sparse match_positions at {throughput:.0f} probes/s, "
        f"floor {floor('match_positions_sparse_probes_per_s'):.0f}"
    )


def test_npj_table_throughput():
    """NPJ's hash-table build plus probe, 2^20 x 2^20 tuples (tuples/s)."""
    rng = np.random.default_rng(3)
    n = 1 << 20
    build = rng.permutation(n).astype(np.int32)
    probe = rng.integers(0, n, n).astype(np.int32)
    ids = np.arange(n, dtype=np.int64)
    capacity = table_capacity(n)

    def build_and_probe():
        table = build_table(build, ids, capacity)
        probe_table(table.table_keys, table.table_values, probe)

    seconds = best_seconds(build_and_probe)
    throughput = (build.size + probe.size) / seconds
    assert throughput >= floor("npj_table_tuples_per_s"), (
        f"NPJ table build+probe at {throughput:.0f} tuples/s, "
        f"floor {floor('npj_table_tuples_per_s'):.0f}"
    )


def test_bucket_chain_throughput():
    """Bucket-chain partitioning of 2^20 (key, payload) tuples on 10 bits."""
    rng = np.random.default_rng(3)
    n = 1 << 20
    keys = rng.integers(0, 1 << 30, n).astype(np.int32)
    payload = np.arange(n, dtype=np.int32)
    ctx = GPUContext()
    seconds = best_seconds(
        lambda: bucket_chain_partition(ctx, keys, [payload], total_bits=10)
    )
    throughput = n / seconds
    assert throughput >= floor("bucket_chain_tuples_per_s"), (
        f"bucket_chain_partition at {throughput:.0f} tuples/s, "
        f"floor {floor('bucket_chain_tuples_per_s'):.0f}"
    )


def test_tier_repeat_join_throughput():
    """A tiered 2^14 x 2^16 join repeated on a warm runtime (joins/s).

    The runtime keeps the pair's join index, so a repeat pays placement,
    pricing and materialisation but not the match search.
    """
    rng = np.random.default_rng(3)
    n_r, n_s = 1 << 14, 1 << 16
    r = Relation.from_key_payloads(
        rng.permutation(n_r).astype(np.int32),
        [rng.integers(0, 1 << 20, n_r).astype(np.int32)],
        payload_prefix="r",
    )
    s = Relation.from_key_payloads(
        rng.integers(0, n_r, n_s).astype(np.int32),
        [rng.integers(0, 1 << 20, n_s).astype(np.int32)],
        payload_prefix="s",
    )
    runtime = TieredRuntime()
    reps = 10

    def joins():
        for _ in range(reps):
            runtime.run_join(r, s)

    seconds = best_seconds(joins)
    throughput = reps / seconds
    assert throughput >= floor("tier_repeat_join_per_s"), (
        f"repeated tier join at {throughput:.0f} joins/s, "
        f"floor {floor('tier_repeat_join_per_s'):.0f}/s"
    )


def test_dense_group_identify_throughput():
    """Direct-address grouping: 2^20 int32 keys over 2^18 values (keys/s)."""
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 1 << 18, 1 << 20).astype(np.int32)
    seconds = best_seconds(lambda: group_identify(keys))
    throughput = keys.size / seconds
    assert throughput >= floor("dense_group_identify_keys_per_s"), (
        f"dense group_identify at {throughput:.0f} keys/s, "
        f"floor {floor('dense_group_identify_keys_per_s'):.0f}"
    )


def test_part_agg_throughput():
    """PART-AGG/gftr: 2^20 rows into 2^16 groups, five aggregates (rows/s).

    Its radix partitions are priced and never performed, and the dense
    keys are grouped by direct addressing.
    """
    rng = np.random.default_rng(3)
    n = 1 << 20
    keys = rng.integers(0, 1 << 16, n).astype(np.int32)
    values = {"v": rng.integers(0, 1 << 16, n).astype(np.int32)}
    aggregates = [AggSpec("v", op) for op in ("sum", "count", "min", "max", "mean")]
    algorithm = make_groupby_algorithm("PART-AGG")
    seconds = best_seconds(lambda: algorithm.group_by(keys, values, aggregates))
    throughput = n / seconds
    assert throughput >= floor("part_agg_rows_per_s"), (
        f"PART-AGG at {throughput:.0f} rows/s, "
        f"floor {floor('part_agg_rows_per_s'):.0f}"
    )
