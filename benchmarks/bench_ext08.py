"""ext08: heterogeneous segment cache — hit ratio vs throughput.

Regenerates the experiment table into ``bench_results/ext08.txt``.
Run: ``pytest benchmarks/bench_ext08.py --benchmark-only -s``
"""

from repro.bench.experiments import ext08

from _common import SWEEP_SCALE, run_and_report


def test_ext08(benchmark):
    result = run_and_report(benchmark, ext08.run, SWEEP_SCALE)
    assert result.findings["bit_identity"] == 1.0
    assert result.findings["dataset_to_device_mem"] >= 4.0
    assert result.findings["speedup_vs_all_cpu"] >= 2.0
    assert result.findings["speedup_vs_no_cache"] > 1.0
    assert result.findings["tiered_hit_ratio"] > 0.3
    assert result.findings["staging_saved_mb"] > 0
    assert result.findings["tier_admission_spans_counted"] > 0
