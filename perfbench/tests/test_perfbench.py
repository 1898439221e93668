"""Self-test of the repo benchmark, at reduced size.

    python3 -m pytest perfbench/tests -q

Each workload runs twice with one seed.  The test checks that every
metric named in BENCHMARK.json is emitted with its unit, that the
``sim_*`` values repeat exactly, and that ``failed_frac`` is failures
divided by attempted.  It also checks that a deliberately corrupted
output is caught by the correctness gate.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3

sys.path.insert(0, str(BENCH))
import run  # noqa: E402

run._import_library()
import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402


def _invoke(workload: str, trace: int):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace),
         "--size", "small"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def timed_twice(request):
    return [_invoke(request.param, 0) for _ in range(2)]


def test_every_end_to_end_metric_is_emitted_with_its_unit(timed_twice):
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for _, result in timed_twice:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == expected
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_sim_metrics_repeat_exactly(timed_twice):
    first, second = (
        {k: v["value"] for k, v in result["metrics"].items() if k.startswith("sim_")}
        for _, result in timed_twice
    )
    assert first and first == second


def test_failed_frac_is_failures_over_attempted(timed_twice):
    for record, result in timed_twice:
        assert result["attempted"] >= 1
        assert record["failed"] == result["failed"]
        assert record["failed_frac"] == result["failed"] / result["attempted"]
        assert result["correct"] is True


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    record, result = _invoke(workload, 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert "obs.trace_overhead_frac" in result["metrics"]
    assert record["extra"]["spans"] > 0


def test_layer_map_matches_benchmark_json():
    mapped = [m for entry in layers.LAYER_MAP.values() for m in entry["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    for entry in layers.LAYER_MAP.values():
        assert set(entry["workloads"]) <= set(WORKLOADS)


def test_timed_run_never_imports_the_tracer():
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); import run; "
        "run.main(['--workload', 'join-wide', '--seed', '1', '--seconds', '0.1', "
        "'--size', 'small']); assert 'layers' not in sys.modules"
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr


def test_tracer_patches_every_binding_and_restores_them():
    import importlib

    from repro.gpusim.context import GPUContext

    # The package re-exports the function ``gather``, which shadows the
    # submodule of the same name under attribute access.
    gather_module = importlib.import_module("repro.primitives.gather")
    sector_module = importlib.import_module("repro.primitives.sector_analysis")

    before = (sector_module.analyze_indices, gather_module.analyze_indices,
              vars(GPUContext)["submit"])
    tracer = layers.Tracer().install()
    try:
        assert sector_module.analyze_indices is not before[0]
        assert gather_module.analyze_indices is sector_module.analyze_indices
        assert vars(GPUContext)["submit"] is not before[2]
    finally:
        tracer.uninstall()
    assert (sector_module.analyze_indices, gather_module.analyze_indices,
            vars(GPUContext)["submit"]) == before


def _corrupt(output):
    """A copy of *output* with one value changed."""
    columns = workloads.columns_of(output)
    name = list(columns)[-1]
    bad = dict(columns)
    bad[name] = np.array(columns[name], copy=True)
    bad[name][0] += 1
    return bad


def test_corrupted_batch_output_is_caught(monkeypatch):
    original = workloads.Op.run

    def corrupt_one(op):
        output, sim = original(op)
        if op.name in ("join/NPJ", "agg/g2^4-z1/shards4"):
            return _corrupt(output), sim
        return output, sim

    monkeypatch.setattr(workloads.Op, "run", corrupt_one)
    for name, victim in (("join-wide", "join/NPJ"), ("groupby-modes", "agg/g2^4-z1/shards4")):
        outcome = run.run(name, SEED, 0.1, False, "small")
        assert not outcome["correct"]
        assert outcome["failed"] >= 1
        assert any(key.startswith(victim) for key in outcome["mismatches"])
        assert outcome["failed_frac"] == outcome["failed"] / outcome["attempted"]


def test_corrupted_served_output_is_caught(monkeypatch):
    from repro.serve import QueryServer

    original = QueryServer.run

    def corrupting_run(server, until_s=None):
        outcomes = original(server, until_s)
        for outcome in outcomes:
            if outcome.status == "completed" and outcome.output is not None \
                    and outcome.query_id == 5:
                outcome.output = _corrupt(outcome.output)
        return outcomes

    monkeypatch.setattr(QueryServer, "run", corrupting_run)
    outcome = run.run("serve-tier-rw", SEED, 1.0, False, "small")
    assert not outcome["correct"]
    assert sum(outcome["mismatches"].values()) == 1
    assert outcome["failed"] == 1 + sum(outcome["not_completed"].values())
    assert any("differs from plain execute()" in key for key in outcome["mismatches"])


def test_cancelled_queries_are_failed_not_wrong(monkeypatch):
    # A deadline below every kernel's cost cancels each query that runs
    # a kernel; result-cache hits still complete.
    monkeypatch.setattr(workloads, "SERVE_DEADLINE_S", 1e-9)
    outcome = run.run("serve-tier-rw", SEED, 1.0, False, "small")
    assert outcome["correct"]
    assert not outcome["mismatches"]
    assert outcome["not_completed"]["cancelled"] > 0
    assert outcome["failed"] == sum(outcome["not_completed"].values())
    assert outcome["failed_frac"] == outcome["failed"] / outcome["attempted"]


def test_main_exits_nonzero_and_lists_mismatch(monkeypatch, capsys):
    original = workloads.Op.run

    def corrupt_all(op):
        output, sim = original(op)
        return _corrupt(output), sim

    monkeypatch.setattr(workloads.Op, "run", corrupt_all)
    code = run.main(["--workload", "join-wide", "--seed", str(SEED), "--seconds", "0.1",
                     "--size", "small"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 1
    assert any(line.startswith("MISMATCH join/PHJ-OM") for line in lines)
    assert json.loads(lines[-1])["correct"] is False


def test_value_fingerprint_ignores_order_and_width_only():
    table = {"key": np.arange(8, dtype=np.int32), "v": np.arange(8) * 2.5}
    shuffled = {name: column[::-1] for name, column in table.items()}
    widened = {"key": table["key"].astype(np.int64), "v": table["v"]}
    swapped = {"key": table["key"], "v": table["v"][[1, 0, 2, 3, 4, 5, 6, 7]]}
    base = reference.value_fingerprint(table)
    assert base == reference.value_fingerprint(shuffled)
    assert base == reference.value_fingerprint(widened)
    assert base != reference.value_fingerprint(swapped)


def test_reference_group_by_is_exact_beyond_float53():
    keys = np.array([1, 1, 2], dtype=np.int32)
    values = {"v": np.array([2**60, 1, 5], dtype=np.int64)}
    out = reference.group_by(keys, values, [("v", "sum"), ("v", "count"), ("v", "max")])
    assert out["sum_v"].tolist() == [2**60 + 1, 5]
    assert out["count_v"].tolist() == [2, 1]
    assert out["max_v"].tolist() == [2**60, 5]
