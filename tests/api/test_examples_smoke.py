"""The fast example scripts execute end to end.

Only the quick examples run here (the heavier ones regenerate paper
figures and belong to the benchmark suite); each must exit cleanly and
print its headline result.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

FAST_EXAMPLES = {
    "quickstart.py": "Joined with",
    "gather_microscope.py": "sectors",
    "query_server.py": "Served 8 concurrent joins",
    "multi_gpu_scaling.py": "float sums bit-identical",
}


@pytest.mark.parametrize("script", sorted(FAST_EXAMPLES))
def test_example_runs(script):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"missing example {script}"
    proc = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert FAST_EXAMPLES[script] in proc.stdout


def test_all_examples_present():
    expected = {
        "quickstart.py",
        "ml_preprocessing_pipeline.py",
        "star_schema_analytics.py",
        "tpch_join_study.py",
        "planner_advisor.py",
        "gather_microscope.py",
        "advanced_pipelines.py",
        "mini_query_engine.py",
        "query_server.py",
        "multi_gpu_scaling.py",
    }
    present = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert expected <= present
