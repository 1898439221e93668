"""Result persistence for the benchmark harness.

Each benchmark writes its rendered :class:`ExperimentResult` to
``bench_results/<experiment_id>.txt`` at the repository root (or the
current working directory when run elsewhere) so EXPERIMENTS.md can
reference the regenerated tables.
"""

from __future__ import annotations

import os
from pathlib import Path

from .harness import ExperimentResult

#: Environment variable overriding the output directory.
OUTPUT_DIR_ENV = "REPRO_BENCH_RESULTS"


def results_dir() -> Path:
    """Directory for rendered experiment tables (created on demand)."""
    configured = os.environ.get(OUTPUT_DIR_ENV)
    base = Path(configured) if configured else Path.cwd() / "bench_results"
    base.mkdir(parents=True, exist_ok=True)
    return base


def save_result(result: ExperimentResult) -> Path:
    """Persist one rendered experiment table; returns the file path."""
    path = results_dir() / f"{result.experiment_id}.txt"
    path.write_text(result.render() + "\n")
    return path


def print_and_save(result: ExperimentResult) -> Path:
    """Echo the table to stdout (visible with ``pytest -s``) and save it."""
    print()
    print(result.render())
    return save_result(result)
