"""tools/bench_record.py keeps one entry per (source digest, seed)."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "bench_record.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def entry(source, seed, host_ms):
    return {"source_sha256": source, "seed": seed, "record": {"host_ms_p50": host_ms}}


def test_store_appends_new_sources_and_replaces_a_rerun(tmp_path, monkeypatch):
    tool = load_tool()
    monkeypatch.setattr(tool, "RECORDS", tmp_path / "bench_records")
    path = tool.store("w", entry("parent", 1, 4.0))
    tool.store("w", entry("change", 1, 2.0))
    tool.store("w", entry("change", 2, 2.2))
    tool.store("w", entry("change", 1, 1.9))  # same source and seed: replaced
    assert path == tmp_path / "bench_records" / "BENCH_w.json"
    saved = json.loads(path.read_text())
    assert saved["workload"] == "w"
    assert [(e["source_sha256"], e["seed"], e["record"]["host_ms_p50"])
            for e in saved["records"]] == [
        ("parent", 1, 4.0), ("change", 2, 2.2), ("change", 1, 1.9)
    ]
