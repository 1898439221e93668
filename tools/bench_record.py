"""Record one perfbench workload on both clocks into ``bench_records/``.

Runs ``perfbench/run.py`` twice for one workload and seed, in separate
processes: a timed run (``--trace 0``, the end-to-end metrics and the
``{"record": ...}`` line) and a traced run (``--trace 1``, the per-layer
table).  The pair goes into ``bench_records/BENCH_<workload>.json`` as
one entry, next to earlier entries, so the file is the workload's
performance trajectory.  An entry is identified by its source digest
and seed; re-recording the same source and seed replaces it.

    python tools/bench_record.py --workload serve-tier-rw --seed 1 --label change
    python tools/bench_record.py --workload serve-tier-rw --seed 1 \\
        --checkout ../parent --label parent

``--checkout`` runs another checkout's perfbench and library (e.g. the
parent commit, for a before/after pair); the record is still written
into this repository.  Host times are normalised by perfbench's speed
probe; take records on an otherwise idle machine.  The run length is
perfbench's own; each record's ``provenance.seconds`` carries it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

REPO = Path(__file__).resolve().parent.parent
RECORDS = REPO / "bench_records"


def run_perfbench(checkout: Path, workload: str, seed: int, trace: int) -> List[dict]:
    """The JSON lines one perfbench run prints; raises if it fails."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--trace", str(trace),
    ]
    done = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True, check=False
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{' '.join(command)} exited with {done.returncode}:\n{done.stderr}"
        )
    return [
        json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")
    ]


def record_line(lines: List[dict]) -> dict:
    return next(line["record"] for line in lines if "record" in line)


def result_line(lines: List[dict]) -> dict:
    return next(line for line in lines if "correct" in line)


def is_dirty(checkout: Path) -> bool:
    """True when the checkout's library or benchmark differs from HEAD."""
    done = subprocess.run(
        ["git", "status", "--porcelain", "--", "src", "perfbench"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    return done.returncode != 0 or bool(done.stdout.strip())


def make_entry(
    checkout: Path, workload: str, seed: int, label: str
) -> Dict[str, object]:
    timed = run_perfbench(checkout, workload, seed, 0)
    traced = run_perfbench(checkout, workload, seed, 1)
    record = record_line(timed)
    provenance = record["provenance"]
    return {
        "label": label,
        "git_revision": provenance["git_revision"],
        "dirty": is_dirty(checkout),
        "source_sha256": provenance["source_sha256"],
        "seed": seed,
        "speed_factor": record["extra"]["speed_factor"],
        "correct": result_line(timed)["correct"] and result_line(traced)["correct"],
        "record": record,
        "per_layer": result_line(traced)["metrics"],
    }


def store(workload: str, entry: Dict[str, object]) -> Path:
    """Add *entry* to the workload's record file; returns its path."""
    RECORDS.mkdir(exist_ok=True)
    path = RECORDS / f"BENCH_{workload}.json"
    entries = []
    if path.exists():
        entries = json.loads(path.read_text())["records"]
    identity = (entry["source_sha256"], entry["seed"])
    entries = [e for e in entries if (e["source_sha256"], e["seed"]) != identity]
    entries.append(entry)
    path.write_text(
        json.dumps({"workload": workload, "records": entries}, indent=1) + "\n"
    )
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--label", default="", help="free text, e.g. parent/change")
    parser.add_argument(
        "--checkout", type=Path, default=REPO,
        help="checkout whose perfbench and library to run (default: this one)",
    )
    args = parser.parse_args(argv)
    entry = make_entry(args.checkout.resolve(), args.workload, args.seed, args.label)
    path = store(args.workload, entry)
    metrics = entry["record"]["metrics"]
    name = args.label or entry["source_sha256"][:12]
    print(f"{path.relative_to(REPO)}: {name} seed {args.seed}")
    for name in sorted(metrics):
        print(f"  {name:<24} {metrics[name]:.6g}")
    return 0 if entry["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
