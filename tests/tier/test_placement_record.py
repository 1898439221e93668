"""Placement decisions are pinned operator by operator.

A seeded stream of tiered joins and group-bys, with updates, runs into a
``QueryServer(tiering=True)`` on a device too small for the catalog, so
the tier admits, evicts, declines and is demoted by query reservations.
Every tiered operator's hot segments, cache deltas and simulated seconds
must equal the committed record ``placement_record.json`` exactly.  A
change to how the tier walks its segments that reorders a decision, or
prices a range differently, shows up here even when every output stays
bit-identical.

Regenerate the record (only when a placement change is intended, and
say so in CHANGES.md) with::

    PYTHONPATH=src python -m tests.tier.test_placement_record
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.aggregation.base import AggSpec
from repro.gpusim.device import A100, scaled_device
from repro.query.plan import Aggregate, Join, Scan
from repro.relational.relation import Relation
from repro.serve import QueryServer

RECORD = Path(__file__).with_name("placement_record.json")
PAIRS = 3
EVENTS = 240
UPDATE_EVERY = 12
RATE_QPS = 20_000.0
COUNTERS = ("admissions", "evictions", "declined", "demotions", "hits", "misses")


def make_pair(seed: int, r_rows: int = 6000, s_rows: int = 24_000):
    rng = np.random.default_rng(seed)
    r = Relation(
        [
            ("key", rng.permutation(r_rows).astype(np.int32)),
            ("r1", rng.integers(0, 1000, r_rows).astype(np.int32)),
        ],
        key="key",
    )
    s = Relation(
        [
            ("key", rng.integers(0, r_rows, s_rows).astype(np.int32)),
            ("s1", rng.integers(0, 1000, s_rows).astype(np.int64)),
        ],
        key="key",
    )
    return r, s


def build_plan(kind: str, i: int, catalog):
    r, s = catalog[f"R{i}"], catalog[f"S{i}"]
    if kind == "join":
        return Join(Scan(r, f"R{i}"), Scan(s, f"S{i}"), algorithm="NPJ")
    aggs = (AggSpec("s1", "sum"), AggSpec("s1", "max"), AggSpec("key", "count"))
    return Aggregate(Scan(s, f"S{i}"), "key", aggs)


def record_stream(seed: int = 11):
    """Run the stream; one entry per tiered operator, in call order."""
    rng = np.random.default_rng(seed)
    catalog = {}
    for i in range(PAIRS):
        catalog[f"R{i}"], catalog[f"S{i}"] = make_pair(seed * 100 + i)
    server = QueryServer(
        streams=2,
        tiering=True,
        device=scaled_device(A100, 1 / 40_000),
        seed=0,
        enable_result_cache=False,
    )
    for name, relation in catalog.items():
        server.register(name, relation)
    runtime = server.tiering
    record = []
    last = [runtime.stats()]

    def recording(kind, run):
        def wrapper(*args, **kwargs):
            result = run(*args, **kwargs)
            before, after = last[0], runtime.stats()
            last[0] = after
            resident = sorted(key.describe() for key in runtime.cache.resident_keys())
            entry = {
                "op": kind,
                "hot_segments": result.span_args["hot_segments"],
                "cold_segments": result.span_args["cold_segments"],
                "hot_rows": result.extras["tier_hot_rows"],
                "cold_rows": result.extras["tier_cold_rows"],
                "seconds": repr(result.seconds),
                "resident": hashlib.sha1("|".join(resident).encode()).hexdigest()[:16],
            }
            for name in COUNTERS:
                entry[name] = int(after[name] - before[name])
            record.append(entry)
            return result

        return wrapper

    runtime.run_join = recording("join", runtime.run_join)
    runtime.run_group_by = recording("group-by", runtime.run_group_by)

    kinds = [("join", i) for i in range(PAIRS)] + [("group-by", i) for i in range(PAIRS)]
    weights = np.arange(1, len(kinds) + 1, dtype=np.float64) ** -1.1
    weights /= weights.sum()
    at_s = 0.0
    for event in range(EVENTS):
        at_s += float(rng.exponential(1.0 / RATE_QPS))
        server.run(until_s=at_s)
        if event % UPDATE_EVERY == UPDATE_EVERY - 1:
            name = sorted(catalog)[int(rng.integers(len(catalog)))]
            r, s = make_pair(seed * 10_000 + event)
            catalog[name] = r if name[0] == "R" else s
            server.update(name, catalog[name])
        else:
            kind, i = kinds[int(rng.choice(len(kinds), p=weights))]
            server.submit(build_plan(kind, i, catalog), at_s=at_s)
    outcomes = server.run()
    assert all(o.status == "completed" for o in outcomes)
    return record


def test_placement_matches_the_record():
    expected = json.loads(RECORD.read_text())
    actual = record_stream()
    assert len(actual) == len(expected)
    for position, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, f"operator {position} diverged"


def test_record_exercises_every_decision():
    expected = json.loads(RECORD.read_text())
    totals = {name: sum(entry[name] for entry in expected) for name in COUNTERS}
    assert all(totals[name] > 0 for name in COUNTERS), totals
    assert {entry["op"] for entry in expected} == {"join", "group-by"}
    assert any(e["hot_segments"] and e["cold_segments"] for e in expected)


if __name__ == "__main__":
    lines = ",\n".join(json.dumps(entry) for entry in record_stream())
    RECORD.write_text(f"[\n{lines}\n]\n")
