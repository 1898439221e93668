"""Multi-GPU scale-out: the same join on 1, 2, 4 and 8 simulated devices.

Demonstrates the `repro.cluster` layer: rows are hash-sharded on the
join key so equal keys co-locate, each device runs the unchanged
single-device algorithm on its shard, and the cluster clock charges the
radix shuffle to an interconnect model (NVLink point-to-point mesh vs a
shared PCIe host bridge).  Results are bit-identical at every device
count — only the simulated time changes.

Run: ``python examples/multi_gpu_scaling.py [--trace DIR]``
"""

import argparse
from pathlib import Path

import numpy as np

from repro import Relation, group_by, join, sharded_join, write_cluster_trace

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument(
    "--trace", metavar="DIR", default=None,
    help="also write one per-device Chrome trace per cluster run",
)
args = parser.parse_args()

rng = np.random.default_rng(11)
num_parts, num_lineitems = 60_000, 480_000

parts = Relation.from_key_payloads(
    rng.permutation(num_parts).astype(np.int32),
    [rng.integers(0, 50, num_parts).astype(np.int32)],
    payload_prefix="p", name="parts",
)
lineitems = Relation.from_key_payloads(
    rng.integers(0, num_parts, num_lineitems).astype(np.int32),
    [rng.integers(1, 500, num_lineitems).astype(np.int32)],
    payload_prefix="l", name="lineitems",
)

# --- Sweep device counts on both interconnects -------------------------
single = join(parts, lineitems, algorithm="PHJ-OM", seed=0)
print(f"single device: {single.algorithm}, "
      f"{single.total_seconds * 1e3:.3f} ms, {single.matches} rows\n")

print(f"{'interconnect':<14}{'devices':>8}{'total_ms':>10}{'shuffle':>9}"
      f"{'speedup':>9}{'efficiency':>12}")
for interconnect in ("nvlink-mesh", "pcie-host"):
    for n in (1, 2, 4, 8):
        res = sharded_join(parts, lineitems, algorithm="PHJ-OM", seed=0,
                           num_devices=n, interconnect=interconnect)
        assert res.output.equals_unordered(single.output)  # bit-identical rows
        speedup = single.total_seconds / res.total_seconds
        shuffle_pct = res.cluster.step_seconds("shuffle") / res.total_seconds
        print(f"{interconnect:<14}{n:>8}{res.total_seconds * 1e3:>10.3f}"
              f"{shuffle_pct:>9.0%}{speedup:>9.2f}{speedup / n:>12.2f}")
        if args.trace:
            path = Path(args.trace) / f"join-{interconnect}-x{n}.trace.json"
            write_cluster_trace(res.cluster, path,
                                name=f"join {interconnect} x{n}")
    print()

# A 1-device cluster is exactly the single-device run — same clock, not
# just close:
one = sharded_join(parts, lineitems, algorithm="PHJ-OM", seed=0, num_devices=1)
assert one.total_seconds == single.total_seconds

# --- Per-step breakdown of one cluster run ------------------------------
res = join(parts, lineitems, algorithm="PHJ-OM", seed=0, shards=4)
print("4-device NVLink run, cluster-clock breakdown:")
print(res.describe())

# --- Sharded group-by: float sums still bit-identical -------------------
joined = res.output
agg = group_by(joined.key_values,
               {"rev": joined.column("l1").astype(np.float64)},
               {"rev": "sum"}, shards=4, seed=0)
agg_single = group_by(joined.key_values,
                      {"rev": joined.column("l1").astype(np.float64)},
                      {"rev": "sum"}, seed=0)
assert np.array_equal(agg.output["sum_rev"], agg_single.output["sum_rev"])
print(f"\nsharded group-by: {agg.output['group_key'].size} groups, "
      f"float sums bit-identical to single device "
      f"({agg.total_seconds * 1e3:.3f} ms on 4 devices vs "
      f"{agg_single.total_seconds * 1e3:.3f} ms on one)")
if args.trace:
    print(f"traces written under {args.trace}/")
