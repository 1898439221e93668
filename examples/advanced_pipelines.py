"""Advanced pipelines: fused aggregation, projection pushdown, out-of-core.

Three production patterns built on the library's extension features:

1. **projection pushdown** — a join that only materializes the columns
   its consumer reads;
2. **fused join + aggregation** — the group-by folds during
   materialization, never round-tripping joined columns through memory;
3. **out-of-core staging** — the same join when the inputs do not fit
   device memory, co-partitioned on the host and staged over PCIe.

Run: ``python examples/advanced_pipelines.py``
"""

import numpy as np

from repro import A100, AggSpec, JoinConfig, scaled_device
from repro.joins import (
    FusedJoinAggregate,
    OutOfCoreJoin,
    PartitionedHashJoin,
    estimate_join_footprint,
)
from repro.workloads import JoinWorkloadSpec, generate_join_workload

SCALE = 2.0 ** -9
DEVICE = scaled_device(A100, SCALE)
BASE = dict(
    tuples_per_partition=max(32, int(4096 * SCALE)),
    bucket_tuples=max(32, int(4096 * SCALE)),
)

spec = JoinWorkloadSpec(
    r_rows=1 << 17, s_rows=1 << 18,
    r_payload_columns=4, s_payload_columns=4, seed=11,
)
r, s = generate_join_workload(spec)
print(f"workload: {r.num_rows} x {s.num_rows} rows, "
      f"{r.num_payload_columns}+{s.num_payload_columns} payload columns\n")

# --- 1. Projection pushdown ---------------------------------------------
full = PartitionedHashJoin(JoinConfig(**BASE)).join(r, s, device=DEVICE, seed=0)
thin = PartitionedHashJoin(
    JoinConfig(**BASE, projection=("r1", "s1"))
).join(r, s, device=DEVICE, seed=0)
print("1. projection pushdown (materialize 2 of 8 payload columns)")
print(f"   full join:      {full.total_seconds * 1e3:7.3f} ms "
      f"({full.output.num_payload_columns} payload columns)")
print(f"   projected join: {thin.total_seconds * 1e3:7.3f} ms "
      f"({thin.output.num_payload_columns} payload columns) -> "
      f"{full.total_seconds / thin.total_seconds:.2f}x\n")

# --- 2. Fused join + aggregation ------------------------------------------
pipeline = FusedJoinAggregate(PartitionedHashJoin(JoinConfig(**BASE)))
aggregates = [AggSpec("s1", "sum"), AggSpec("s1", "count")]
fused = pipeline.run(r, s, group_column="r1", aggregates=aggregates,
                     device=DEVICE, seed=0)
unfused = pipeline.run(r, s, group_column="r1", aggregates=aggregates,
                       device=DEVICE, seed=0, fuse=False)
assert np.array_equal(fused.output["sum_s1"], unfused.output["sum_s1"])
print("2. fused join + group-by (SELECT r1, SUM(s1) ... GROUP BY r1)")
print(f"   unfused: {unfused.total_seconds * 1e3:7.3f} ms")
print(f"   fused:   {fused.total_seconds * 1e3:7.3f} ms -> "
      f"{unfused.total_seconds / fused.total_seconds:.2f}x "
      f"({fused.groupby_result.groups} groups)\n")

# --- 3. Out-of-core staging -------------------------------------------------
footprint = estimate_join_footprint(r, s)
print(f"3. out-of-core join (footprint ~{footprint / 1e6:.1f} MB)")
for label, budget in (
    ("fits in memory", footprint * 2),
    ("1/2 of footprint", footprint // 2),
    ("1/8 of footprint", footprint // 8),
):
    ooc = OutOfCoreJoin(
        PartitionedHashJoin(JoinConfig(**BASE)), device_budget_bytes=int(budget)
    )
    result = ooc.join(r, s, device=DEVICE, seed=0)
    assert result.matches == full.matches  # identical output, any budget
    phases = result.phase_seconds  # host-partition only when staged
    print(
        f"   {label:18s} chunks={result.num_chunks:2d} "
        f"host={phases.get('host-partition', 0.0) * 1e3:6.3f} ms "
        f"pcie={phases['transfer'] * 1e3:6.3f} ms "
        f"device={phases['device'] * 1e3:6.3f} ms "
        f"total={result.total_seconds * 1e3:6.3f} ms"
    )
print("\nall three patterns verified against the monolithic join's output")
