"""ext04: scale-out sweep — sharded joins/aggregations on 1..8 devices.

The paper measures a single GPU; this extension asks how its fastest
operators behave when the same workload is hash-sharded across a
simulated multi-GPU cluster (:mod:`repro.cluster`).  Each device count
runs the identical workload: inputs are radix-shuffled on the key over
the interconnect, every device runs the unchanged single-device
algorithm on its shard, and the cluster clock is the max over device
timelines plus shuffle drains.  Results stay bit-identical to the
single-device run at every point of the sweep — the only thing that
changes is simulated time.

The table reports, per (workload, interconnect, devices): total and
shuffle milliseconds, speedup over the 1-device cluster, and scaling
efficiency (speedup / devices).  The expected shape: an all-to-all
shuffle moves ~(N-1)/N of the data, so going 1 -> 2 devices pays the
largest communication bill for the smallest compute split; efficiency
recovers at higher device counts, and the shared PCIe host bridge
(serialized transfers) trails the NVLink point-to-point mesh.

Calibration caveat: the paper publishes no multi-GPU numbers, so unlike
fig*/tab* experiments this sweep has no ground truth to band against —
the findings only assert internal consistency (bit-identical results,
exact 1-device equivalence, NVLink >= PCIe).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ...aggregation.base import AggSpec
from ...cluster import sharded_group_by, sharded_join, write_cluster_trace
from ...joins.planner import make_algorithm
from ...workloads.generators import JoinWorkloadSpec, generate_join_workload
from ...workloads.groupby_gen import GroupByWorkloadSpec, generate_groupby_workload
from ..harness import DEFAULT_SCALE, ExperimentResult, make_setup

PAPER_ROWS = 1 << 27
PAPER_GROUPS = 1 << 16
JOIN_ALGORITHM = "PHJ-OM"
GROUPBY_ALGORITHM = "HASH-AGG"
INTERCONNECTS = ("nvlink-mesh", "pcie-host")


def _join_outputs_identical(a, b) -> bool:
    """Same rows (shard concatenation permutes join output order)."""
    return a.equals_unordered(b)


def run(
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    devices: Sequence[int] = (1, 2, 4, 8),
    trace_dir: Optional[str] = None,
) -> ExperimentResult:
    setup = make_setup(scale)
    result = ExperimentResult(
        experiment_id="ext04",
        title=f"Scale-out: {JOIN_ALGORITHM} join and {GROUPBY_ALGORITHM} "
        "group-by sharded across simulated devices",
        headers=[
            "workload", "interconnect", "devices",
            "total_ms", "shuffle_ms", "speedup", "efficiency",
        ],
    )

    join_spec = JoinWorkloadSpec(
        r_rows=setup.rows(PAPER_ROWS),
        s_rows=setup.rows(PAPER_ROWS),
        r_payload_columns=2,
        s_payload_columns=2,
        seed=seed,
    )
    r, s = generate_join_workload(join_spec)
    groupby_spec = GroupByWorkloadSpec(
        rows=setup.rows(PAPER_ROWS),
        groups=max(64, int(PAPER_GROUPS * scale)),
        value_columns=2,
        seed=seed,
    )
    keys, values = generate_groupby_workload(groupby_spec)
    aggregates = [AggSpec("v1", "sum"), AggSpec("v2", "max")]

    # Plain single-device run: the 1-device cluster must reproduce it.
    single = make_algorithm(JOIN_ALGORITHM, setup.config).join(
        r, s, device=setup.device, seed=seed
    )

    identical = True
    one_device_exact = True
    speedups = {}
    for interconnect in INTERCONNECTS:
        join_baseline = None
        for n in devices:
            res = sharded_join(
                r, s,
                algorithm=JOIN_ALGORITHM,
                num_devices=n,
                interconnect=interconnect,
                device=setup.device,
                config=setup.config,
                seed=seed,
            )
            if join_baseline is None:
                join_baseline = res.total_seconds
                one_device_exact &= n != 1 or (
                    res.total_seconds == single.total_seconds
                )
            identical &= _join_outputs_identical(res.output, single.output)
            speedup = join_baseline / res.total_seconds
            speedups[("join", interconnect, n)] = speedup
            result.add_row(
                "join", interconnect, n,
                res.total_seconds * 1e3, res.cluster.step_seconds("shuffle") * 1e3,
                speedup, speedup / n,
            )
            if trace_dir is not None:
                write_cluster_trace(
                    res.cluster,
                    Path(trace_dir) / f"ext04-join-{interconnect}-x{n}.trace.json",
                    name=f"ext04 join {interconnect} x{n}",
                )

        agg_single = None
        agg_baseline = None
        for n in devices:
            res = sharded_group_by(
                keys, values, aggregates,
                algorithm=GROUPBY_ALGORITHM,
                num_devices=n,
                interconnect=interconnect,
                device=setup.device,
                seed=seed,
            )
            if agg_single is None:
                agg_single = res.output
                agg_baseline = res.total_seconds
            identical &= all(
                np.array_equal(res.output[name], agg_single[name])
                for name in agg_single
            )
            speedup = agg_baseline / res.total_seconds
            speedups[("group-by", interconnect, n)] = speedup
            result.add_row(
                "group-by", interconnect, n,
                res.total_seconds * 1e3, res.cluster.step_seconds("shuffle") * 1e3,
                speedup, speedup / n,
            )

    max_n = max(devices)
    result.findings["results_bit_identical_all_points"] = float(identical)
    result.findings["one_device_cluster_matches_single"] = float(one_device_exact)
    if max_n > 1:
        result.findings["join_nvlink_speedup_at_max"] = speedups[
            ("join", "nvlink-mesh", max_n)
        ]
        result.findings["nvlink_no_slower_than_pcie"] = float(
            speedups[("join", "nvlink-mesh", max_n)]
            >= speedups[("join", "pcie-host", max_n)] * 0.999
        )
    result.add_note(
        "all-to-all shuffle moves ~(N-1)/N of the input, so N=2 pays the "
        "largest relative communication bill; efficiency recovers with N"
    )
    result.add_note(
        "no published multi-GPU baseline exists for this paper; findings "
        "assert internal consistency only (see EXPERIMENTS.md, Scale-out)"
    )
    return result
