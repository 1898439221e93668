"""ext05: resilience sweep — recovery overhead under injected faults.

The paper assumes a fault-free accelerator; this extension measures
what its fastest single-device operators pay to *survive* faults
injected by a deterministic :class:`~repro.faults.FaultPlan`.  Two
knobs are swept on a cross product: the transient kernel fault rate
(each kernel launch may fail and be retried with exponential backoff)
and the device capacity fraction (the simulated HBM is shrunk so the
in-memory operator hits device-OOM and must re-plan itself into the
partitioned / out-of-core variant instead of raising).

Every point runs the identical workload under the identical data seed;
only the fault seed and rates differ.  The acceptance bar is the same
as the fault framework's: results at every point must be bit-identical
to the fault-free run (joins up to row order — degraded chunking
permutes the concatenation; group-by exactly), faults must surface as
retry/degradation counters rather than exceptions, and the fault-free
point must reproduce the baseline timing exactly.

The table reports, per (workload, fault_rate, capacity_frac): the
algorithm that actually ran (``OOC[...]`` marks graceful degradation),
injected-fault and retry counts, recovery milliseconds charged to the
simulated clock, total milliseconds, and the overhead ratio over the
fault-free baseline.  Cluster-level fault kinds (link retransmits,
superstep replays, stragglers) are exercised by the fault test suite;
this sweep covers the single-device mechanisms the paper's operators
run on.

Calibration caveat: like ext04 this has no published ground truth —
findings assert internal consistency (bit-identity, degradation
instead of failure, overhead monotone in the injected work).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ...aggregation.base import AggSpec
from ...faults import FaultPlan, resilient_group_by, resilient_join
from ...obs import TraceSession, write_chrome_trace
from ...workloads.generators import JoinWorkloadSpec, generate_join_workload
from ...workloads.groupby_gen import GroupByWorkloadSpec, generate_groupby_workload
from ..harness import DEFAULT_SCALE, ExperimentResult, make_setup

PAPER_ROWS = 1 << 27
PAPER_GROUPS = 1 << 16
JOIN_ALGORITHM = "PHJ-OM"
GROUPBY_ALGORITHM = "HASH-AGG"
#: Transient kernel fault probabilities swept per capacity point.
FAULT_RATES = (0.0, 0.05, 0.2)
#: Device capacity fractions: full HBM, join-squeezing, and tight enough
#: to push the group-by through the out-of-core ladder as well.
CAPACITY_FRACS = (None, 0.05, 0.001)
#: Counters summed into the "recovery_ms" column.
_RECOVERY_SECONDS = ("fault_retry_seconds",)


def _frac_label(frac: Optional[float]) -> str:
    return "full" if frac is None else f"{frac:g}"


def run(
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    fault_seed: int = 7,
    fault_rates: Sequence[float] = FAULT_RATES,
    capacity_fracs: Sequence[Optional[float]] = CAPACITY_FRACS,
    trace_dir: Optional[str] = None,
) -> ExperimentResult:
    setup = make_setup(scale)
    result = ExperimentResult(
        experiment_id="ext05",
        title=f"Resilience: {JOIN_ALGORITHM} join and {GROUPBY_ALGORITHM} "
        "group-by under injected faults and device-memory pressure",
        headers=[
            "workload", "fault_rate", "capacity", "ran_as",
            "faults", "retries", "recovery_ms", "total_ms",
            "overhead", "identical",
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
    # Floor the key domain at 4K groups: the tightest capacity point must
    # squeeze the aggregation table itself, not just the join state.
    groupby_spec = GroupByWorkloadSpec(
        rows=setup.rows(PAPER_ROWS),
        groups=max(4096, int(PAPER_GROUPS * scale)),
        value_columns=2,
        seed=seed,
    )
    keys, values = generate_groupby_workload(groupby_spec)
    aggregates = [AggSpec("v1", "sum"), AggSpec("v2", "max")]

    # Fault-free baselines: every sweep point is checked against these.
    join_base = resilient_join(
        r, s, algorithm=JOIN_ALGORITHM,
        device=setup.device, config=setup.config, seed=seed,
    )
    agg_base = resilient_group_by(
        keys, dict(values), aggregates, algorithm=GROUPBY_ALGORITHM,
        device=setup.device, seed=seed,
    )

    identical = True
    degraded_any = False
    clean_point_exact = True
    overhead_by_rate = {}
    for rate in fault_rates:
        for frac in capacity_fracs:
            plan = FaultPlan(
                seed=fault_seed, kernel_fault_rate=rate, capacity_frac=frac
            )
            for workload, base in (("join", join_base), ("group-by", agg_base)):
                name = f"ext05-{workload}-r{rate:g}-c{_frac_label(frac)}"
                with TraceSession(name) as session:
                    if workload == "join":
                        res = resilient_join(
                            r, s, algorithm=JOIN_ALGORITHM,
                            device=setup.device, config=setup.config,
                            seed=seed, fault_plan=plan,
                        )
                        same = res.output.equals_unordered(base.output)
                    else:
                        res = resilient_group_by(
                            keys, dict(values), aggregates,
                            algorithm=GROUPBY_ALGORITHM,
                            device=setup.device, seed=seed, fault_plan=plan,
                        )
                        same = all(
                            np.array_equal(res.output[col], base.output[col])
                            for col in base.output
                        )
                identical &= same
                degraded_any |= res.recovery.degraded
                faults = int(
                    session.metrics.value("faults_injected_kernel")
                    + session.metrics.value("faults_injected_oom")
                )
                retries = int(session.metrics.value("fault_kernel_retries"))
                recovery_s = sum(
                    session.metrics.value(c) for c in _RECOVERY_SECONDS
                ) + res.recovery.wasted_seconds
                overhead = res.total_seconds / base.total_seconds
                if frac is None:
                    overhead_by_rate[(workload, rate)] = overhead
                if rate == 0.0 and frac is None:
                    clean_point_exact &= (
                        res.total_seconds == base.total_seconds
                        and not res.recovery.degraded
                    )
                result.add_row(
                    workload, f"{rate:g}", _frac_label(frac), res.algorithm,
                    faults, retries, recovery_s * 1e3,
                    res.total_seconds * 1e3, overhead, "yes" if same else "NO",
                )
                if trace_dir is not None and (res.recovery.degraded or retries):
                    write_chrome_trace(
                        session, Path(trace_dir) / f"{name}.trace.json"
                    )

    max_rate = max(fault_rates)
    result.findings["results_bit_identical_all_points"] = float(identical)
    result.findings["capacity_pressure_degrades_not_raises"] = float(degraded_any)
    # The comparative findings need specific sweep points; skip them when
    # a --capacity-frac / custom rate override left those points out.
    if None in capacity_fracs and 0.0 in fault_rates:
        result.findings["fault_free_point_matches_baseline"] = float(
            clean_point_exact
        )
        if max_rate > 0:
            result.findings["retry_overhead_monotone_in_rate"] = float(
                all(
                    overhead_by_rate[(w, max_rate)]
                    >= overhead_by_rate[(w, 0.0)]
                    for w in ("join", "group-by")
                )
            )
    result.add_note(
        "same fault seed => same injected faults => reproducible table; "
        "sweep other seeds with --fault-seed"
    )
    result.add_note(
        "OOC[...] rows re-planned themselves out-of-core on simulated "
        "device-OOM instead of raising; overhead is the price of recovery"
    )
    return result
