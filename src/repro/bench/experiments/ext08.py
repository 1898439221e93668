"""ext08: heterogeneous segment cache — hit ratio vs throughput.

The tiering extension's acceptance harness.  A Zipf-skewed stream of
query templates runs over a dataset several times larger than device
memory, three ways:

* ``all-cpu`` — a :class:`~repro.tier.TieredRuntime` with zero cache
  capacity: every segment is cold, all operator work is charged to the
  CPU tier's cost model.  The lower bound.
* ``no-cache`` — the segment cache is cleared before every query, so
  each query re-stages its working set over the interconnect before
  computing on the GPU.  This is classic per-query out-of-core
  execution: the PCIe bill is paid every time.
* ``tiered`` — the real system.  Hot segments stay resident across
  queries under the cost-based placement policy (fed the same Zipf
  template popularity the serving layer reports), so the staging cost
  amortizes over reuse and repeat queries run at device bandwidth.

Every query in every arm is checked bit-identical against a plain
``execute()`` of the same plan — the placement-independence oracle —
and the table reports per-arm throughput, the cumulative byte-weighted
hit ratio, and the tier observability counters.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ...aggregation.base import AggSpec
from ...obs.session import TraceSession
from ...query.executor import QueryExecutor, execute
from ...query.plan import Aggregate, Join, PlanNode, Scan
from ...tier import PlacementPolicy, TieredRuntime
from ...workloads.generators import JoinWorkloadSpec, generate_join_workload
from ...workloads.zipf import sample_zipf
from ..harness import DEFAULT_SCALE, ExperimentResult, Setup, make_setup

#: Relation pairs (each pair backs one join and, on even pairs, one
#: scan-aggregate template).  More pairs -> a longer popularity tail.
N_PAIRS = 16
#: |S| / |R| per pair.
S_FANOUT = 4
#: Dataset size as a multiple of (scaled) device memory.  The paper's
#: out-of-core regime; the acceptance floor is >= 4x.
DATASET_MULTIPLE = 4.0
#: Zipf exponent of the template draw — the serving layer's skew.
ZIPF_FACTOR = 1.1
NUM_QUERIES = 192
#: Fraction of device memory given to the segment cache.
CACHE_FRACTION = 0.85
#: Admission bar in predicted accesses: only templates arriving every
#: ~dozen placement passes keep clearing it, so the Zipf tail stays on
#: the CPU tier instead of thrashing the head out of the cache.
MIN_ADMIT_WEIGHT = 5.0
#: Coarser segments than the runtime default keep the bench's Python
#: per-segment overhead proportionate at sweep scales.
SEGMENT_ROWS = 16384


class _Template:
    """One query template with its oracle reference output."""

    def __init__(self, name: str, plan: PlanNode, probe_rows: int,
                 relations: List[object]):
        self.name = name
        self.plan = plan
        self.probe_rows = probe_rows
        self.relations = relations
        self.reference: object = None


def _outputs_equal(expected, actual) -> bool:
    """Exact (bit-identical, ordered) comparison for both output kinds."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or list(expected) != list(actual):
            return False
        return all(
            expected[k].dtype == actual[k].dtype
            and np.array_equal(expected[k], actual[k])
            for k in expected
        )
    if expected.column_names != actual.column_names:
        return False
    return all(
        expected.column(n).dtype == actual.column(n).dtype
        and np.array_equal(expected.column(n), actual.column(n))
        for n in expected.column_names
    )


def _build_templates(
    setup: Setup, seed: int, n_pairs: int, dataset_multiple: float
) -> List[_Template]:
    """Relation pairs sized so the pairs sum to the dataset multiple."""
    pair_bytes = dataset_multiple * setup.device.global_mem_bytes / n_pairs
    # int32 key + one int32 payload -> 8 bytes/row on both sides.
    r_rows = max(2048, int(pair_bytes / (8 * (1 + S_FANOUT))))
    templates: List[_Template] = []
    for i in range(n_pairs):
        r, s = generate_join_workload(
            JoinWorkloadSpec(
                r_rows=r_rows,
                s_rows=S_FANOUT * r_rows,
                r_payload_columns=1,
                s_payload_columns=1,
                seed=seed + 37 * i,
            )
        )
        r.name, s.name = f"R{i}", f"S{i}"
        # NPJ emits the canonical s-major row order the tier merge
        # reproduces, so the oracle comparison can be exact-ordered.
        templates.append(
            _Template(
                f"join{i}",
                Join(Scan(r, f"R{i}"), Scan(s, f"S{i}"), algorithm="NPJ"),
                probe_rows=s.num_rows,
                relations=[r, s],
            )
        )
        if i % 2 == 0:
            templates.append(
                _Template(
                    f"agg{i}",
                    Aggregate(
                        Scan(s, f"S{i}"),
                        group_column="key",
                        aggregates=(
                            AggSpec("s1", "sum"),
                            AggSpec("s1", "max"),
                        ),
                    ),
                    probe_rows=s.num_rows,
                    relations=[s],
                )
            )
    return templates


def _dataset_bytes(templates: List[_Template]) -> int:
    seen: Dict[int, int] = {}
    for template in templates:
        for relation in template.relations:
            seen[id(relation)] = relation.total_bytes
    return sum(seen.values())


def _run_arm(
    label: str,
    templates: List[_Template],
    draws: np.ndarray,
    runtime: TieredRuntime,
    setup: Setup,
    seed: int,
    clear_each: bool = False,
) -> Dict[str, float]:
    session = TraceSession(f"ext08-{label}")
    executor = QueryExecutor(
        device=setup.device, config=setup.config, seed=seed, tiering=runtime
    )
    seconds = 0.0
    tuples = 0
    mismatches = 0
    for template_index in draws:
        template = templates[int(template_index)]
        if clear_each:
            runtime.cache.clear()
        # The serving layer feeds template popularity per arrival; the
        # bench drives the executor directly, so it feeds it here.
        runtime.note_plan(template.plan)
        result = executor.execute(template.plan, trace=session)
        seconds += result.total_seconds
        tuples += template.probe_rows
        if not _outputs_equal(template.reference, result.output):
            mismatches += 1
    runtime.cache.assert_consistent()
    cache = runtime.cache
    return {
        "label": label,
        "queries": float(len(draws)),
        "tuples": float(tuples),
        "seconds": seconds,
        "throughput": tuples / seconds if seconds else 0.0,
        "hit_ratio": cache.hit_ratio,
        "admitted_mb": cache.admitted_bytes / 1e6,
        "evictions": float(cache.evictions),
        "mismatches": float(mismatches),
        "tier_admissions": session.metrics.value("tier.admissions"),
        "resident_peak_mb": session.metrics.value("tier.resident_bytes_peak")
        / 1e6,
    }


def run(
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    n_pairs: int = N_PAIRS,
    num_queries: int = NUM_QUERIES,
    dataset_multiple: float = DATASET_MULTIPLE,
    zipf_factor: float = ZIPF_FACTOR,
    cache_fraction: float = CACHE_FRACTION,
    min_admit_weight: float = MIN_ADMIT_WEIGHT,
    segment_rows: int = SEGMENT_ROWS,
    trace_dir: Optional[str] = None,
) -> ExperimentResult:
    setup = make_setup(scale)
    templates = _build_templates(setup, seed, n_pairs, dataset_multiple)
    for template in templates:
        template.reference = execute(
            template.plan,
            device=setup.device,
            config=setup.config,
            seed=seed,
        ).output

    rng = np.random.default_rng(seed + 7)
    draws = sample_zipf(len(templates), num_queries, zipf_factor, rng)

    def make_runtime(capacity: Optional[int] = None) -> TieredRuntime:
        return TieredRuntime(
            device=setup.device,
            cpu_device=setup.cpu_device,
            segment_rows=segment_rows,
            capacity_bytes=capacity,
            cache_fraction=cache_fraction,
            # Stage a segment only when its predicted reuse repays the
            # transfer — one-off templates run on the CPU tier instead
            # of thrashing the cache.
            amortize_admission=True,
            min_admit_weight=min_admit_weight,
            # Wider hysteresis + longer minimum residency than the
            # runtime defaults: the bench's Zipf tail otherwise churns
            # the head out between its arrivals.
            policy=PlacementPolicy(hysteresis=2.0, min_residency_ticks=4),
        )

    arms = [
        _run_arm("all-cpu", templates, draws, make_runtime(capacity=0),
                 setup, seed),
        _run_arm("no-cache", templates, draws, make_runtime(), setup, seed,
                 clear_each=True),
        _run_arm("tiered", templates, draws, make_runtime(), setup, seed),
    ]

    result = ExperimentResult(
        experiment_id="ext08",
        title="Heterogeneous segment cache: Zipf stream over a dataset "
        f"{dataset_multiple:g}x device memory",
        headers=[
            "arm", "queries", "Mtuples", "seconds", "Mtuples/s",
            "hit_ratio", "admit_MB", "evict",
        ],
    )
    for arm in arms:
        result.add_row(
            arm["label"],
            int(arm["queries"]),
            round(arm["tuples"] / 1e6, 2),
            round(arm["seconds"], 5),
            round(arm["throughput"] / 1e6, 1),
            round(arm["hit_ratio"], 3),
            round(arm["admitted_mb"], 1),
            int(arm["evictions"]),
        )

    by_label = {arm["label"]: arm for arm in arms}
    tiered, nocache, allcpu = (
        by_label["tiered"], by_label["no-cache"], by_label["all-cpu"]
    )
    dataset = _dataset_bytes(templates)
    result.findings["dataset_to_device_mem"] = (
        dataset / setup.device.global_mem_bytes
    )
    result.findings["zipf_factor"] = zipf_factor
    result.findings["bit_identity"] = float(
        all(arm["mismatches"] == 0 for arm in arms)
    )
    result.findings["tiered_hit_ratio"] = tiered["hit_ratio"]
    result.findings["speedup_vs_all_cpu"] = (
        tiered["throughput"] / allcpu["throughput"]
    )
    result.findings["speedup_vs_no_cache"] = (
        tiered["throughput"] / nocache["throughput"]
    )
    result.findings["staging_saved_mb"] = (
        nocache["admitted_mb"] - tiered["admitted_mb"]
    )
    result.findings["tier_admission_spans_counted"] = tiered[
        "tier_admissions"
    ]
    result.add_note(
        f"dataset {dataset / 1e6:.0f} MB over device memory "
        f"{setup.device.global_mem_bytes / 1e6:.0f} MB "
        f"(cache capacity {cache_fraction:g} of device); "
        f"{len(templates)} templates, Zipf({zipf_factor:g}) draw"
    )
    result.add_note(
        "every query in every arm compared bit-identical (values, dtypes, "
        "row order) against plain execute() of the same plan"
    )
    return result
