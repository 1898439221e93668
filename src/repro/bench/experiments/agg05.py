"""agg05: aggregation-planner validation.

Runs the three strategies over a cardinality x skew x width grid and
checks the planner's pick against the measured winner, with the same
regret tolerance as the join planner's Figure 18 validation.
"""

from __future__ import annotations

from itertools import product

from ...aggregation.base import AggSpec
from ...aggregation.planner import (
    GroupByWorkloadProfile,
    make_groupby_algorithm,
    recommend_groupby_algorithm,
)
from ...workloads.groupby_gen import GroupByWorkloadSpec, generate_groupby_workload
from ..harness import DEFAULT_SCALE, ExperimentResult, make_setup

PAPER_ROWS = 1 << 26
GROUP_FRACTIONS = (2 ** -16, 2 ** -8, 2 ** -2)
ZIPF_FACTORS = (0.0, 1.5)
COLUMN_COUNTS = (1, 4)
ALGORITHMS = ("HASH-AGG", "SORT-AGG", "PART-AGG")
TOLERANCE = 0.15


def run(scale: float = DEFAULT_SCALE, seed: int = 0) -> ExperimentResult:
    setup = make_setup(scale)
    rows = setup.rows(PAPER_ROWS)
    result = ExperimentResult(
        experiment_id="agg05",
        title="Aggregation planner validation",
        headers=["groups", "zipf", "cols", "winner", "planner", "regret", "ok"],
    )
    agreements, cases = 0, 0
    for fraction, zipf, cols in product(GROUP_FRACTIONS, ZIPF_FACTORS, COLUMN_COUNTS):
        groups = max(4, int(rows * fraction))
        keys, values = generate_groupby_workload(
            GroupByWorkloadSpec(
                rows=rows, groups=groups, value_columns=cols,
                zipf_factor=zipf, seed=seed,
            )
        )
        aggs = [AggSpec(f"v{i + 1}", "sum") for i in range(cols)]
        times = {
            name: make_groupby_algorithm(name)
            .group_by(keys, values, aggs, device=setup.device, seed=seed)
            .total_seconds
            for name in ALGORITHMS
        }
        winner = min(times, key=times.get)
        profile = GroupByWorkloadProfile(
            rows=rows, estimated_groups=groups, zipf_factor=zipf
        )
        pick = recommend_groupby_algorithm(profile, device=setup.device).algorithm
        regret = times[pick] / times[winner] - 1.0
        ok = regret <= TOLERANCE
        agreements += ok
        cases += 1
        result.add_row(groups, zipf, cols, winner, pick, regret, ok)
    result.findings["planner_accuracy"] = agreements / cases
    return result
