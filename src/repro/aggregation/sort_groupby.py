"""Sort-based grouped aggregation.

Sort the rows by key, then reduce equal-key runs with a sequential
segmented reduction — no random traffic at all, at the price of a full
radix sort.  The two materialization patterns mirror the join study:

* ``gfur`` — sort ``(key, tuple ID)``, then *gather* each value column
  through the permuted IDs (an unclustered gather, exactly the cost the
  paper attacks) before reducing;
* ``gftr`` — re-sort ``(key, value column)`` per aggregate and reduce
  the sorted column sequentially (Algorithm 1's lazy per-column
  transform, applied to aggregation).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

import numpy as np

from ..errors import AggregationConfigError
from ..gpusim.context import GPUContext
from ..gpusim.kernel import KernelStats
from ..primitives.gather import gather
from ..primitives.grouping import groups_from_sorted
from ..primitives.sort_pairs import argsort_cost_only, sort_pairs
from ..relational.types import id_dtype
from .base import (
    AGGREGATE,
    MATERIALIZE,
    TRANSFORM,
    AggSpec,
    GroupByAlgorithm,
    GroupByConfig,
    segmented_aggregate,
)


def _charge_segmented_reduce(
    ctx: GPUContext, rows: int, value_bytes: int, out_bytes: int, name: str, phase: str
) -> None:
    """One sequential pass over the sorted column, writing group results."""
    ctx.submit(
        KernelStats(
            name=name,
            items=rows,
            seq_read_bytes=value_bytes,
            seq_write_bytes=out_bytes,
        ),
        phase=phase,
    )


class SortGroupBy(GroupByAlgorithm):
    """Radix-sort + segmented-reduce aggregation."""

    name = "SORT-AGG"
    pattern = "gftr"

    def __init__(self, config: Optional[GroupByConfig] = None, pattern: str = "gftr"):
        super().__init__(config)
        if pattern not in ("gftr", "gfur"):
            raise AggregationConfigError(f"unknown pattern {pattern!r}")
        self.pattern = pattern
        self.name = "SORT-AGG" if pattern == "gftr" else "SORT-AGG/gfur"

    def _execute(
        self,
        ctx: GPUContext,
        keys: np.ndarray,
        values: Dict[str, np.ndarray],
        aggregates: List[AggSpec],
    ) -> "OrderedDict[str, np.ndarray]":
        n = int(keys.size)
        with ctx.phase(TRANSFORM):
            if self.pattern == "gfur":
                ids = np.arange(n, dtype=id_dtype(n))
                ctx.submit(
                    KernelStats(name="init_ids", items=n, seq_write_bytes=int(ids.nbytes)),
                    phase=TRANSFORM,
                )
                a_ids = ctx.mem.adopt(ids, "ids")
                keys_sorted, (ids_sorted,) = sort_pairs(ctx, keys, [ids], phase=TRANSFORM)
                ctx.mem.free(a_ids)
                a_sorted_ids = ctx.mem.adopt(ids_sorted, "ids_sorted")
                key_order = None
            else:
                keys_sorted, _, key_order = sort_pairs(
                    ctx, keys, [], phase=TRANSFORM, return_order=True
                )
                a_sorted_ids = None
            a_keys = ctx.mem.adopt(keys_sorted, "keys_sorted")

        group_keys, inverse_sorted = groups_from_sorted(keys_sorted)
        num_groups = int(group_keys.size)
        output: "OrderedDict[str, np.ndarray]" = OrderedDict()
        output["group_key"] = group_keys

        with ctx.phase(AGGREGATE):
            # Flag group boundaries: one sequential pass over sorted keys.
            ctx.submit(
                KernelStats(
                    name="segment_boundaries",
                    items=n,
                    seq_read_bytes=int(keys_sorted.nbytes),
                    seq_write_bytes=num_groups * 8,
                ),
                phase=AGGREGATE,
            )

        with ctx.phase(MATERIALIZE):
            for spec in aggregates:
                if spec.op == "count":
                    output[spec.output_name] = segmented_aggregate(
                        inverse_sorted, num_groups, None, "count"
                    )
                    _charge_segmented_reduce(
                        ctx, n, 0, num_groups * 8, f"reduce:{spec.output_name}", MATERIALIZE
                    )
                    continue
                column = values[spec.column]
                if self.pattern == "gfur":
                    # Unclustered gather through the permuted IDs.
                    sorted_col = gather(
                        ctx,
                        column,
                        a_sorted_ids.data,
                        phase=MATERIALIZE,
                        label=spec.column,
                    )
                else:
                    # Lazily re-sort (key, column): Algorithm 1 for
                    # aggregations — sequential passes only.  The device
                    # re-sorts the keys too, but only the column is
                    # read, so the host reuses the transform's stable
                    # permutation and moves the column alone.
                    argsort_cost_only(
                        ctx, n, keys.itemsize, column.itemsize,
                        phase=MATERIALIZE, label=spec.column,
                    )
                    sorted_col = column[key_order]
                output[spec.output_name] = segmented_aggregate(
                    inverse_sorted, num_groups, sorted_col, spec.op
                )
                _charge_segmented_reduce(
                    ctx,
                    n,
                    int(sorted_col.nbytes),
                    num_groups * 8,
                    f"reduce:{spec.output_name}",
                    MATERIALIZE,
                )
            ctx.mem.free(a_keys)
            if a_sorted_ids is not None:
                ctx.mem.free(a_sorted_ids)
        return output
