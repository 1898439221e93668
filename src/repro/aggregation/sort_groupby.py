"""Sort-based grouped aggregation.

Sort the rows by key, then reduce equal-key runs with a sequential
segmented reduction — no random traffic at all, at the price of a full
radix sort.  The two materialization patterns mirror the join study:

* ``gfur`` — sort ``(key, tuple ID)``, then fetch each value column
  through the permuted IDs (an unclustered gather, exactly the cost the
  paper attacks) before reducing;
* ``gftr`` — sort the keys, then lazily sort ``(key, value column)``
  per aggregate and reduce the sorted column sequentially (Algorithm
  1's lazy per-column transform, applied to aggregation).

Host-side the strategy only prices: every sort is charged
(:func:`~repro.primitives.sort_pairs.argsort_cost_only`) with
bytes-only reservations for its outputs, and the values come from the
fold of record (:func:`~repro.aggregation.base.fold_groups`).  Only
GFUR's gathers read real data: the sector analysis of the stably
sorted tuple IDs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import AggregationConfigError
from ..gpusim.kernel import KernelStats
from ..primitives.grouping import stable_key_order
from ..primitives.sort_pairs import argsort_cost_only
from ..relational.types import id_dtype
from .base import (
    AGGREGATE,
    MATERIALIZE,
    TRANSFORM,
    GroupByAlgorithm,
    GroupByConfig,
    charge_column_folds,
    gather_through,
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

    def _price(self, ctx, keys, values, aggregates, inverse, num_groups) -> None:
        n = int(keys.size)
        held = []
        with ctx.phase(TRANSFORM):
            if self.pattern == "gfur":
                id_type = np.dtype(id_dtype(n))
                id_bytes = n * id_type.itemsize
                ctx.submit(
                    KernelStats(name="init_ids", items=n, seq_write_bytes=id_bytes),
                    phase=TRANSFORM,
                )
                with ctx.mem.reserve(id_bytes, "ids"):
                    argsort_cost_only(
                        ctx, n, keys.itemsize, id_type.itemsize, phase=TRANSFORM
                    )
                held.append(ctx.mem.reserve(id_bytes, "ids_sorted"))
                fetch = gather_through(ctx, stable_key_order(keys).astype(id_type))
            else:
                argsort_cost_only(ctx, n, keys.itemsize, 0, phase=TRANSFORM)

                def fetch(column, label):
                    argsort_cost_only(
                        ctx, n, keys.itemsize, column.itemsize,
                        phase=MATERIALIZE, label=label,
                    )
            held.append(ctx.mem.reserve(int(keys.nbytes), "keys_sorted"))

        with ctx.phase(AGGREGATE):
            # Flag group boundaries: one sequential pass over sorted keys.
            ctx.submit(
                KernelStats(
                    name="segment_boundaries",
                    items=n,
                    seq_read_bytes=int(keys.nbytes),
                    seq_write_bytes=num_groups * 8,
                ),
                phase=AGGREGATE,
            )

        with ctx.phase(MATERIALIZE):
            charge_column_folds(ctx, n, values, aggregates, num_groups, "reduce", fetch)
            for reservation in held:
                reservation.free()
