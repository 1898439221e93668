"""Fused join + grouped aggregation.

The paper motivates GPU-resident joins with pipelines whose *consumer*
is not a materialized table — an ML trainer, or (here) an aggregation.
When a group-by consumes a join, two classical optimizations apply:

* **projection pushdown** — only the group-key and aggregated columns
  need to be materialized at all (``JoinConfig.projection``);
* **fusion** — the aggregation folds the gathered values in the same
  kernel that materializes them, so the joined columns are never written
  to and re-read from global memory.

:class:`FusedJoinAggregate` implements both on top of any join
algorithm: it runs the projected join, then folds the group-by on the
same device context, *crediting back* the write+read round trip of the
aggregated columns that fusion elides (the join charged their writes
during materialization; the group-by would charge their reads).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from ..aggregation.base import AggSpec, GroupByAlgorithm, GroupByResult, value_columns
from ..aggregation.planner import make_groupby_algorithm, resolve_groupby_algorithm
from ..errors import JoinConfigError
from ..gpusim.context import GPUContext
from ..gpusim.device import A100, DeviceSpec
from ..gpusim.kernel import KernelStats
from .base import JoinAlgorithm, JoinConfig, JoinResult


@dataclass
class FusedResult:
    """Join + aggregation outcome with the fusion accounting."""

    join_result: JoinResult
    groupby_result: GroupByResult
    #: seconds credited back by not materializing/re-reading fused columns
    fusion_credit_seconds: float

    @property
    def total_seconds(self) -> float:
        return (
            self.join_result.total_seconds
            + self.groupby_result.total_seconds
            - self.fusion_credit_seconds
        )

    @property
    def output(self):
        return self.groupby_result.output


class FusedJoinAggregate:
    """Join two relations and aggregate the result in one pipeline.

    Parameters
    ----------
    join_algorithm:
        Any :class:`~repro.joins.base.JoinAlgorithm` (its config's
        projection is overridden to the columns the aggregation needs).
    groupby_algorithm:
        The fold strategy; ``None`` lets the aggregation planner pick it
        from the joined keys' measured cardinality at run time.
    """

    def __init__(
        self,
        join_algorithm: JoinAlgorithm,
        groupby_algorithm: Optional[GroupByAlgorithm] = None,
    ):
        self.join_algorithm = join_algorithm
        self.groupby_algorithm = groupby_algorithm

    def run(
        self,
        r,
        s,
        group_column: str,
        aggregates: Sequence[AggSpec],
        device: DeviceSpec = A100,
        seed: Optional[int] = None,
        fuse: bool = True,
        fault_plan=None,
    ) -> FusedResult:
        """Execute ``GROUP BY group_column`` over ``R ⋈ S``.

        ``group_column`` and aggregate columns name *output* columns of
        the join.  With ``fuse=False`` the pipeline runs unfused (full
        materialization, then aggregation) for comparison.  A
        ``fault_plan`` injects into both stages' contexts;
        :class:`~repro.errors.DeviceOutOfMemoryError` under its capacity
        pressure propagates to the caller (the executor degrades to the
        unfused resilient path).
        """
        needed = list(dict.fromkeys([group_column, *value_columns(aggregates)]))

        # Run the join with the projection the aggregation needs, on a
        # shallow copy so the caller's algorithm is untouched.
        algorithm = copy.copy(self.join_algorithm)
        algorithm.config = replace(
            self.join_algorithm.config,
            projection=tuple(needed) if fuse else None,
        )
        ctx = GPUContext(
            device=device, seed=seed, fault_plan=fault_plan, fault_site="gpu/fused"
        )
        join_result = algorithm.join(r, s, ctx=ctx)
        joined = join_result.output
        if group_column not in joined:
            raise JoinConfigError(
                f"group column {group_column!r} not in join output "
                f"{joined.column_names}"
            )

        keys = joined.column(group_column)
        values = {name: joined.column(name) for name in value_columns(aggregates)}
        groupby_algorithm = self.groupby_algorithm
        if groupby_algorithm is None:
            groupby_algorithm = make_groupby_algorithm(
                resolve_groupby_algorithm("auto", keys, device).algorithm
            )
        agg_ctx = GPUContext(
            device=device, seed=seed, fault_plan=fault_plan,
            fault_site="gpu/fused-agg",
        )
        groupby_result = groupby_algorithm.group_by(
            keys, values, list(aggregates), ctx=agg_ctx
        )

        credit = 0.0
        if fuse:
            # The fused kernels fold during materialization: credit the
            # write of the fused columns (charged by the join) and their
            # re-read (charged by the group-by).
            fused_bytes = int(keys.nbytes) + sum(v.nbytes for v in values.values())
            credit_ctx = GPUContext(device=device)
            credit = credit_ctx.cost.time(
                KernelStats(
                    name="fusion_credit",
                    seq_read_bytes=fused_bytes,
                    seq_write_bytes=fused_bytes,
                    launches=0,
                )
            )
            ctx.count("fusion_credit_s", credit)
            ctx.count("fusion_elided_bytes", 2 * fused_bytes)
        return FusedResult(
            join_result=join_result,
            groupby_result=groupby_result,
            fusion_credit_seconds=credit,
        )
