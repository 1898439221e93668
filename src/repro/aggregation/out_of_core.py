"""Out-of-core grouped aggregation: inputs larger than device memory.

The group-by analogue of :mod:`repro.joins.out_of_core`, on the same
host stager (:mod:`repro.primitives.staging`).  The graceful-degradation
ladder uses it when even ``PART-AGG`` exceeds the (injected or real)
device budget:

1. if the whole input fits the budget, transfer it once and run the
   inner in-memory strategy;
2. otherwise radix-partition the rows *on the host* by hashed group-key
   bits into ``B`` blocks — every group lands wholly in one block, and
   the rows of a group keep their original relative order (stable
   bucket order);
3. per block: transfer in, run the inner strategy on a fresh device
   context, transfer the (tiny) aggregate output back;
4. merge the per-block outputs.  The blocks' group-key sets are
   disjoint and each is ascending, so a stable sort of the concatenated
   keys reproduces exactly the global ascending key order of the
   in-memory strategies.

Because each group is folded on one block from the same values in the
same order as the in-memory run, the merged output is **bit-identical**
— including order-sensitive float accumulations such as ``mean``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from ..errors import AggregationConfigError, DeviceOutOfMemoryError
from ..gpusim.context import GPUContext
from ..gpusim.device import A100, CPU_SERVER, DeviceSpec
from ..gpusim.kernel import KernelStats
from ..primitives.gather import host_take
from ..primitives.grouping import group_identify
from ..primitives.staging import MAX_PIECES, HostStager, fan_out, staging_budget
from .base import AggSpec, GroupByResult, fold_groups, merge_disjoint_groups
from .planner import make_groupby_algorithm

#: Working-set multiple of the input bytes a block must fit alongside
#: (partitioned copies plus the accumulator table).
WORKING_SET_FACTOR = 2.0


def _input_bytes(keys: np.ndarray, values: Dict[str, np.ndarray]) -> int:
    return int(keys.nbytes) + sum(int(v.nbytes) for v in values.values())


def _output_bytes(result: GroupByResult) -> int:
    return sum(int(col.nbytes) for col in result.output.values())


def estimate_groupby_footprint(keys: np.ndarray, values: Dict[str, np.ndarray]) -> int:
    """Bytes an in-memory partitioned aggregation needs on the device."""
    return int(_input_bytes(keys, values) * WORKING_SET_FACTOR)


class OutOfCoreGroupBy:
    """Stage a group-by through host memory when it exceeds the budget.

    Parameters
    ----------
    inner:
        Name of the in-memory strategy run per block (default
        ``PART-AGG``, the smallest-footprint strategy).
    device_budget_bytes:
        Per-block working-set budget; ``None`` uses the device capacity.
    fault_plan:
        Forwarded (without its capacity pressure) into the per-block
        device contexts so transient kernel faults keep injecting inside
        the degraded execution.
    min_blocks:
        Floor on the staging fan-out — the recovery ladder passes 2 so a
        degradation triggered by an *observed* OOM always re-plans with
        more passes even if the footprint estimate would say "fits".
    """

    def __init__(
        self,
        inner: str = "PART-AGG",
        device_budget_bytes: Optional[int] = None,
        host_device: DeviceSpec = CPU_SERVER,
        config=None,
        fault_plan=None,
        min_blocks: int = 1,
    ):
        self.inner = inner
        self.device_budget_bytes = device_budget_bytes
        self.host_device = host_device
        self.config = config
        self.fault_plan = fault_plan
        self.min_blocks = min_blocks

    # -- planning ------------------------------------------------------------

    def plan_blocks(
        self, keys: np.ndarray, values: Dict[str, np.ndarray], budget: int
    ) -> int:
        """Number of staged blocks (a power of two; 1 = fits in memory).

        A footprint over :data:`~repro.primitives.staging.MAX_PIECES`
        budgets raises :class:`DeviceOutOfMemoryError`: each block's
        working set must fit.
        """
        footprint = estimate_groupby_footprint(keys, values)
        if math.ceil(footprint / budget) > MAX_PIECES:
            raise DeviceOutOfMemoryError(
                footprint // MAX_PIECES,
                0,
                budget,
                label=f"out-of-core block ({MAX_PIECES} blocks max)",
            )
        return fan_out(footprint, budget, self.min_blocks)

    # -- execution ------------------------------------------------------------

    def group_by(
        self,
        keys: np.ndarray,
        values: Dict[str, np.ndarray],
        aggregates: List[AggSpec],
        device: DeviceSpec = A100,
        seed: Optional[int] = None,
    ) -> GroupByResult:
        """Aggregate block by block through host memory.

        ``phase_seconds`` holds ``host-partition``, ``transfer``,
        ``merge`` and ``device`` (the block runs' summed seconds), in
        the order the total adds them; a run that fits in one block has
        only ``transfer`` and ``device``.
        """
        keys = np.asarray(keys)
        budget = staging_budget(self.device_budget_bytes, device, AggregationConfigError)
        num_blocks = self.plan_blocks(keys, values, budget)
        stager = HostStager(
            device, seed, self.fault_plan, "block", _output_bytes,
            host_device=self.host_device,
        )
        strategy = make_groupby_algorithm(self.inner, self.config)
        if num_blocks == 1:
            output = stager.run(
                None, _input_bytes(keys, values),
                lambda ctx: strategy.group_by(keys, values, list(aggregates), ctx=ctx),
            ).output
            phase_seconds = stager.phase_seconds()
        else:
            blocks = stager.partition(keys, _input_bytes(keys, values), num_blocks)
            for block, rows in enumerate(blocks):
                if rows.size == 0:
                    continue
                block_keys = host_take(keys, rows)
                block_values = {name: host_take(col, rows) for name, col in values.items()}
                stager.run(
                    block, _input_bytes(block_keys, block_values),
                    lambda ctx: strategy.group_by(
                        block_keys, block_values, list(aggregates), ctx=ctx
                    ),
                )
            if stager.results:
                output, merge_seconds = self._merge(stager.results, device)
            else:
                # Zero rows: the fold of record keeps the dtype contract.
                output = fold_groups(*group_identify(keys), values, aggregates)
                merge_seconds = 0.0
            phase_seconds = stager.phase_seconds(merge=merge_seconds)
        return GroupByResult.combine(
            stager.results, output, keys, values, algorithm=f"OOC[{self.inner}]",
            pattern=strategy.pattern, device=device,
            phase_seconds=phase_seconds, num_blocks=num_blocks,
        )

    # -- internals -----------------------------------------------------------

    def _merge(self, block_results, device):
        """Merge the per-block outputs (disjoint ascending key sets)."""
        output = merge_disjoint_groups([r.output for r in block_results])
        merge_ctx = GPUContext(device=device)
        out_bytes = sum(int(col.nbytes) for col in output.values())
        merge_ctx.submit(
            KernelStats(
                name="ooc_merge",
                items=int(output["group_key"].size),
                seq_read_bytes=out_bytes,
                seq_write_bytes=out_bytes,
            ),
            phase="merge",
        )
        return output, merge_ctx.elapsed_seconds
