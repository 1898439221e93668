"""Out-of-core grouped aggregation: inputs larger than device memory.

The group-by analogue of :mod:`repro.joins.out_of_core`, used by the
graceful-degradation ladder when even ``PART-AGG`` exceeds the
(injected or real) device budget:

1. radix-partition the rows *on the host* by hashed group-key bits into
   ``B`` blocks — every group lands wholly in one block, and the rows of
   a group keep their original relative order (stable mask selection);
2. per block: transfer in, run the inner in-memory strategy on a fresh
   device context, transfer the (tiny) aggregate output back;
3. merge the per-block outputs.  The blocks' group-key sets are
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

from ..errors import DeviceOutOfMemoryError
from ..gpusim.context import GPUContext
from ..gpusim.device import A100, CPU_SERVER, DeviceSpec
from ..gpusim.kernel import KernelStats
from ..primitives.gather import host_take
from ..primitives.grouping import bucket_rows, group_identify
from ..primitives.radix_partition import partition_codes
from .base import AggSpec, GroupByResult, fold_groups, merge_disjoint_groups
from .planner import make_groupby_algorithm

#: Working-set multiple of the input bytes a block must fit alongside
#: (partitioned copies plus the accumulator table).
WORKING_SET_FACTOR = 2.0

#: One 8-bit host partitioning pass bounds the staging fan-out.
MAX_BLOCKS = 256


def estimate_groupby_footprint(keys: np.ndarray, values: Dict[str, np.ndarray]) -> int:
    """Bytes an in-memory partitioned aggregation needs on the device."""
    input_bytes = int(keys.nbytes) + sum(int(v.nbytes) for v in values.values())
    return int(input_bytes * WORKING_SET_FACTOR)


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
        self.fault_plan = None if fault_plan is None else fault_plan.without_capacity()
        self.min_blocks = min_blocks

    # -- planning ------------------------------------------------------------

    def plan_blocks(
        self, keys: np.ndarray, values: Dict[str, np.ndarray], budget: int
    ) -> int:
        """Number of staged blocks (a power of two; 1 = fits in memory)."""
        footprint = estimate_groupby_footprint(keys, values)
        ratio = footprint / budget
        if math.ceil(ratio) > MAX_BLOCKS:
            raise DeviceOutOfMemoryError(
                footprint // MAX_BLOCKS,
                0,
                budget,
                label=f"out-of-core block ({MAX_BLOCKS} blocks max)",
            )
        blocks = 1 if footprint <= budget else 1 << max(
            1, math.ceil(math.log2(ratio))
        )
        blocks = max(blocks, self.min_blocks)
        return min(MAX_BLOCKS, 1 << math.ceil(math.log2(blocks)))

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
        the order the total adds them.
        """
        keys = np.asarray(keys)
        budget = (
            self.device_budget_bytes
            if self.device_budget_bytes is not None
            else device.global_mem_bytes
        )
        num_blocks = self.plan_blocks(keys, values, budget)
        bits = max(1, int(math.log2(num_blocks)))

        host_ctx = GPUContext(device=self.host_device, seed=seed)
        transfer_ctx = GPUContext(device=device, seed=seed)

        codes = partition_codes(keys, bits, hashed=True)
        input_bytes = int(keys.nbytes) + sum(int(v.nbytes) for v in values.values())
        passes = max(1, -(-bits // 8))
        host_ctx.submit(
            KernelStats(
                name="host_partition",
                items=int(keys.size) * passes,
                seq_read_bytes=input_bytes * passes,
                seq_write_bytes=input_bytes * passes,
                launches=0,
            ),
            phase="host_partition",
        )

        strategy = make_groupby_algorithm(self.inner, self.config)
        block_results: List[GroupByResult] = []
        for block, rows in enumerate(bucket_rows(codes, 1 << bits)):
            if rows.size == 0:
                continue
            block_keys = host_take(keys, rows)
            block_values = {name: host_take(col, rows) for name, col in values.items()}
            block_bytes = int(block_keys.nbytes) + sum(
                int(v.nbytes) for v in block_values.values()
            )
            self._charge_transfer(transfer_ctx, block_bytes, f"transfer_in_{block}")
            ctx = GPUContext(
                device=device,
                seed=None if seed is None else seed + block,
                fault_plan=self.fault_plan,
                fault_site=f"gpu/block{block}",
            )
            result = strategy.group_by(
                block_keys, block_values, list(aggregates), ctx=ctx
            )
            out_bytes = sum(int(col.nbytes) for col in result.output.values())
            self._charge_transfer(transfer_ctx, out_bytes, f"transfer_out_{block}")
            block_results.append(result)

        if block_results:
            output, merge_seconds = self._merge(block_results, device)
        else:
            # Zero rows: the fold of record keeps the dtype contract.
            output = fold_groups(*group_identify(keys), values, aggregates)
            merge_seconds = 0.0
        return GroupByResult.combine(
            block_results, output, keys, values, algorithm=f"OOC[{self.inner}]",
            pattern=strategy.pattern, device=device,
            phase_seconds={
                "host-partition": host_ctx.elapsed_seconds,
                "transfer": transfer_ctx.elapsed_seconds,
                "merge": merge_seconds,
                "device": sum(res.total_seconds for res in block_results),
            },
            num_blocks=num_blocks,
        )

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _charge_transfer(ctx: GPUContext, num_bytes: int, label: str) -> None:
        ctx.submit(
            KernelStats(name=label, host_transfer_bytes=int(num_bytes), launches=0),
            phase="transfer",
        )

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
