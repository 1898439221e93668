"""Out-of-core joins: inputs larger than device memory.

The paper scopes itself to in-memory joins and lists the out-of-memory
case as related work ([35, 55, 60]).  This module implements the
standard staging design those systems use, on top of any in-memory join
of this library:

1. if the whole join (inputs + output + auxiliary working set) fits the
   device budget, transfer once and run the in-memory join;
2. otherwise, radix-co-partition R and S *on the host* into ``C``
   chunk pairs such that each pair's join fits, then for each pair:
   transfer the chunks over the interconnect, join on device, transfer
   the partial result back, release.

Because partitioning is on (hashed) key bits, matches only exist within
co-chunks, so concatenating the partial outputs yields exactly the
in-memory join's result.  Host partitioning streams at host-memory
bandwidth; transfers ride the device's ``interconnect_bandwidth``
(PCIe 4.0 x16 by default) — the dominant cost, which is why out-of-core
throughput falls off a cliff at the memory boundary.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..errors import JoinConfigError
from ..gpusim.context import GPUContext
from ..gpusim.device import A100, CPU_SERVER, DeviceSpec
from ..gpusim.kernel import KernelStats
from ..primitives.grouping import bucket_rows
from ..primitives.radix_partition import partition_codes
from ..relational.relation import Relation
from .base import JoinAlgorithm, JoinResult

#: Fraction of the device budget the planner leaves for auxiliary
#: structures and the output when sizing chunks.
WORKING_SET_FACTOR = 3.0

#: Upper bound on the staging fan-out; one host partitioning pass with
#: 8 radix bits yields at most 256 co-chunks (matching the device
#: partitioner's per-pass limit).
MAX_CHUNKS = 256


def estimate_join_footprint(r: Relation, s: Relation) -> int:
    """Bytes a monolithic in-memory join needs on the device."""
    input_bytes = r.total_bytes + s.total_bytes
    # Output at ~|S| rows of the combined schema + auxiliary working set.
    row_bytes = r.total_bytes // max(1, r.num_rows) + s.total_bytes // max(1, s.num_rows)
    output_bytes = s.num_rows * row_bytes
    return int((input_bytes + output_bytes) * WORKING_SET_FACTOR / 2)


class OutOfCoreJoin:
    """Stage a join through host memory when it exceeds the device budget."""

    def __init__(
        self,
        inner: JoinAlgorithm,
        device_budget_bytes: Optional[int] = None,
        host_device: DeviceSpec = CPU_SERVER,
        fault_plan=None,
        min_chunks: int = 1,
    ):
        self.inner = inner
        self.device_budget_bytes = device_budget_bytes
        self.host_device = host_device
        #: Forwarded (without its capacity pressure) into the per-chunk
        #: device contexts, so transient kernel faults keep injecting
        #: inside the degraded execution it exists to escape.
        self.fault_plan = None if fault_plan is None else fault_plan.without_capacity()
        #: Floor on the fan-out; the graceful-degradation ladder passes 2
        #: so an *observed* OOM always re-plans with more passes even if
        #: the footprint estimate would say "fits".
        self.min_chunks = min_chunks

    # -- planning ------------------------------------------------------------

    def plan_chunks(self, r: Relation, s: Relation, budget: int) -> int:
        """Number of co-chunks (a power of two; 1 = fits in memory)."""
        footprint = estimate_join_footprint(r, s)
        if footprint <= budget:
            chunks = 1
        else:
            ratio = footprint / budget
            chunks = 1 << max(1, math.ceil(math.log2(ratio)))
        chunks = max(chunks, self.min_chunks)
        return min(MAX_CHUNKS, 1 << math.ceil(math.log2(max(1, chunks))))

    # -- execution ------------------------------------------------------------

    def join(
        self,
        r: Relation,
        s: Relation,
        device: DeviceSpec = A100,
        seed: Optional[int] = None,
    ) -> JoinResult:
        """Run ``R ⋈ S`` staged through host memory as needed.

        ``phase_seconds`` holds ``host-partition`` (staged runs only),
        ``transfer`` and ``device`` (the chunk joins' summed seconds).
        """
        if self.device_budget_bytes is None:
            budget = device.global_mem_bytes
        else:
            budget = self.device_budget_bytes
        if budget <= 0:
            raise JoinConfigError("device budget must be positive")
        num_chunks = self.plan_chunks(r, s, budget)

        host_ctx = GPUContext(device=self.host_device, seed=seed)
        transfer_ctx = GPUContext(device=device, seed=seed)

        chunk_results: List[JoinResult] = []
        if num_chunks == 1:
            self._charge_transfer(
                transfer_ctx, r.total_bytes + s.total_bytes, "transfer_in"
            )
            result = self.inner.join(
                r, s, ctx=self._chunk_context(device, seed, 0)
            )
            self._charge_transfer(transfer_ctx, result.output.total_bytes, "transfer_out")
            chunk_results.append(result)
            output = result.output
            phase_seconds = {}
        else:
            bits = int(math.log2(num_chunks))
            r_chunks = self._host_partition(host_ctx, r, bits)
            s_chunks = self._host_partition(host_ctx, s, bits)
            for index, (r_chunk, s_chunk) in enumerate(zip(r_chunks, s_chunks)):
                if r_chunk.num_rows == 0 or s_chunk.num_rows == 0:
                    continue
                self._charge_transfer(
                    transfer_ctx,
                    r_chunk.total_bytes + s_chunk.total_bytes,
                    f"transfer_in_{index}",
                )
                result = self.inner.join(
                    r_chunk, s_chunk,
                    ctx=self._chunk_context(device, seed, index),
                )
                self._charge_transfer(
                    transfer_ctx, result.output.total_bytes, f"transfer_out_{index}"
                )
                chunk_results.append(result)
            output = _concatenate([res.output for res in chunk_results], r, s)
            phase_seconds = {"host-partition": host_ctx.elapsed_seconds}
        phase_seconds["transfer"] = transfer_ctx.elapsed_seconds
        phase_seconds["device"] = sum(res.total_seconds for res in chunk_results)
        return JoinResult.combine(
            chunk_results, output, r, s, algorithm=f"OOC[{self.inner.name}]",
            pattern=self.inner.pattern, device=device,
            phase_seconds=phase_seconds, num_chunks=num_chunks,
        )

    # -- internals -----------------------------------------------------------

    def _chunk_context(
        self, device: DeviceSpec, seed: Optional[int], index: int
    ) -> GPUContext:
        """A fresh unconstrained device context for one chunk join.

        Transient kernel faults keep injecting per chunk (each chunk is
        its own deterministic injection site); memory pressure does not,
        since staging exists to fit under the shrunken capacity.
        """
        return GPUContext(
            device=device,
            seed=None if seed is None else seed + index,
            fault_plan=self.fault_plan,
            fault_site=f"gpu/chunk{index}",
        )

    def _host_partition(
        self, host_ctx: GPUContext, rel: Relation, bits: int
    ) -> List[Relation]:
        """Split a relation into 2^bits co-chunks by hashed key bits.

        Charged as host-side streaming (one read + one write of the
        relation per 8-bit pass, like the device radix partitioner).
        """
        codes = partition_codes(rel.key_values, bits, hashed=True)
        passes = max(1, -(-bits // 8))
        host_ctx.submit(
            KernelStats(
                name="host_partition",
                items=rel.num_rows * passes,
                seq_read_bytes=rel.total_bytes * passes,
                seq_write_bytes=rel.total_bytes * passes,
                launches=0,
            ),
            phase="host_partition",
        )
        return [
            rel.take(rows, name=f"{rel.name}#{chunk_id}")
            for chunk_id, rows in enumerate(bucket_rows(codes, 1 << bits))
        ]

    @staticmethod
    def _charge_transfer(ctx: GPUContext, num_bytes: int, label: str) -> None:
        ctx.submit(
            KernelStats(
                name=label, host_transfer_bytes=int(num_bytes), launches=0
            ),
            phase="transfer",
        )


def _concatenate(partials: List[Relation], r: Relation, s: Relation) -> Relation:
    """Stack partial join outputs into one relation (empty-safe)."""
    from .base import output_column_names

    schema = output_column_names(r, s)
    if not partials:
        columns = []
        for side, source, out_name in schema:
            rel = r if side == "r" else s
            dtype = rel.column(source).dtype
            columns.append((out_name, np.empty(0, dtype=dtype)))
        return Relation(columns, key="key", name="T")
    columns = [
        (name, np.concatenate([p.column(name) for p in partials]))
        for name in partials[0].column_names
    ]
    return Relation(columns, key="key", name="T")
