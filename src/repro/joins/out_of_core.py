"""Out-of-core joins: inputs larger than device memory.

The paper scopes itself to in-memory joins and lists the out-of-memory
case as related work ([35, 55, 60]).  :class:`OutOfCoreJoin` runs any
in-memory join of this library on the shared host stager
(:mod:`repro.primitives.staging`):

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
throughput falls off a cliff at the memory boundary."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..errors import JoinConfigError
from ..gpusim.device import A100, CPU_SERVER, DeviceSpec
from ..primitives.staging import MAX_PIECES, HostStager, fan_out, staging_budget
from ..relational.relation import Relation
from .base import JoinAlgorithm, JoinResult

#: Fraction of the device budget the planner leaves for auxiliary
#: structures and the output when sizing chunks.
WORKING_SET_FACTOR = 3.0

#: Upper bound on the staging fan-out: a join too large for 256 chunks
#: still runs in 256 (each chunk's context does not enforce the budget).
MAX_CHUNKS = MAX_PIECES


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
        self.fault_plan = fault_plan
        #: Floor on the fan-out; the graceful-degradation ladder passes 2
        #: so an *observed* OOM always re-plans with more passes even if
        #: the footprint estimate would say "fits".
        self.min_chunks = min_chunks

    # -- planning ------------------------------------------------------------

    def plan_chunks(self, r: Relation, s: Relation, budget: int) -> int:
        """Number of co-chunks (a power of two; 1 = fits in memory)."""
        return fan_out(estimate_join_footprint(r, s), budget, self.min_chunks)

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
        budget = staging_budget(self.device_budget_bytes, device, JoinConfigError)
        num_chunks = self.plan_chunks(r, s, budget)
        stager = HostStager(
            device, seed, self.fault_plan, "chunk",
            output_bytes=lambda result: result.output.total_bytes,
            host_device=self.host_device,
        )
        if num_chunks == 1:
            output = stager.run(
                None, r.total_bytes + s.total_bytes,
                lambda ctx: self.inner.join(r, s, ctx=ctx),
            ).output
        else:
            r_chunks = _host_partition(stager, r, num_chunks)
            s_chunks = _host_partition(stager, s, num_chunks)
            for index, (r_chunk, s_chunk) in enumerate(zip(r_chunks, s_chunks)):
                if r_chunk.num_rows == 0 or s_chunk.num_rows == 0:
                    continue
                stager.run(
                    index, r_chunk.total_bytes + s_chunk.total_bytes,
                    lambda ctx: self.inner.join(r_chunk, s_chunk, ctx=ctx),
                )
            output = _concatenate([res.output for res in stager.results], r, s)
        return JoinResult.combine(
            stager.results, output, r, s, algorithm=f"OOC[{self.inner.name}]",
            pattern=self.inner.pattern, device=device,
            phase_seconds=stager.phase_seconds(), num_chunks=num_chunks,
        )


def _host_partition(stager: HostStager, rel: Relation, chunks: int) -> List[Relation]:
    """Split a relation into *chunks* co-chunks by hashed key bits."""
    return [
        rel.take(rows, name=f"{rel.name}#{chunk_id}")
        for chunk_id, rows in enumerate(
            stager.partition(rel.key_values, rel.total_bytes, chunks)
        )
    ]


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
