"""abl01: Algorithm 1's lazy per-column transform vs an eager variant.

The GFTR pattern could transform *all* payload columns up front instead
of one at a time during materialization (Algorithm 1 lines 4-9).  Time
is nearly identical (the same kernels run, just reordered), but the
eager variant must hold every transformed payload column simultaneously
— the memory saving is the design point this ablation quantifies
(Section 4.1: "transforming and gathering one payload column at a time
saves memory").
"""

from __future__ import annotations

from typing import Tuple

from ...gpusim.context import GPUContext
from ...joins.matching import match_positions
from ...joins.phj import charge_hash_match, charge_load_balancing, derive_partition_bits
from ...primitives.gather import gather
from ...primitives.radix_partition import grouping_bits, radix_partition
from ...workloads.generators import JoinWorkloadSpec, generate_join_workload
from ..harness import DEFAULT_SCALE, ExperimentResult, make_setup, run_algorithm

PAPER_ROWS = 1 << 26
PAYLOAD_COLUMNS = 4


def _eager_gftr_join(ctx: GPUContext, r, s, setup) -> Tuple[float, int]:
    """PHJ-OM with every payload column partitioned up front."""
    bits = derive_partition_bits(r.num_rows, setup.config.tuples_per_partition)
    parts = {}
    adopted = {}
    with ctx.phase("transform"):
        for side, rel in (("r", r), ("s", s)):
            payload_arrays = list(rel.payload_columns().values())
            part = radix_partition(
                ctx, rel.key_values, payload_arrays, bits, phase="transform", label=side
            )
            parts[side] = part
            ctx.mem.adopt(part.keys, f"part_keys_{side}")
            adopted[side] = [
                ctx.mem.adopt(p, f"part_payload_{side}_{i}")
                for i, p in enumerate(part.payloads)
            ]
    with ctx.phase("match"):
        pr, ps = parts["r"], parts["s"]
        charge_load_balancing(ctx, ps.num_partitions)
        vid_r, vid_s = match_positions(pr.keys, ps.keys, True, grouping_bits(pr))
        key_bytes = pr.keys.dtype.itemsize
        charge_hash_match(
            ctx, pr.counts, ps.counts, key_bytes, key_bytes,
            matches=int(vid_s.size), key_bytes=key_bytes,
            tuples_per_partition=setup.config.tuples_per_partition,
        )
        ctx.mem.adopt(vid_r, "match_vids_r")
        ctx.mem.adopt(vid_s, "match_vids_s")
        ctx.mem.free_by_prefix("part_keys_")
    with ctx.phase("materialize"):
        for side, vids in (("r", vid_r), ("s", vid_s)):
            for handle in adopted[side]:
                gather(ctx, handle.data, vids, phase="materialize")
                ctx.mem.free(handle)
        ctx.mem.free_by_prefix("match_vids_")
    return ctx.elapsed_seconds, ctx.mem.peak_bytes


def run(scale: float = DEFAULT_SCALE, seed: int = 0) -> ExperimentResult:
    setup = make_setup(scale)
    spec = JoinWorkloadSpec(
        r_rows=setup.rows(PAPER_ROWS),
        s_rows=setup.rows(PAPER_ROWS),
        r_payload_columns=PAYLOAD_COLUMNS,
        s_payload_columns=PAYLOAD_COLUMNS,
        seed=seed,
    )
    r, s = generate_join_workload(spec)

    lazy = run_algorithm("PHJ-OM", r, s, setup)
    eager_ctx = GPUContext(device=setup.device, seed=seed)
    eager_seconds, eager_peak = _eager_gftr_join(eager_ctx, r, s, setup)

    result = ExperimentResult(
        experiment_id="abl01",
        title="GFTR transform scheduling: lazy (Algorithm 1) vs eager",
        headers=["variant", "total_ms", "peak_aux_MB"],
    )
    result.add_row("lazy (Algorithm 1)", lazy.total_seconds * 1e3,
                   lazy.peak_aux_bytes / 1e6)
    result.add_row("eager (all columns up front)", eager_seconds * 1e3,
                   eager_peak / 1e6)
    result.findings["memory_saving"] = eager_peak / max(1, lazy.peak_aux_bytes)
    result.findings["time_ratio"] = eager_seconds / lazy.total_seconds
    result.add_note(
        "lazy transform trades no time for a peak-memory reduction that "
        "grows with the payload column count"
    )
    return result
