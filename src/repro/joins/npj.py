"""Non-partitioned hash join — the cuDF-style baseline (Section 5.2.2).

No transformation phase: R's keys go straight into one global-memory
hash table, which S's keys then probe.  Construction and probing are
random global-memory accesses (the table does not fit in shared memory),
which is why the paper finds this join up to 4x slower than the
partitioned algorithms despite doing less total work.

Materialization follows GFUR for the build side (the stored physical IDs
are effectively random), but the probe side materializes *clustered*:
matches stream out in probe order, so probe-side gathers are cheap —
exactly the nuance Figure 10 notes ("it has a lower materialization cost
than *-UM since materializing the probe table is clustered").

The device table is priced as a bytes-only reservation of
``capacity * SLOT_BYTES``: the host table of
:mod:`~repro.primitives.hash_table` holds the real keys and values, and
its touched slots are dropped once their traffic is charged.
"""

from __future__ import annotations

import numpy as np

from ..gpusim.context import GPUContext
from ..gpusim.kernel import KernelStats
from ..primitives.hash_table import (
    SLOT_BYTES,
    build_table,
    probe_table,
    table_capacity,
)
from ..primitives.gather import host_take
from ..primitives.sector_analysis import analyze_indices
from ..relational.relation import Relation
from .base import MATCH, JoinAlgorithm


def _charge_table_traffic(
    ctx: GPUContext,
    touched_slots: np.ndarray,
    capacity: int,
    items: int,
    extra_seq_read: int,
    extra_seq_write: int,
    name: str,
) -> None:
    """Random slot traffic measured from the actual probe sequences."""
    ctx.count("hash_table_probe_slots", int(touched_slots.size))
    sector = analyze_indices(touched_slots, SLOT_BYTES)
    ctx.submit(
        KernelStats(
            name=name,
            items=items,
            seq_read_bytes=extra_seq_read,
            seq_write_bytes=extra_seq_write,
            random_requests=sector.requests,
            random_sector_touches=sector.sector_touches,
            random_cold_sectors=sector.cold_sectors,
            locality_footprint_bytes=sector.mean_warp_span_bytes,
        ),
        phase=MATCH,
    )


def _build(ctx: GPUContext, r: Relation, capacity: int):
    """Insert R into the table and charge the inserts; returns the host
    table's keys and values (its touched slots die here)."""
    # Each insert reads its key and one 4-byte build ID.
    build_ids = np.arange(r.num_rows, dtype=np.int32)
    build = build_table(r.key_values, build_ids, capacity)
    _charge_table_traffic(
        ctx,
        build.touched_slots,
        capacity,
        items=r.num_rows,
        extra_seq_read=int(r.key_values.nbytes) + 4 * r.num_rows,
        extra_seq_write=0,
        name="npj_build",
    )
    return build.table_keys, build.table_values


class NonPartitionedHashJoin(JoinAlgorithm):
    """Global-hash-table join in the style of cuDF's default inner join."""

    name = "NPJ"
    pattern = "gfur"

    def _execute(self, ctx: GPUContext, r: Relation, s: Relation, unique_build_keys: bool):
        del unique_build_keys  # the table handles duplicates uniformly
        capacity = table_capacity(r.num_rows)

        with ctx.phase(MATCH):
            # The device table's contents are never read back: the host
            # table below stands in for it, so it is priced, not built.
            table = ctx.mem.reserve(capacity * SLOT_BYTES, "hash_table")
            table_keys, table_values = _build(ctx, r, capacity)
            probe = probe_table(table_keys, table_values, s.key_values)
            id_r = probe.build_values
            id_s = probe.probe_indices
            out_key = host_take(s.key_values, id_s)
            _charge_table_traffic(
                ctx,
                probe.touched_slots,
                capacity,
                items=s.num_rows,
                extra_seq_read=int(s.key_values.nbytes),
                extra_seq_write=int(
                    out_key.nbytes + id_r.size * 4 + id_s.size * 4
                ),
                name="npj_probe",
            )
            a_id_r = ctx.mem.adopt(id_r.astype(np.int32, copy=False), "match_ids_r")
            a_id_s = ctx.mem.adopt(id_s.astype(np.int32, copy=False), "match_ids_s")
            table.free()

        return out_key, {"r": (a_id_r, None, None), "s": (a_id_s, None, None)}, None
