"""Sort-merge joins: SMJ-UM (GFUR) and SMJ-OM (GFTR).

``SMJ-UM`` (Section 3.1) sorts ``(key, physical ID)`` pairs, merges, and
materializes payloads with *unclustered* gathers through the permuted
physical IDs.

``SMJ-OM`` (Section 4.2, Figure 5) sorts every payload column together
with the keys, merges with *virtual* IDs, and materializes with
*clustered* gathers from the sorted payload columns — trading ~4 extra
sequential radix passes per payload column for the removal of the random
scan, which the paper shows is a large net win on wide, high-match-ratio
joins.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..gpusim.context import GPUContext
from ..gpusim.kernel import KernelStats
from ..primitives.gather import gather
from ..primitives.merge_path import match_bounds
from ..primitives.sort_pairs import argsort_cost_only, sort_pairs
from ..relational.relation import Relation
from .base import (
    MATCH,
    MATERIALIZE,
    TRANSFORM,
    JoinAlgorithm,
    init_tuple_ids,
    output_column_names,
)
from .matching import expand_bounds
from .narrow import narrow_sort_merge


def _sort_temp_bytes(n: int) -> int:
    """CUB radix-sort intermediate storage (per-block histograms etc.)."""
    return 256 * 8 * max(1, n // 4096) + 4096


def _charge_match_output(
    ctx: GPUContext, matches: int, key_bytes: int, id_bytes: int = 4
) -> None:
    """Write the output keys and the two match-ID arrays sequentially."""
    ctx.submit(
        KernelStats(
            name="write_matches",
            items=matches,
            seq_write_bytes=matches * (key_bytes + 2 * id_bytes),
        ),
        phase=MATCH,
    )


class SortMergeJoinUM(JoinAlgorithm):
    """Sort-merge join with unoptimized materialization (GFUR)."""

    name = "SMJ-UM"
    pattern = "gfur"

    def _execute_narrow(self, ctx, r, s, unique_build_keys):
        return narrow_sort_merge(ctx, r, s, unique_build_keys, self.config)

    def _execute(
        self, ctx: GPUContext, r: Relation, s: Relation, unique_build_keys: bool
    ) -> List[Tuple[str, np.ndarray]]:
        transformed = {}
        with ctx.phase(TRANSFORM):
            for side, rel in (("r", r), ("s", s)):
                ids = init_tuple_ids(ctx, rel.num_rows, TRANSFORM, side, dtype=rel.key_values.dtype)
                a_ids = ctx.mem.adopt(ids, f"ids_{side}")
                temp = ctx.mem.alloc(_sort_temp_bytes(rel.num_rows), np.uint8, "sort_temp")
                keys_sorted, (ids_sorted,) = sort_pairs(
                    ctx, rel.key_values, [ids], phase=TRANSFORM, label=side
                )
                ctx.mem.free(temp)
                ctx.mem.free(a_ids)
                transformed[side] = (
                    ctx.mem.adopt(keys_sorted, f"keys_sorted_{side}"),
                    ctx.mem.adopt(ids_sorted, f"ids_sorted_{side}"),
                )

        with ctx.phase(MATCH):
            rk, r_ids = transformed["r"]
            sk, s_ids = transformed["s"]
            lo, hi = match_bounds(
                ctx,
                rk.data,
                sk.data,
                unique_build_keys and not self.config.double_merge_pass,
                phase=MATCH,
            )
            r_pos, s_pos = expand_bounds(lo, hi)
            out_key = sk.data[s_pos]
            # Physical IDs are fetched through the (clustered) match
            # positions — these reads are cheap; the expensive part is the
            # materialization gathers below that use the *values* fetched
            # here as maps.
            id_r = gather(ctx, r_ids.data, r_pos, phase=MATCH, label="id_r")
            id_s = gather(ctx, s_ids.data, s_pos, phase=MATCH, label="id_s")
            _charge_match_output(ctx, out_key.size, rk.data.dtype.itemsize)
            a_id_r = ctx.mem.adopt(id_r, "match_ids_r")
            a_id_s = ctx.mem.adopt(id_s, "match_ids_s")
            for arr in (rk, r_ids, sk, s_ids):
                ctx.mem.free(arr)

        columns: List[Tuple[str, np.ndarray]] = [("key", out_key)]
        with ctx.phase(MATERIALIZE):
            for side, source, out_name in output_column_names(r, s, self.config.projection):
                if out_name == "key":
                    continue
                rel = r if side == "r" else s
                ids = id_r if side == "r" else id_s
                columns.append(
                    (out_name, gather(ctx, rel.column(source), ids, phase=MATERIALIZE, label=out_name))
                )
            ctx.mem.free(a_id_r)
            ctx.mem.free(a_id_s)
        return columns


class SortMergeJoinOM(JoinAlgorithm):
    """Sort-merge join with optimized materialization (GFTR, ours)."""

    name = "SMJ-OM"
    pattern = "gftr"

    def _execute_narrow(self, ctx, r, s, unique_build_keys):
        # Narrow joins coincide with SMJ-UM (nothing extra to sort).
        return narrow_sort_merge(ctx, r, s, unique_build_keys, self.config)

    def _execute(
        self, ctx: GPUContext, r: Relation, s: Relation, unique_build_keys: bool
    ) -> List[Tuple[str, np.ndarray]]:
        first_payload = {}
        sorted_keys = {}
        key_orders = {}
        with ctx.phase(TRANSFORM):
            for side, rel in (("r", r), ("s", s)):
                payload_names = rel.payload_names
                first = payload_names[0] if payload_names else None
                payloads = [rel.column(first)] if first else []
                temp = ctx.mem.alloc(_sort_temp_bytes(rel.num_rows), np.uint8, "sort_temp")
                keys_sorted, payloads_sorted, key_orders[side] = sort_pairs(
                    ctx, rel.key_values, payloads, phase=TRANSFORM, label=side,
                    return_order=True,
                )
                ctx.mem.free(temp)
                sorted_keys[side] = ctx.mem.adopt(keys_sorted, f"keys_sorted_{side}")
                if first:
                    first_payload[side] = (
                        first,
                        ctx.mem.adopt(payloads_sorted[0], f"payload1_{side}"),
                    )

        with ctx.phase(MATCH):
            rk = sorted_keys["r"]
            sk = sorted_keys["s"]
            lo, hi = match_bounds(
                ctx,
                rk.data,
                sk.data,
                unique_build_keys and not self.config.double_merge_pass,
                phase=MATCH,
            )
            vid_r, vid_s = expand_bounds(lo, hi)
            out_key = sk.data[vid_s]
            _charge_match_output(ctx, out_key.size, rk.data.dtype.itemsize)
            a_vid_r = ctx.mem.adopt(vid_r.astype(np.int32, copy=False), "match_vids_r")
            a_vid_s = ctx.mem.adopt(vid_s.astype(np.int32, copy=False), "match_vids_s")
            ctx.mem.free(rk)
            ctx.mem.free(sk)

        columns: List[Tuple[str, np.ndarray]] = [("key", out_key)]
        with ctx.phase(MATERIALIZE):
            for side, source, out_name in output_column_names(r, s, self.config.projection):
                if out_name == "key":
                    continue
                rel = r if side == "r" else s
                vids = a_vid_r.data if side == "r" else a_vid_s.data
                first = first_payload.get(side)
                if first and first[0] == source:
                    transformed = first[1]
                    columns.append(
                        (out_name, gather(ctx, transformed.data, vids, phase=MATERIALIZE, label=out_name))
                    )
                    ctx.mem.free(transformed)
                    continue
                # Lazily transform this payload column with the keys
                # (Algorithm 1, lines 5 and 8), then gather clustered.
                # The device sorts the (key, column) pairs in full; the
                # host reuses the transform-phase permutation of the same
                # keys and gathers only the column, since the re-sorted
                # keys are discarded unread — their bytes are reserved.
                column = rel.column(source)
                temp = ctx.mem.alloc(_sort_temp_bytes(rel.num_rows), np.uint8, "sort_temp")
                argsort_cost_only(
                    ctx, rel.num_rows, rel.key_values.dtype.itemsize,
                    column.dtype.itemsize, phase=MATERIALIZE, label=out_name,
                )
                ctx.mem.free(temp)
                resorted_keys = ctx.mem.reserve(
                    rel.key_values.nbytes, f"keys_resorted_{out_name}"
                )
                a_tcol = ctx.mem.adopt(
                    column[key_orders[side]], f"payload_sorted_{out_name}"
                )
                resorted_keys.free()
                columns.append(
                    (out_name, gather(ctx, a_tcol.data, vids, phase=MATERIALIZE, label=out_name))
                )
                ctx.mem.free(a_tcol)
            # A projection may skip the eagerly transformed first payloads.
            for _, handle in first_payload.values():
                if not handle.freed:
                    ctx.mem.free(handle)
            ctx.mem.free(a_vid_r)
            ctx.mem.free(a_vid_s)
        return columns
