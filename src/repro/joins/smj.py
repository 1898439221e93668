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

import numpy as np

from ..gpusim.context import GPUContext
from ..gpusim.kernel import KernelStats
from ..primitives.gather import host_take
from ..primitives.merge_path import match_bounds
from ..primitives.sort_pairs import argsort_cost_only, sort_layout
from ..relational.relation import Relation
from .base import (
    MATCH,
    MATERIALIZE,
    TRANSFORM,
    JoinAlgorithm,
    gfur_side_maps,
    hold_first_payload,
    reserve_tuple_ids,
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


def _sort_keys(ctx: GPUContext, rel: Relation, side: str, payload_item_bytes: int):
    """Both SMJs' transform: sort *rel*'s keys, pricing the tuple IDs or
    first payload column sorted with them; returns :func:`sort_layout`."""
    temp = ctx.mem.reserve(_sort_temp_bytes(rel.num_rows), "sort_temp")
    keys_sorted, order = sort_layout(rel.key_values)
    argsort_cost_only(
        ctx, rel.num_rows, rel.key_values.dtype.itemsize, payload_item_bytes,
        phase=TRANSFORM, label=side,
    )
    temp.free()
    return keys_sorted, order


def _merge(ctx, r_keys_sorted, s_keys_sorted, unique_build_keys, config):
    """Merge Path match finding; returns the matched sorted positions."""
    lo, hi = match_bounds(
        ctx,
        r_keys_sorted,
        s_keys_sorted,
        unique_build_keys and not config.double_merge_pass,
        phase=MATCH,
    )
    return expand_bounds(lo, hi)


class SortMergeJoinUM(JoinAlgorithm):
    """Sort-merge join with unoptimized materialization (GFUR)."""

    name = "SMJ-UM"
    pattern = "gfur"

    def _execute_narrow(self, ctx, r, s, unique_build_keys):
        return narrow_sort_merge(ctx, r, s, unique_build_keys, self.config)

    def _execute(self, ctx: GPUContext, r: Relation, s: Relation, unique_build_keys: bool):
        sorted_keys, orders, held = {}, {}, []
        with ctx.phase(TRANSFORM):
            for side, rel in (("r", r), ("s", s)):
                ids = reserve_tuple_ids(ctx, rel, side)
                keys_sorted, orders[side] = _sort_keys(ctx, rel, side, rel.key_values.itemsize)
                ids.free()
                sorted_keys[side] = ctx.mem.adopt(keys_sorted, f"keys_sorted_{side}")
                held.append(ctx.mem.reserve(ids.nbytes, f"ids_sorted_{side}"))

        with ctx.phase(MATCH):
            rk = sorted_keys["r"]
            sk = sorted_keys["s"]
            r_pos, s_pos = _merge(ctx, rk.data, sk.data, unique_build_keys, self.config)
            out_key = host_take(sk.data, s_pos)
            # Physical IDs are fetched through the (clustered) match
            # positions — these reads are cheap; the expensive part is the
            # materialization gathers that use the *values* fetched here
            # as maps.
            sides = gfur_side_maps(
                ctx, r, s, (orders["r"], orders["s"]), (r_pos, s_pos),
                lambda: _charge_match_output(ctx, out_key.size, rk.data.dtype.itemsize),
            )
            ctx.mem.free_all([rk, sk] + held)

        return out_key, sides, None


class SortMergeJoinOM(JoinAlgorithm):
    """Sort-merge join with optimized materialization (GFTR, ours)."""

    name = "SMJ-OM"
    pattern = "gftr"

    def _execute_narrow(self, ctx, r, s, unique_build_keys):
        # Narrow joins coincide with SMJ-UM (nothing extra to sort).
        return narrow_sort_merge(ctx, r, s, unique_build_keys, self.config)

    def _execute(self, ctx: GPUContext, r: Relation, s: Relation, unique_build_keys: bool):
        sorted_keys = {}
        orders = {}
        eager = {}
        with ctx.phase(TRANSFORM):
            for side, rel in (("r", r), ("s", s)):
                # The first payload column sorts with the keys on the
                # device only; the materializer reads it from the base
                # relation through the sort permutation.
                keys_sorted, orders[side] = _sort_keys(
                    ctx, rel, side,
                    sum(rel.column(name).dtype.itemsize for name in rel.payload_names[:1]),
                )
                sorted_keys[side] = ctx.mem.adopt(keys_sorted, f"keys_sorted_{side}")
                eager[side] = hold_first_payload(ctx, rel, f"payload1_{side}")

        with ctx.phase(MATCH):
            rk = sorted_keys["r"]
            sk = sorted_keys["s"]
            vid_r, vid_s = _merge(ctx, rk.data, sk.data, unique_build_keys, self.config)
            out_key = host_take(sk.data, vid_s)
            _charge_match_output(ctx, out_key.size, rk.data.dtype.itemsize)
            a_vid_r = ctx.mem.adopt(vid_r.astype(np.int32, copy=False), "match_vids_r")
            a_vid_s = ctx.mem.adopt(vid_s.astype(np.int32, copy=False), "match_vids_s")
            ctx.mem.free(rk)
            ctx.mem.free(sk)

        sides = {
            "r": (a_vid_r, orders["r"], eager["r"]),
            "s": (a_vid_s, orders["s"], eager["s"]),
        }
        return out_key, sides, _sort_column


def _sort_column(ctx: GPUContext, rel: Relation, column: np.ndarray, out_name: str):
    """Sort ``(key, column)`` pairs on the device (Algorithm 1, lines 5
    and 8).  The re-sorted keys are discarded unread, so they and the
    sorted column are bytes-only reservations; returns the column's."""
    temp = ctx.mem.reserve(_sort_temp_bytes(rel.num_rows), "sort_temp")
    argsort_cost_only(
        ctx, rel.num_rows, rel.key_values.dtype.itemsize,
        column.dtype.itemsize, phase=MATERIALIZE, label=out_name,
    )
    temp.free()
    resorted_keys = ctx.mem.reserve(rel.key_values.nbytes, f"keys_resorted_{out_name}")
    held = ctx.mem.reserve(column.nbytes, f"payload_sorted_{out_name}")
    resorted_keys.free()
    return held
