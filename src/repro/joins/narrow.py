"""Narrow-join fast paths (Section 2.2).

A "narrow" join has at most one payload column per relation.  The paper
processes it in *two* phases: the payload is transformed together with
the key, and match finding emits the matched payload values directly —
there is no tuple-ID indirection and no materialization phase (Figure 9
shows only transform and match bars).  Consequently SMJ-OM coincides
with SMJ-UM and PHJ-OM with PHJ-UM up to the partitioner used (bucket
chains skip the boundary histogram, which is why the paper sees PHJ-UM
"slightly better ... for smaller input sizes").

On the host only the keys move: each transform is a layout (keys in
layout order plus the ``order`` permutation) and one charge that prices
the payload travelling with the keys, and the payload is reserved, not
built.  Match finding emits each payload from the base relation through
``order[pos]``, charging the gather the device makes from the
transformed column.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..gpusim.context import GPUContext
from ..gpusim.kernel import KernelStats
from ..primitives.bucket_chain import bucket_chain_layout, charge_bucket_chain
from ..primitives.gather import gather_stats_only, host_take
from ..primitives.merge_path import match_bounds
from ..primitives.radix_partition import charge_radix_partition, partition_layout
from ..primitives.sort_pairs import argsort_cost_only, sort_layout
from ..relational.relation import Relation
from .base import MATCH, TRANSFORM, JoinConfig, is_narrow, layout_rows, output_column_names
from .matching import expand_bounds

__all__ = ["is_narrow", "narrow_partitioned_hash", "narrow_sort_merge"]


def _payloads(rel: Relation) -> List[np.ndarray]:
    """The payload column transformed with *rel*'s keys, if any."""
    return [rel.column(name) for name in rel.payload_names[:1]]


def _emit_output(
    ctx: GPUContext,
    r: Relation,
    s: Relation,
    out_key: np.ndarray,
    sides: Dict[str, Tuple[np.ndarray, np.ndarray]],
) -> List[Tuple[str, np.ndarray]]:
    """Write key + payload columns as match finding emits them.

    *sides* holds each side's layout ``order`` and matched layout
    positions.  The device reads each payload from the transformed
    column at those positions; the host reads the same values from the
    base relation at ``order[pos]``.
    """
    columns: List[Tuple[str, np.ndarray]] = [("key", out_key)]
    for side, source, out_name in output_column_names(r, s)[1:]:
        order, pos = sides[side]
        column = (r if side == "r" else s).column(source)
        item_bytes = column.dtype.itemsize
        gather_stats_only(
            ctx, pos, item_bytes, pos.size * item_bytes, phase=MATCH, label=out_name
        )
        # A narrow side has one payload: its positions are dead now.
        columns.append((out_name, host_take(column, layout_rows(order, pos))))
    ctx.submit(
        KernelStats(name="write_matches", items=int(out_key.size),
                    seq_write_bytes=int(out_key.nbytes)),
        phase=MATCH,
    )
    return columns


def narrow_sort_merge(
    ctx: GPUContext,
    r: Relation,
    s: Relation,
    unique_build_keys: bool,
    config: JoinConfig,
) -> List[Tuple[str, np.ndarray]]:
    """Two-phase narrow sort-merge join (shared by SMJ-UM and SMJ-OM)."""
    keys, orders, held = {}, {}, []
    with ctx.phase(TRANSFORM):
        for side, rel in (("r", r), ("s", s)):
            payloads = _payloads(rel)
            keys_sorted, orders[side] = sort_layout(rel.key_values)
            argsort_cost_only(
                ctx, rel.num_rows, rel.key_values.dtype.itemsize,
                sum(p.dtype.itemsize for p in payloads), phase=TRANSFORM, label=side,
            )
            keys[side] = ctx.mem.adopt(keys_sorted, f"keys_sorted_{side}")
            held += [ctx.mem.reserve(p.nbytes, f"payload_sorted_{side}") for p in payloads]

    with ctx.phase(MATCH):
        rk, sk = keys["r"], keys["s"]
        lo, hi = match_bounds(
            ctx,
            rk.data,
            sk.data,
            unique_build_keys and not config.double_merge_pass,
            phase=MATCH,
        )
        r_pos, s_pos = expand_bounds(lo, hi)
        columns = _emit_output(
            ctx, r, s, host_take(sk.data, s_pos),
            {"r": (orders["r"], r_pos), "s": (orders["s"], s_pos)},
        )
        ctx.mem.free_all([rk, sk] + held)
    return columns


def narrow_partitioned_hash(
    ctx: GPUContext,
    r: Relation,
    s: Relation,
    unique_build_keys: bool,
    config: JoinConfig,
    bits: int,
    partitioner: str,
) -> List[Tuple[str, np.ndarray]]:
    """Two-phase narrow partitioned hash join.

    ``partitioner`` is ``"radix"`` (PHJ-OM) or ``"bucket"`` (PHJ-UM —
    skips the boundary pass but pays fragmentation and skew contention).
    """
    from .phj import hash_match  # cycle-free

    parts = {}
    held = []
    hashed = config.hashed_partitioning
    with ctx.phase(TRANSFORM):
        for side, rel in (("r", r), ("s", s)):
            payloads = _payloads(rel)
            payload_bytes = sum(int(p.nbytes) for p in payloads)
            if partitioner == "radix":
                part = partition_layout(rel.key_values, bits, hashed)
                charge_radix_partition(
                    ctx, rel.num_rows, int(rel.key_values.nbytes), payload_bytes,
                    bits, phase=TRANSFORM, label=side,
                )
            else:
                part = bucket_chain_layout(
                    rel.key_values, bits, ctx.rng,
                    payload_item_bytes=sum(p.dtype.itemsize for p in payloads),
                    bucket_tuples=config.bucket_tuples, hashed=hashed,
                )
                charge_bucket_chain(ctx, part, payload_bytes, phase=TRANSFORM, label=side)
                if part.fragmentation_bytes > 0:
                    # Nothing reads the slack: the pool hands it out
                    # uninitialised.
                    held.append(
                        ctx.mem.alloc(part.fragmentation_bytes, np.uint8,
                                      f"fragmentation_{side}", zeroed=False)
                    )
            parts[side] = part
            held.append(ctx.mem.adopt(part.keys, f"part_keys_{side}"))
            held += [ctx.mem.reserve(p.nbytes, f"part_payload_{side}") for p in payloads]

    with ctx.phase(MATCH):
        pr, ps = parts["r"], parts["s"]
        key_bytes = pr.keys.dtype.itemsize
        out_key, r_pos, s_pos = hash_match(
            ctx, pr, ps, unique_build_keys, config,
            tuple(key_bytes + sum(p.dtype.itemsize for p in _payloads(rel)) for rel in (r, s)),
            config.bucket_tuples if partitioner == "bucket" else config.tuples_per_partition,
        )
        columns = _emit_output(
            ctx, r, s, out_key, {"r": (pr.order, r_pos), "s": (ps.order, s_pos)}
        )
        ctx.mem.free_all(held)
    return columns
