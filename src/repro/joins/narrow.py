"""Narrow-join fast paths (Section 2.2).

A "narrow" join has at most one payload column per relation.  The paper
processes it in *two* phases: the payload is transformed together with
the key, and match finding emits the matched payload values directly —
there is no tuple-ID indirection and no materialization phase (Figure 9
shows only transform and match bars).  Consequently SMJ-OM coincides
with SMJ-UM and PHJ-OM with PHJ-UM up to the partitioner used (bucket
chains skip the boundary histogram, which is why the paper sees PHJ-UM
"slightly better ... for smaller input sizes").
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..gpusim.context import GPUContext
from ..gpusim.kernel import KernelStats
from ..primitives.bucket_chain import bucket_chain_partition
from ..primitives.gather import gather, host_take
from ..primitives.merge_path import match_bounds
from ..primitives.radix_partition import radix_partition
from ..primitives.sort_pairs import sort_pairs
from ..relational.relation import Relation
from .base import MATCH, TRANSFORM, JoinConfig, output_column_names
from .matching import expand_bounds, match_positions


def _emit_output(
    ctx: GPUContext,
    r: Relation,
    s: Relation,
    r_keys_t: np.ndarray,
    r_payload_t: Optional[np.ndarray],
    s_keys_t: np.ndarray,
    s_payload_t: Optional[np.ndarray],
    r_pos: np.ndarray,
    s_pos: np.ndarray,
) -> List[Tuple[str, np.ndarray]]:
    """Write key + payload columns straight from the transformed inputs."""
    del r_keys_t  # keys are emitted from the probe side
    out_key = host_take(s_keys_t, s_pos)
    columns: List[Tuple[str, np.ndarray]] = [("key", out_key)]
    written = out_key.nbytes
    payloads = {"r": (r_payload_t, r_pos), "s": (s_payload_t, s_pos)}
    for side, _, out_name in output_column_names(r, s)[1:]:
        payload_t, pos = payloads[side]
        columns.append(
            (out_name, gather(ctx, payload_t, pos, phase=MATCH, label=out_name))
        )
    ctx.submit(
        KernelStats(name="write_matches", items=int(out_key.size),
                    seq_write_bytes=int(written)),
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
    transformed = {}
    with ctx.phase(TRANSFORM):
        for side, rel in (("r", r), ("s", s)):
            names = rel.payload_names
            payloads = [rel.column(names[0])] if names else []
            keys_sorted, payloads_sorted = sort_pairs(
                ctx, rel.key_values, payloads, phase=TRANSFORM, label=side
            )
            handle_k = ctx.mem.adopt(keys_sorted, f"keys_sorted_{side}")
            handle_p = (
                ctx.mem.adopt(payloads_sorted[0], f"payload_sorted_{side}")
                if payloads
                else None
            )
            transformed[side] = (handle_k, handle_p)

    with ctx.phase(MATCH):
        rk, rp = transformed["r"]
        sk, sp = transformed["s"]
        lo, hi = match_bounds(
            ctx,
            rk.data,
            sk.data,
            unique_build_keys and not config.double_merge_pass,
            phase=MATCH,
        )
        r_pos, s_pos = expand_bounds(lo, hi)
        columns = _emit_output(
            ctx, r, s,
            rk.data, rp.data if rp else None,
            sk.data, sp.data if sp else None,
            r_pos, s_pos,
        )
        for handle in (rk, rp, sk, sp):
            if handle is not None:
                ctx.mem.free(handle)
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
    from .phj import charge_hash_match, charge_load_balancing  # cycle-free

    parts = {}
    handles = []
    with ctx.phase(TRANSFORM):
        for side, rel in (("r", r), ("s", s)):
            names = rel.payload_names
            payloads = [rel.column(names[0])] if names else []
            if partitioner == "radix":
                part = radix_partition(
                    ctx, rel.key_values, payloads, bits,
                    phase=TRANSFORM, hashed=config.hashed_partitioning, label=side,
                )
            else:
                part = bucket_chain_partition(
                    ctx, rel.key_values, payloads, bits,
                    bucket_tuples=config.bucket_tuples,
                    phase=TRANSFORM, hashed=config.hashed_partitioning, label=side,
                )
                if part.fragmentation_bytes > 0:
                    # Nothing reads the slack: the pool hands it out
                    # uninitialised.
                    handles.append(
                        ctx.mem.alloc(part.fragmentation_bytes, np.uint8,
                                      f"fragmentation_{side}", zeroed=False)
                    )
            parts[side] = part
            handles.append(ctx.mem.adopt(part.keys, f"part_keys_{side}"))
            if payloads:
                handles.append(ctx.mem.adopt(part.payloads[0], f"part_payload_{side}"))

    with ctx.phase(MATCH):
        pr, ps = parts["r"], parts["s"]
        charge_load_balancing(ctx, ps.num_partitions)
        r_pos, s_pos = match_positions(pr.keys, ps.keys, unique_build_keys)
        key_bytes = pr.keys.dtype.itemsize
        r_payload_bytes = (
            pr.payloads[0].dtype.itemsize if pr.payloads else 0
        )
        s_payload_bytes = (
            ps.payloads[0].dtype.itemsize if ps.payloads else 0
        )
        tuples = (
            config.bucket_tuples if partitioner == "bucket"
            else config.tuples_per_partition
        )
        charge_hash_match(
            ctx,
            pr.counts,
            ps.counts,
            build_tuple_bytes=key_bytes + r_payload_bytes,
            probe_tuple_bytes=key_bytes + s_payload_bytes,
            matches=int(s_pos.size),
            key_bytes=key_bytes,
            tuples_per_partition=tuples,
            load_balanced=config.load_balance,
            num_execution_units=ctx.device.num_execution_units,
        )
        columns = _emit_output(
            ctx, r, s,
            pr.keys, pr.payloads[0] if pr.payloads else None,
            ps.keys, ps.payloads[0] if ps.payloads else None,
            r_pos, s_pos,
        )
        ctx.mem.free_all(handles)
    return columns


def is_narrow(r: Relation, s: Relation) -> bool:
    """True if the paper's two-phase narrow-join path applies."""
    return r.num_payload_columns <= 1 and s.num_payload_columns <= 1
