"""Every wide join materializes exactly as its own hand-written loop did.

The joins hand their index maps and transform permutations to one
materializer, :func:`repro.joins.base.materialize`, which charges
Algorithm 1's transforms as bytes-only reservations and gathers each
output column once from the base relation.  The ``_Frozen*`` classes
below are the implementations that performed every transform and
gather on the host, each with its own materialize loop, kept here so
the shared materializer cannot drift from them: kernel names, every
``KernelStats`` field, phases, seconds and submit order, the trace's
span tree and counters (``partition_passes`` included), peak and
phase-peak bytes, outputs, and out-of-memory failures must all be
identical, for PHJ-OM (GFTR and GFUR), SMJ-UM, SMJ-OM, PHJ-UM and NPJ,
with int32 and int64 keys, plain and under a
:class:`~repro.faults.FaultPlan`.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import DeviceOutOfMemoryError
from repro.faults import FaultPlan
from repro.gpusim import A100, GPUContext, KernelStats
from repro.joins import (
    NonPartitionedHashJoin,
    PartitionedHashJoin,
    PartitionedHashJoinUM,
    SortMergeJoinOM,
    SortMergeJoinUM,
)
from repro.joins.base import (
    MATCH,
    MATERIALIZE,
    TRANSFORM,
    JoinConfig,
    JoinResult,
    output_column_names,
)
from repro.joins.matching import expand_bounds, match_positions
from repro.joins.npj import _charge_table_traffic
from repro.joins.phj import charge_hash_match, charge_load_balancing, derive_partition_bits
from repro.joins.smj import _charge_match_output, _sort_temp_bytes
from repro.obs.session import KERNEL, TraceSession
from repro.primitives.bucket_chain import bucket_chain_partition
from repro.primitives.gather import gather
from repro.primitives.grouping import detect_unique_keys
from repro.primitives.hash_table import build_table, probe_table, table_capacity
from repro.primitives.merge_path import match_bounds
from repro.primitives.radix_partition import partition_codes, plan_passes
from repro.primitives.sort_pairs import argsort_cost_only, sort_pairs
from repro.relational.relation import Relation
from repro.relational.types import id_dtype


def init_tuple_ids(ctx, n, phase, label, dtype=None):
    """``init_tuple_ids`` as it was: physical tuple IDs 0..n-1 built on
    the host, charged as one write pass."""
    ids = np.arange(n, dtype=dtype if dtype is not None else id_dtype(n))
    ctx.submit(
        KernelStats(
            name=f"init_ids:{label}",
            items=n,
            seq_write_bytes=int(ids.nbytes),
        ),
        phase=phase,
    )
    return ids


def _frozen_radix_partition(ctx, keys, payloads, total_bits, phase, hashed, label, like=None):
    """``radix_partition`` as it was, moving data and charging inline.

    ``like`` reuses an earlier result's layout and skips the boundary
    kernel, as Algorithm 1's lazy per-column partitions did.
    """
    pass_plan = plan_passes(total_bits)
    ctx.count("partition_passes", len(pass_plan))
    if like is not None:
        order, keys_out, counts = like.order, like.keys, like.counts
    else:
        codes = partition_codes(keys, total_bits, hashed=hashed)
        order = np.argsort(codes, kind="stable")
        keys_out = keys[order]
        counts = np.bincount(codes, minlength=1 << total_bits).astype(np.int64)
    payloads_out = [p[order] for p in payloads]
    payload_bytes = sum(int(p.nbytes) for p in payloads)
    ctx.submit_many(
        [
            KernelStats(
                name=f"radix_partition:{label}",
                items=int(keys.size),
                seq_read_bytes=2 * int(keys.nbytes) + payload_bytes,
                seq_write_bytes=int(keys.nbytes) + payload_bytes,
                atomic_ops=1 << num_bits,
            )
            for _, num_bits in pass_plan
        ],
        phase=phase,
    )
    if like is None:
        ctx.submit(
            KernelStats(
                name="partition_boundaries",
                items=int(keys.size),
                seq_read_bytes=int(keys.nbytes),
                seq_write_bytes=2 * int(counts.nbytes),
                atomic_ops=int(counts.size),
            ),
            phase=phase,
        )
    return SimpleNamespace(
        keys=keys_out, payloads=payloads_out, counts=counts, order=order,
        num_partitions=int(counts.size),
    )


class _FrozenJoin:
    """``JoinAlgorithm.join`` as it was, for wide inputs: ``_frozen_execute``
    returns the output columns, materialized by the algorithm itself."""

    def join(self, r, s, ctx):
        assert max(r.num_payload_columns, s.num_payload_columns) > 1  # wide
        unique = detect_unique_keys(r.key_values)
        with ctx.trace_span(
            f"join:{self.name}",
            category="algorithm",
            pattern=self.pattern,
            r_rows=r.num_rows,
            s_rows=s.num_rows,
        ):
            output_columns = self._frozen_execute(ctx, r, s, unique)
        output = Relation(output_columns, key="key", name=self.config.output_name)
        ctx.count("join_matches", output.num_rows)
        return JoinResult(
            output=output,
            algorithm=self.name,
            pattern=self.pattern,
            device=ctx.device,
            phase_seconds=dict(ctx.timeline.breakdown()),
            input_bytes=r.total_bytes + s.total_bytes,
            output_bytes=output.total_bytes,
            peak_aux_bytes=ctx.mem.peak_bytes,
            phase_aux_peaks=ctx.mem.phase_peaks,
            matches=output.num_rows,
            r_rows=r.num_rows,
            s_rows=s.num_rows,
            kernel_count=ctx.timeline.kernel_count(),
        )

    def _gfur_materialize(self, ctx, r, s, a_id_r, a_id_s):
        """The four GFUR loops: gather every column through physical IDs."""
        columns = []
        with ctx.phase(MATERIALIZE):
            for side, source, out_name in output_column_names(r, s, self.config.projection):
                if out_name == "key":
                    continue
                rel = r if side == "r" else s
                ids = a_id_r.data if side == "r" else a_id_s.data
                columns.append(
                    (out_name, gather(ctx, rel.column(source), ids, phase=MATERIALIZE, label=out_name))
                )
            ctx.mem.free(a_id_r)
            ctx.mem.free(a_id_s)
        return columns


class _FrozenPartitionedHashJoin(_FrozenJoin, PartitionedHashJoin):
    """PHJ-OM as it was: every (key, column) partitioning performed."""

    def _frozen_partition(self, ctx, rel, payloads, bits, phase, label, like=None):
        temp = ctx.mem.alloc((1 << bits) * 8 * 2, np.uint8, "partition_temp")
        part = _frozen_radix_partition(
            ctx, rel.key_values, payloads, bits, phase,
            self.config.hashed_partitioning, label, like=like,
        )
        ctx.mem.free(temp)
        return part

    def _frozen_execute(self, ctx, r, s, unique_build_keys):
        bits = derive_partition_bits(
            r.num_rows, self.config.tuples_per_partition, self.config.partition_bits
        )
        if self.pattern == "gftr":
            return self._frozen_gftr(ctx, r, s, unique_build_keys, bits)
        return self._frozen_gfur(ctx, r, s, unique_build_keys, bits)

    def _frozen_gftr(self, ctx, r, s, unique_build_keys, bits):
        parts = {}
        first_payload = {}
        with ctx.phase(TRANSFORM):
            for side, rel in (("r", r), ("s", s)):
                names = rel.payload_names
                first = names[0] if names else None
                payloads = [rel.column(first)] if first else []
                part = self._frozen_partition(ctx, rel, payloads, bits, TRANSFORM, side)
                parts[side] = part
                ctx.mem.adopt(part.keys, f"part_keys_{side}")
                if first:
                    first_payload[side] = (first, ctx.mem.adopt(part.payloads[0], f"part_payload1_{side}"))

        with ctx.phase(MATCH):
            pr, ps = parts["r"], parts["s"]
            charge_load_balancing(ctx, ps.num_partitions)
            vid_r, vid_s = match_positions(pr.keys, ps.keys, unique_build_keys)
            out_key = ps.keys[vid_s]
            key_bytes = pr.keys.dtype.itemsize
            charge_hash_match(
                ctx,
                pr.counts,
                ps.counts,
                build_tuple_bytes=key_bytes,
                probe_tuple_bytes=key_bytes,
                matches=int(out_key.size),
                key_bytes=key_bytes,
                tuples_per_partition=self.config.tuples_per_partition,
                load_balanced=self.config.load_balance,
                num_execution_units=ctx.device.num_execution_units,
            )
            a_vid_r = ctx.mem.adopt(vid_r.astype(np.int32, copy=False), "match_vids_r")
            a_vid_s = ctx.mem.adopt(vid_s.astype(np.int32, copy=False), "match_vids_s")
            ctx.mem.free_by_prefix("part_keys_")

        columns = [("key", out_key)]
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
                part = self._frozen_partition(
                    ctx, rel, [rel.column(source)], bits, MATERIALIZE, out_name,
                    like=parts[side],
                )
                a_col = ctx.mem.adopt(part.payloads[0], f"part_payload_{out_name}")
                columns.append(
                    (out_name, gather(ctx, a_col.data, vids, phase=MATERIALIZE, label=out_name))
                )
                ctx.mem.free(a_col)
            for _, handle in first_payload.values():
                if not handle.freed:
                    ctx.mem.free(handle)
            ctx.mem.free(a_vid_r)
            ctx.mem.free(a_vid_s)
        return columns

    def _frozen_gfur(self, ctx, r, s, unique_build_keys, bits):
        parts = {}
        part_ids = {}
        with ctx.phase(TRANSFORM):
            for side, rel in (("r", r), ("s", s)):
                ids = init_tuple_ids(ctx, rel.num_rows, TRANSFORM, side, dtype=rel.key_values.dtype)
                a_ids = ctx.mem.adopt(ids, f"ids_{side}")
                part = self._frozen_partition(ctx, rel, [ids], bits, TRANSFORM, side)
                ctx.mem.free(a_ids)
                parts[side] = part
                ctx.mem.adopt(part.keys, f"part_keys_{side}")
                part_ids[side] = ctx.mem.adopt(part.payloads[0], f"part_ids_{side}")

        with ctx.phase(MATCH):
            pr, ps = parts["r"], parts["s"]
            charge_load_balancing(ctx, ps.num_partitions)
            pos_r, pos_s = match_positions(pr.keys, ps.keys, unique_build_keys)
            out_key = ps.keys[pos_s]
            key_bytes = pr.keys.dtype.itemsize
            id_bytes = part_ids["r"].data.dtype.itemsize
            charge_hash_match(
                ctx,
                pr.counts,
                ps.counts,
                build_tuple_bytes=key_bytes + id_bytes,
                probe_tuple_bytes=key_bytes + id_bytes,
                matches=int(out_key.size),
                key_bytes=key_bytes,
                tuples_per_partition=self.config.tuples_per_partition,
                load_balanced=self.config.load_balance,
                num_execution_units=ctx.device.num_execution_units,
            )
            id_r = gather(ctx, part_ids["r"].data, pos_r, phase=MATCH, label="id_r")
            id_s = gather(ctx, part_ids["s"].data, pos_s, phase=MATCH, label="id_s")
            a_id_r = ctx.mem.adopt(id_r, "match_ids_r")
            a_id_s = ctx.mem.adopt(id_s, "match_ids_s")
            ctx.mem.free_by_prefix("part_keys_", "part_ids_")

        return [("key", out_key)] + self._gfur_materialize(ctx, r, s, a_id_r, a_id_s)


class _FrozenSortMergeJoinUM(_FrozenJoin, SortMergeJoinUM):
    """SMJ-UM as it was."""

    def _frozen_execute(self, ctx, r, s, unique_build_keys):
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
                ctx, rk.data, sk.data,
                unique_build_keys and not self.config.double_merge_pass,
                phase=MATCH,
            )
            r_pos, s_pos = expand_bounds(lo, hi)
            out_key = sk.data[s_pos]
            id_r = gather(ctx, r_ids.data, r_pos, phase=MATCH, label="id_r")
            id_s = gather(ctx, s_ids.data, s_pos, phase=MATCH, label="id_s")
            _charge_match_output(ctx, out_key.size, rk.data.dtype.itemsize)
            a_id_r = ctx.mem.adopt(id_r, "match_ids_r")
            a_id_s = ctx.mem.adopt(id_s, "match_ids_s")
            for arr in (rk, r_ids, sk, s_ids):
                ctx.mem.free(arr)

        return [("key", out_key)] + self._gfur_materialize(ctx, r, s, a_id_r, a_id_s)


class _FrozenSortMergeJoinOM(_FrozenJoin, SortMergeJoinOM):
    """SMJ-OM as it was: the first payload sorted with the keys and each
    later column gathered through the transform's permutation."""

    def _frozen_execute(self, ctx, r, s, unique_build_keys):
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
                ctx, rk.data, sk.data,
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

        columns = [("key", out_key)]
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
            for _, handle in first_payload.values():
                if not handle.freed:
                    ctx.mem.free(handle)
            ctx.mem.free(a_vid_r)
            ctx.mem.free(a_vid_s)
        return columns


class _FrozenPartitionedHashJoinUM(_FrozenJoin, PartitionedHashJoinUM):
    """PHJ-UM as it was."""

    def _frozen_execute(self, ctx, r, s, unique_build_keys):
        bits = derive_partition_bits(
            r.num_rows, self.config.tuples_per_partition, self.config.partition_bits
        )
        parts = {}
        part_ids = {}
        with ctx.phase(TRANSFORM):
            for side, rel in (("r", r), ("s", s)):
                ids = init_tuple_ids(ctx, rel.num_rows, TRANSFORM, side, dtype=rel.key_values.dtype)
                a_ids = ctx.mem.adopt(ids, f"ids_{side}")
                part = bucket_chain_partition(
                    ctx,
                    rel.key_values,
                    [ids],
                    total_bits=bits,
                    bucket_tuples=self.config.bucket_tuples,
                    phase=TRANSFORM,
                    hashed=self.config.hashed_partitioning,
                    label=side,
                )
                ctx.mem.free(a_ids)
                parts[side] = part
                ctx.mem.adopt(part.keys, f"part_keys_{side}")
                part_ids[side] = ctx.mem.adopt(part.payloads[0], f"part_ids_{side}")
                if part.fragmentation_bytes > 0:
                    ctx.mem.alloc(part.fragmentation_bytes, np.uint8, f"fragmentation_{side}")

        with ctx.phase(MATCH):
            pr, ps = parts["r"], parts["s"]
            charge_load_balancing(ctx, ps.num_partitions)
            pos_r, pos_s = match_positions(pr.keys, ps.keys, unique_build_keys)
            out_key = ps.keys[pos_s]
            key_bytes = pr.keys.dtype.itemsize
            id_bytes = part_ids["r"].data.dtype.itemsize
            charge_hash_match(
                ctx,
                pr.counts,
                ps.counts,
                build_tuple_bytes=key_bytes + id_bytes,
                probe_tuple_bytes=key_bytes + id_bytes,
                matches=int(out_key.size),
                key_bytes=key_bytes,
                tuples_per_partition=self.config.bucket_tuples,
                load_balanced=self.config.load_balance,
                num_execution_units=ctx.device.num_execution_units,
            )
            id_r = gather(ctx, part_ids["r"].data, pos_r, phase=MATCH, label="id_r")
            id_s = gather(ctx, part_ids["s"].data, pos_s, phase=MATCH, label="id_s")
            a_id_r = ctx.mem.adopt(id_r, "match_ids_r")
            a_id_s = ctx.mem.adopt(id_s, "match_ids_s")
            ctx.mem.free_by_prefix("part_keys_", "part_ids_", "fragmentation_")

        return [("key", out_key)] + self._gfur_materialize(ctx, r, s, a_id_r, a_id_s)


class _FrozenNonPartitionedHashJoin(_FrozenJoin, NonPartitionedHashJoin):
    """NPJ as it was."""

    def _frozen_execute(self, ctx, r, s, unique_build_keys):
        capacity = table_capacity(r.num_rows)
        with ctx.phase(MATCH):
            table = ctx.mem.alloc(capacity, np.int64, "hash_table")
            build_ids = np.arange(r.num_rows, dtype=np.int64)
            build = build_table(r.key_values, build_ids, capacity)
            _charge_table_traffic(
                ctx, build.touched_slots, capacity, items=r.num_rows,
                extra_seq_read=int(r.key_values.nbytes) + int(build_ids.nbytes // 2),
                extra_seq_write=0, name="npj_build",
            )
            probe = probe_table(build.table_keys, build.table_values, s.key_values)
            id_r = probe.build_values
            id_s = probe.probe_indices
            out_key = s.key_values[id_s]
            _charge_table_traffic(
                ctx, probe.touched_slots, capacity, items=s.num_rows,
                extra_seq_read=int(s.key_values.nbytes),
                extra_seq_write=int(out_key.nbytes + id_r.size * 4 + id_s.size * 4),
                name="npj_probe",
            )
            a_id_r = ctx.mem.adopt(id_r.astype(np.int32, copy=False), "match_ids_r")
            a_id_s = ctx.mem.adopt(id_s.astype(np.int32, copy=False), "match_ids_s")
            ctx.mem.free(table)

        return [("key", out_key)] + self._gfur_materialize(ctx, r, s, a_id_r, a_id_s)


#: id -> (live algorithm, frozen algorithm), each built from a config.
ALGORITHMS = {
    "PHJ-OM": (PartitionedHashJoin, _FrozenPartitionedHashJoin),
    "PHJ-OM/gfur": (
        lambda config: PartitionedHashJoin(config, pattern="gfur"),
        lambda config: _FrozenPartitionedHashJoin(config, pattern="gfur"),
    ),
    "SMJ-UM": (SortMergeJoinUM, _FrozenSortMergeJoinUM),
    "SMJ-OM": (SortMergeJoinOM, _FrozenSortMergeJoinOM),
    "PHJ-UM": (PartitionedHashJoinUM, _FrozenPartitionedHashJoinUM),
    "NPJ": (NonPartitionedHashJoin, _FrozenNonPartitionedHashJoin),
}

#: Payload schemas: mixed item sizes, and S payloads that collide with an
#: R payload (``a`` -> ``a_s``) and with the key (``key`` -> ``key_s``).
R_PAYLOADS = (("a", np.int64), ("b", np.int32), ("c", np.int64))
S_PAYLOADS = (("a", np.int32), ("key", np.int64), ("d", np.int32))

#: case -> (JoinConfig options, how S keys relate to R's).
CASES = {
    # Two radix passes per partitioning, most probes match.
    "mixed": (dict(partition_bits=10, bucket_tuples=64), "match"),
    # Skips both eagerly transformed first payloads (``a`` and ``a_s``).
    "projection": (
        dict(tuples_per_partition=64, bucket_tuples=64, projection=("c", "b", "key_s", "d")),
        "match",
    ),
    "empty": (dict(tuples_per_partition=64, bucket_tuples=64), "miss"),
    # Non-unique build keys: virtual IDs repeat within each side's map.
    "duplicates": (dict(tuples_per_partition=64, bucket_tuples=64), "duplicates"),
}


def _relations(key_dtype, keys, seed):
    rng = np.random.default_rng(seed)
    n_r, n_s = 600, 1400
    if keys == "duplicates":
        r_keys = rng.integers(0, 200, n_r)
    else:
        r_keys = rng.permutation(3 * n_r)[:n_r]  # unique, sparse
    s_keys = rng.choice(r_keys, n_s)
    if keys == "miss":
        s_keys = s_keys + 10 * n_r
    else:
        s_keys[::7] = 10 * n_r  # some probes miss
    r = Relation(
        [("id", r_keys.astype(key_dtype))]
        + [(name, rng.integers(-(1 << 30), 1 << 30, n_r).astype(t)) for name, t in R_PAYLOADS],
        key="id",
        name="R",
    )
    s = Relation(
        [("fk", s_keys.astype(key_dtype))]
        + [(name, rng.integers(-(1 << 30), 1 << 30, n_s).astype(t)) for name, t in S_PAYLOADS],
        key="fk",
        name="S",
    )
    return r, s


def _observe(algorithm, r, s, fault_plan=None):
    """Everything the simulator can see of one join, or its OOM failure."""
    with TraceSession() as session:
        ctx = GPUContext(seed=5, fault_plan=fault_plan)
        try:
            result = algorithm.join(r, s, ctx=ctx)
        except DeviceOutOfMemoryError as error:
            return ("oom", str(error), error.requested, error.in_use, error.top_live)
    events = [(e.name, e.category, e.start_s, e.end_s, e.parent) for e in session.events]
    kernels = [
        (e.name, e.args["phase"], e.record.stats, e.record.seconds, e.record.extra)
        for e in session.events
        if e.category == KERNEL
    ]
    # The buffer pool's hit/miss counters are host-side bookkeeping.
    counters = {
        name: value
        for name, value in session.metrics.as_dict(derived=False).items()
        if not name.startswith("pool.")
    }
    output = [
        (name, col.dtype.str, col.tobytes()) for name, col in result.output.columns().items()
    ]
    return (
        events,
        kernels,
        counters,
        result.peak_aux_bytes,
        result.phase_aux_peaks,
        result.phase_seconds,
        result.kernel_count,
        result.matches,
        output,
    )


def _pair(name, case):
    live, frozen = ALGORITHMS[name]
    options, _ = CASES[case]
    return live(JoinConfig(**options)), frozen(JoinConfig(**options))


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("key_dtype", [np.int32, np.int64], ids=["int32", "int64"])
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_shared_materializer_equals_the_frozen_loops(name, key_dtype, case):
    r, s = _relations(key_dtype, CASES[case][1], seed=len(case))
    live, frozen = _pair(name, case)
    observed = _observe(live, r, s)
    expected = _observe(frozen, r, s)
    assert observed == expected
    kernels = observed[1]
    assert any(k[1] == MATERIALIZE and k[0].startswith("gather:") for k in kernels)
    assert (observed[7] == 0) == (case == "empty")


@pytest.mark.parametrize("capacity", ["unbounded", "fits", "oom"])
@pytest.mark.parametrize("key_dtype", [np.int32, np.int64], ids=["int32", "int64"])
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_shared_materializer_equals_the_frozen_loops_under_faults(name, key_dtype, capacity):
    """Same kernel retries (the injector keys on submit order) and OOMs.

    ``fits`` leaves the device exactly the frozen run's peak, ``oom`` one
    byte less, so any change in reserved bytes shows.
    """
    r, s = _relations(key_dtype, "match", seed=len(name))
    live, frozen = _pair(name, "mixed")
    peak = frozen.join(r, s, ctx=GPUContext(seed=5)).peak_aux_bytes
    frac = {
        "unbounded": None,
        "fits": (peak + 0.5) / A100.global_mem_bytes,
        "oom": (peak - 0.5) / A100.global_mem_bytes,
    }[capacity]
    plan = FaultPlan(seed=1, kernel_fault_rate=0.3, capacity_frac=frac)
    observed = _observe(live, r, s, plan)
    expected = _observe(frozen, r, s, plan)
    assert observed == expected
    assert (observed[0] == "oom") == (capacity == "oom")
    if capacity != "oom":
        assert any(extra for *_, extra in observed[1])  # some kernel retried


@pytest.mark.parametrize("name", ["PHJ-OM", "SMJ-OM"])
def test_lazy_transforms_charge_no_boundaries_and_hold_no_arrays(name):
    """Algorithm 1's lazy transforms reuse the transform phase's layout:
    no boundary pass, and the transformed columns are bytes-only."""
    r, s = _relations(np.int32, "match", seed=3)
    live, _ = _pair(name, "mixed")
    with TraceSession() as session:
        ctx = GPUContext(seed=5)
        live.join(r, s, ctx=ctx)
    lazy = [
        e.name for e in session.events
        if e.category == KERNEL and e.args["phase"] == MATERIALIZE
        and not e.name.startswith("gather:")
    ]
    boundaries = [e.name for e in session.events if e.name == "partition_boundaries"]
    # One lazy transform per payload after each side's first.
    transforms = {"PHJ-OM": "radix_partition:", "SMJ-OM": "sort_pairs:"}[name]
    assert {k.split(":")[1] for k in lazy} == {"b", "c", "key_s", "d"}
    assert all(k.startswith(transforms) for k in lazy)
    assert len(boundaries) == (2 if name == "PHJ-OM" else 0)
    assert ctx.mem.live_count == 0
