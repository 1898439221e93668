"""Tiered (CPU+GPU co-executed) join and group-by operators.

The placement-aware pass splits one logical operator into a GPU
sub-operator over resident (hot) segments and a CPU sub-operator over
cold ones, runs the two concurrently (Eiger-style heterogeneous
overlap: the operator's elapsed time is the max of the two tiers plus
merge and staging).  Placement prices the work; it never changes the
values.  The output is computed once, over the base relation's
columns, by the same single-device code ``execute()`` uses:

* joins make one :func:`~repro.joins.matching.match_positions` call
  over the whole probe column and gather the output columns from it;
  the hot and cold tiers are charged for the matches that fall in
  their segments;
* group-bys fold with ``group_identify`` + ``fold_groups`` (the one
  fold of record); the hot and cold tiers are charged for the rows
  and the distinct groups of their segments.  A tier that holds every
  row holds every group, so only a mixed placement counts groups row
  by row.

The output is therefore bit-identical to ``execute()`` for every
placement.  The oracle suite (``tests/oracle/test_tier_oracle.py``)
pins that across hot/cold/mixed placements, eviction mid-query, and
fault-injected capacity pressure.

Keys change only on ``update()``, so the host work that does not depend
on placement is done once per relation version and kept until the
relation is invalidated:

* the segment table (:meth:`SegmentedRelation.table`): each segment's
  row count, and per columns tuple its keys and byte counts, which the
  placement pass, the hot/cold split and the charges iterate;
* each column's group index (:meth:`SegmentedRelation.groups`) and each
  ``(group column, value column, op)`` fold
  (:meth:`SegmentedRelation.fold`);
* each relation pair's join index: the output relation, so a repeat
  join hands out its read-only columns instead of gathering them again.

The simulated clock still charges every kernel on every call.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from ..aggregation.base import AggSpec, value_columns
from ..gpusim.context import GPUContext
from ..gpusim.device import A100, CPU_SERVER, DeviceSpec
from ..gpusim.kernel import KernelStats
from ..gpusim.memory import DeviceMemory
from ..joins.base import JoinConfig, output_column_names
from ..joins.matching import match_positions
from ..obs.session import TraceSession, current_session
from ..query.plan import OperatorRun, plan_relations
from ..relational.relation import Relation
from .cache import SegmentCache
from .costmodel import TierCostModel
from .policy import PlacementPolicy
from .segments import SegmentedRelation, SegmentKey

#: Default rows per column segment (Mordred uses fixed-size segments;
#: at the library's scaled workloads this yields tens of segments per
#: relation, enough for meaningfully mixed placements).
DEFAULT_SEGMENT_ROWS = 4096


class _JoinIndex(NamedTuple):
    """One memoised join of a build and a probe relation version."""

    #: the output, in s-major match order
    output: Relation
    #: the match count of each probe segment
    per_segment: np.ndarray


class TieredRuntime:
    """Segment registry + cache + policy + the tier-split operators.

    One runtime is shared across queries (typically owned by a
    :class:`~repro.serve.server.QueryServer`): the cache's contents and
    the policy's access/popularity history persist, which is what makes
    hot templates cheap.

    Parameters
    ----------
    memory:
        Backing :class:`DeviceMemory` for resident segments.  ``None``
        creates a private one of ``capacity_bytes``; the serving layer
        passes its own so reservations and segments compete.
    capacity_bytes:
        Cache byte budget.  Defaults to ``cache_fraction`` of the
        device's memory.
    """

    def __init__(
        self,
        device: DeviceSpec = A100,
        cpu_device: DeviceSpec = CPU_SERVER,
        segment_rows: int = DEFAULT_SEGMENT_ROWS,
        capacity_bytes: Optional[int] = None,
        cache_fraction: float = 0.5,
        memory: Optional[DeviceMemory] = None,
        policy: Optional[PlacementPolicy] = None,
        min_admit_weight: float = 1.0,
        amortize_admission: bool = False,
    ):
        self.device = device
        self.cpu_device = cpu_device
        self.segment_rows = int(segment_rows)
        if capacity_bytes is None:
            capacity_bytes = int(device.global_mem_bytes * cache_fraction)
        self.capacity_bytes = int(capacity_bytes)
        if memory is None:
            memory = DeviceMemory(self.capacity_bytes)
        self.memory = memory
        self.policy = policy or PlacementPolicy()
        self.cache = SegmentCache(memory, capacity_bytes=self.capacity_bytes)
        self.cost = TierCostModel(device, cpu_device)
        self.min_admit_weight = float(min_admit_weight)
        # ``amortize_admission`` raises the admission bar to the cost
        # model's break-even reuse count: a segment is only staged when
        # its predicted accesses (decayed history x relation popularity)
        # repay the interconnect transfer with GPU-vs-CPU savings.
        # One-off scans then run on the CPU tier instead of paying PCIe
        # for data they will never touch again.
        self.amortize_admission = bool(amortize_admission)
        self._by_id: Dict[int, SegmentedRelation] = {}
        self._names: Dict[str, int] = {}
        self._join_indexes: Dict[Tuple[str, str], _JoinIndex] = {}

    # -- registry ------------------------------------------------------------

    def register(
        self, relation: Relation, name: Optional[str] = None
    ) -> SegmentedRelation:
        """Segment *relation* (idempotent; names are made unique).

        Operators register the relations they read on first use, so a
        runtime manages every base relation it is handed.  ``name``
        overrides the relation's own display name — the serving
        layer passes its catalog name so tier counters, popularity and
        placement spans read in catalog terms.

        Its join and group indexes are not bounded: they live until the
        relation is invalidated, which for a relation an operator
        registered (an ad hoc scan) is never.  A join index holds the
        join's output, as many bytes per output row as an output row
        has, a group index 4 bytes per row plus its distinct keys, and
        each memoised fold 8 bytes per group.
        """
        existing = self._by_id.get(id(relation))
        if existing is not None:
            return existing
        base = name or relation.name or f"relation@{id(relation):x}"
        name = base
        suffix = 1
        while name in self._names:
            name = f"{base}#{suffix}"
            suffix += 1
        segrel = SegmentedRelation(relation, self.segment_rows, name=name)
        self._by_id[id(relation)] = segrel
        self._names[name] = id(relation)
        return segrel

    def invalidate_relation(self, relation_or_name) -> int:
        """Evict and forget a (possibly updated) relation; bytes freed.

        Its segmented view, group indexes and every join index that
        names it go too.
        """
        if isinstance(relation_or_name, str):
            name = relation_or_name
            rel_id = self._names.pop(name, None)
            if rel_id is not None:
                self._by_id.pop(rel_id, None)
        else:
            segrel = self._by_id.pop(id(relation_or_name), None)
            if segrel is None:
                return 0
            name = segrel.name
            self._names.pop(name, None)
        self._join_indexes = {
            pair: index
            for pair, index in self._join_indexes.items()
            if name not in pair
        }
        self.policy.forget(name)
        return self.cache.evict_relation(name)

    def note_plan(self, plan, weight: float = 1.0) -> None:
        """Fold one arrival of *plan* into relation popularity (serve feed)."""
        for relation in plan_relations(plan):
            self.policy.note_popularity(self.register(relation).name, weight)

    # -- pressure ------------------------------------------------------------

    def apply_capacity_pressure(
        self, frac: Optional[float], session: Optional[TraceSession] = None
    ) -> int:
        """Shrink the cache under fault-injected capacity pressure.

        ``frac=None`` lifts the pressure.  Overflowing segments are
        demoted to the CPU tier — queries degrade to more cold work
        instead of failing with OOM.
        """
        cap = None if frac is None else int(self.capacity_bytes * frac)
        freed = self.cache.apply_pressure(cap)
        if freed and session is not None:
            session.count("tier.pressure_demoted_bytes", freed)
            session.count("tier.pressure_demotions")
        return freed

    def stats(self) -> Dict[str, float]:
        """Counter snapshot for reports and benches."""
        cache = self.cache
        return {
            "resident_bytes": float(cache.resident_bytes),
            "resident_segments": float(len(cache.resident_keys())),
            "hit_ratio": cache.hit_ratio,
            "hits": float(cache.hits),
            "misses": float(cache.misses),
            "hit_bytes": float(cache.hit_bytes),
            "miss_bytes": float(cache.miss_bytes),
            "admissions": float(cache.admissions),
            "admitted_bytes": float(cache.admitted_bytes),
            "evictions": float(cache.evictions),
            "demotions": float(cache.demotions),
            "declined": float(cache.declined),
        }

    # -- placement -----------------------------------------------------------

    def _place(
        self,
        wants: Sequence[Tuple[SegmentedRelation, Sequence[str]]],
        session: Optional[TraceSession],
        op: str,
    ) -> Tuple[Dict[str, float], Set[SegmentKey]]:
        """One placement pass for an operator reading *wants*.

        Row-range granular: the columns a range needs are admitted (and
        scored) as a bundle, so placement never strands a range with its
        key resident but a payload cold.  Returns accounting for the
        operator's extras/spans (``_fault_contexts`` charges the admission
        transfer from ``admitted_bytes``) and the keys admitted in this
        pass.

        Entries of *wants* that name one relation (a self-join) are
        merged, their columns united in first-seen order, so each range
        is noted, scored and admitted once.
        """
        policy = self.policy
        cache = self.cache
        policy.begin_pass()
        before_evicted = cache.evictions
        merged: Dict[SegmentedRelation, Dict[str, None]] = {}
        for segrel, columns in wants:
            merged.setdefault(segrel, {}).update(dict.fromkeys(columns))
        candidates = []
        protect: Set[SegmentKey] = set()
        for segrel, columns in merged.items():
            table = segrel.table(columns)
            for index, (keys, column_nbytes, nbytes) in enumerate(
                zip(table.keys, table.column_nbytes, table.nbytes)
            ):
                for key in keys:
                    policy.note_access(key)
                missing = [
                    (key, key_nbytes)
                    for key, key_nbytes in zip(keys, column_nbytes)
                    if not cache.is_resident(key)
                ]
                if not missing:
                    protect.update(keys)  # current op's working set is pinned
                    continue
                score = policy.score(keys[0], max(1, nbytes // len(columns)))
                candidates.append((score, segrel, index, missing, nbytes))
        candidates.sort(key=lambda c: (-c[0], c[1].name, c[2]))
        admitted = 0
        admitted_bytes = 0
        declined = 0
        # Segments admitted during THIS pass: resident for compute, but
        # access-counted as misses (their transfer was paid this query).
        fresh: Set[SegmentKey] = set()
        ranking = None  # ranked on the first eviction of the pass
        for score, segrel, index, missing, nbytes in candidates:
            weight = policy.effective_accesses(missing[0][0]) * policy.popularity(
                segrel.name
            )
            threshold = self.min_admit_weight
            if self.amortize_admission:
                # scale-free: transfer and benefit are both linear in bytes
                threshold = max(threshold, self.cost.accesses_to_amortize(nbytes))
            if weight < threshold:
                declined += 1
                continue
            bundle_bytes = sum(key_nbytes for _, key_nbytes in missing)
            if not cache.can_fit(bundle_bytes):
                cap = cache.effective_capacity_bytes
                headroom = (
                    cap - cache.resident_bytes if cap is not None else bundle_bytes
                )
                if ranking is None:
                    ranking = policy.rank_victims(
                        cache.resident_items(),
                        lambda key: key not in protect and cache.is_resident(key),
                    )
                victims = ranking.choose(bundle_bytes - max(0, headroom), score)
                if victims is None:
                    declined += 1
                    continue
                for victim in victims:
                    policy.note_evicted(victim)
                    cache.evict(victim)
            placed = []
            for key, key_nbytes in missing:
                if cache.admit(key, key_nbytes):
                    policy.note_admitted(key)
                    placed.append(key)
                else:
                    # partial bundles are worthless: roll back and stay cold
                    for done in placed:
                        policy.note_evicted(done)
                        cache.evict(done)
                    placed = []
                    declined += 1
                    break
            if placed:
                protect.update(placed)
                fresh.update(placed)
                admitted += len(placed)
                admitted_bytes += bundle_bytes
        evicted = cache.evictions - before_evicted
        accounting = {
            "admitted": float(admitted),
            "admitted_bytes": float(admitted_bytes),
            "evicted": float(evicted),
            "declined": float(declined),
        }
        if session is not None:
            with session.span(
                f"tier:placement:{op}",
                category="tier",
                tick=policy.tick,
                resident_bytes=cache.resident_bytes,
                **{k: v for k, v in accounting.items()},
            ):
                pass
            if admitted:
                session.count("tier.admissions", admitted)
                session.count("tier.admitted_bytes", admitted_bytes)
            if evicted:
                session.count("tier.evictions", evicted)
            if declined:
                session.count("tier.declined", declined)
            session.metrics.record_max(
                "tier.resident_bytes_peak", cache.resident_bytes
            )
        return accounting, fresh

    def _split(
        self,
        segrel: SegmentedRelation,
        columns: Sequence[str],
        fresh: Set[SegmentKey],
    ) -> Tuple[Set[int], int, int]:
        """Hot segment indices plus (hot_rows, cold_rows) for *columns*.

        A range is hot when all its columns are resident; it is counted
        as a cache *hit* only when none of them was admitted in this
        operator's own placement pass (*fresh*) — first-touch data runs
        on the GPU but its bytes were shipped this query.
        """
        cache = self.cache
        table = segrel.table(columns)
        hot: Set[int] = set()
        hot_rows = cold_rows = 0
        for index, (keys, nbytes, rows) in enumerate(
            zip(table.keys, table.nbytes, segrel.segment_row_counts)
        ):
            if all(cache.is_resident(key) for key in keys):
                hot.add(index)
                hot_rows += rows
                hit = not any(key in fresh for key in keys)
                cache.record_access(hit, nbytes)
            else:
                cold_rows += rows
                cache.record_access(False, nbytes)
        return hot, hot_rows, cold_rows

    def _count_build_residency(
        self,
        segrel: SegmentedRelation,
        columns: Sequence[str],
        fresh: Set[SegmentKey],
    ) -> int:
        """Resident bytes of the build side (access-counted)."""
        cache = self.cache
        resident = 0
        table = segrel.table(columns)
        for keys, column_nbytes in zip(table.keys, table.column_nbytes):
            for key, nbytes in zip(keys, column_nbytes):
                if cache.is_resident(key):
                    resident += nbytes
                    cache.record_access(key not in fresh, nbytes)
                else:
                    cache.record_access(False, nbytes)
        return resident

    def _begin_op(self, session: Optional[TraceSession], fault_plan):
        """The operator's session, with the cache's capacity set."""
        if session is None:
            session = current_session()
        if fault_plan is not None and fault_plan.capacity_frac is not None:
            self.apply_capacity_pressure(fault_plan.capacity_frac, session)
        elif self.cache.pressure_capacity_bytes is not None:
            # capacity pressure is a transient fault: a fault-free run
            # lifts it so the cache can re-warm
            self.apply_capacity_pressure(None, session)
        return session

    def _fault_contexts(
        self,
        session: Optional[TraceSession],
        fault_plan,
        seed: Optional[int],
        placement: Dict[str, float],
    ) -> Tuple[GPUContext, GPUContext]:
        """The GPU and CPU tier contexts, the placement's admissions charged."""
        # Capacity pressure is modeled as cache shrinkage (graceful
        # demotion), not as context-memory enforcement; kernel-fault
        # injection is kept so tier kernels retry like everything else.
        plan = fault_plan.without_capacity() if fault_plan is not None else None
        gpu = GPUContext(
            device=self.device, trace=session, seed=seed,
            fault_plan=plan, fault_site="tier-gpu",
        )
        cpu = GPUContext(
            device=self.cpu_device, trace=session, seed=seed,
            fault_plan=plan, fault_site="tier-cpu",
        )
        if placement["admitted_bytes"]:
            gpu.submit(
                KernelStats(
                    name="tier_admit",
                    launches=max(1, int(placement["admitted"])),
                    host_transfer_bytes=int(placement["admitted_bytes"]),
                ),
                phase="tier-admit",
            )
        return gpu, cpu

    # -- join ---------------------------------------------------------------

    def run_join(
        self,
        left: Relation,
        right: Relation,
        config: Optional[JoinConfig] = None,
        session: Optional[TraceSession] = None,
        fault_plan=None,
        seed: Optional[int] = None,
    ) -> OperatorRun:
        """Tier-split inner join (left = build, right = probe).

        The output relation is in canonical s-major match order —
        identical for every placement, and exactly the order of
        :func:`~repro.relational.validation.reference_join`.
        """
        segR = self.register(left)
        segS = self.register(right)
        config = config or JoinConfig()
        session = self._begin_op(session, fault_plan)
        r_cols = left.column_names
        s_cols = right.column_names
        placement, fresh = self._place(
            [(segR, r_cols), (segS, s_cols)], session, "join"
        )
        before = self.cache.hits, self.cache.misses
        hot, hot_rows, cold_rows = self._split(segS, s_cols, fresh)
        r_resident = self._count_build_residency(segR, r_cols, fresh)
        r_missing = left.total_bytes - r_resident
        s_bytes = segS.table(s_cols).nbytes

        index = self._join_index(segR, segS)
        matches = index.output.num_rows
        hot_matches = int(index.per_segment[sorted(hot)].sum())
        cold_matches = matches - hot_matches
        output = Relation(index.output.columns(), key="key", name=config.output_name)

        out_bytes = output.total_bytes
        hot_out_bytes = int(out_bytes * hot_matches / matches) if matches else 0
        mixed = hot_rows > 0 and cold_rows > 0
        gpu_ctx, cpu_ctx = self._fault_contexts(session, fault_plan, seed, placement)
        r_key_bytes = int(left.key_values.nbytes)
        r_row_bytes = max(1, left.total_bytes // max(1, left.num_rows))
        if hot_rows:
            gpu_ctx.submit(
                KernelStats(
                    name="tier_build",
                    items=left.num_rows,
                    seq_read_bytes=left.total_bytes,
                    seq_write_bytes=2 * r_key_bytes,
                    atomic_ops=left.num_rows,
                    host_transfer_bytes=r_missing,
                ),
                phase="tier-gpu",
            )
            probe_stats = [
                KernelStats(
                    name="tier_probe",
                    items=segS.segment_row_counts[index],
                    seq_read_bytes=s_bytes[index],
                )
                for index in sorted(hot)
            ]
            gpu_ctx.submit_many(probe_stats, phase="tier-gpu")
            gpu_ctx.submit(
                KernelStats(
                    name="tier_materialize",
                    items=hot_matches,
                    seq_read_bytes=hot_matches * r_row_bytes,
                    seq_write_bytes=hot_out_bytes,
                ),
                phase="tier-gpu",
            )
        if cold_rows:
            cpu_ctx.submit(
                KernelStats(
                    name="tier_build",
                    items=left.num_rows,
                    seq_read_bytes=left.total_bytes,
                    seq_write_bytes=2 * r_key_bytes,
                    atomic_ops=left.num_rows,
                ),
                phase="tier-cpu",
            )
            cold_bytes = sum(
                nbytes for index, nbytes in enumerate(s_bytes) if index not in hot
            )
            cpu_ctx.submit(
                KernelStats(
                    name="tier_probe",
                    items=cold_rows,
                    seq_read_bytes=cold_bytes,
                ),
                phase="tier-cpu",
            )
            cpu_ctx.submit(
                KernelStats(
                    name="tier_materialize",
                    items=cold_matches,
                    seq_read_bytes=cold_matches * r_row_bytes,
                    seq_write_bytes=out_bytes - hot_out_bytes,
                ),
                phase="tier-cpu",
            )
        gpu_s = gpu_ctx.elapsed_seconds
        cpu_s = cpu_ctx.elapsed_seconds
        merge_s = 0.0
        if mixed:
            # The smaller (cold/CPU) partial crosses the interconnect and
            # the partitions are stitched at device bandwidth — shipping
            # the hot partition *down* would put the bulk of the output
            # on the slow path.
            merge_s = gpu_ctx.submit(
                KernelStats(
                    name="tier_result_transfer",
                    launches=1,
                    host_transfer_bytes=out_bytes - hot_out_bytes,
                ),
                phase="tier-merge",
            )
            merge_s += gpu_ctx.submit(
                KernelStats(
                    name="tier_merge",
                    items=matches,
                    seq_read_bytes=out_bytes,
                    seq_write_bytes=out_bytes,
                ),
                phase="tier-merge",
            )
        return self._finish_op(
            session, output, matches, len(hot), segS.num_segments,
            hot_rows, cold_rows, gpu_s, cpu_s, merge_s, placement, before,
        )

    def _join_index(
        self, segR: SegmentedRelation, segS: SegmentedRelation
    ) -> _JoinIndex:
        """The memoised join index of build *segR* and probe *segS*.

        It keeps the output relation, not the match positions: a repeat
        join hands out its read-only columns instead of gathering them
        again.
        """
        pair = (segR.name, segS.name)
        index = self._join_indexes.get(pair)
        if index is not None:
            return index
        left, right = segR.relation, segS.relation
        r_idx, s_idx = match_positions(
            left.key_values, right.key_values, left.key_is_unique
        )
        columns = []
        for side, source, out_name in output_column_names(left, right):
            rel, idx = (left, r_idx) if side == "r" else (right, s_idx)
            columns.append((out_name, rel.column(source)[idx]))
        output = Relation(columns, key="key")
        per_segment = np.bincount(
            s_idx // segS.segment_rows, minlength=segS.num_segments
        )
        index = self._join_indexes[pair] = _JoinIndex(output, per_segment)
        return index

    # -- group-by ------------------------------------------------------------

    def run_group_by(
        self,
        child: Relation,
        group_column: str,
        aggregates: List[AggSpec],
        session: Optional[TraceSession] = None,
        fault_plan=None,
        seed: Optional[int] = None,
    ) -> OperatorRun:
        """Tier-split grouped aggregation over a managed base relation.

        Hot row ranges are charged to the GPU, cold ranges to the CPU;
        the values come from the single-device fold over the whole
        relation, so they are bit-identical to ``execute()`` for every
        placement.
        """
        segrel = self.register(child)
        session = self._begin_op(session, fault_plan)
        needed = list(dict.fromkeys([group_column, *value_columns(aggregates)]))
        placement, fresh = self._place([(segrel, needed)], session, "group-by")
        before = self.cache.hits, self.cache.misses
        hot, hot_rows, cold_rows = self._split(segrel, needed, fresh)

        group_keys, inverse = segrel.groups(group_column)
        groups = int(group_keys.size)
        output = OrderedDict(segrel.fold(group_column, tuple(aggregates)))
        hot_idx = sorted(hot)
        cold_idx = [i for i in range(segrel.num_segments) if i not in hot]
        hot_groups, cold_groups = _tier_group_counts(
            inverse, groups, hot_idx, segrel.num_segments, segrel.segment_rows
        )

        mixed = hot_rows > 0 and cold_rows > 0
        gpu_ctx, cpu_ctx = self._fault_contexts(session, fault_plan, seed, placement)
        partial_bytes = 8 * (1 + len(aggregates))
        range_bytes = segrel.table(needed).nbytes
        if hot_rows:
            hot_bytes = sum(range_bytes[i] for i in hot_idx)
            gpu_ctx.submit(
                KernelStats(
                    name="tier_fold",
                    items=hot_rows,
                    seq_read_bytes=hot_bytes,
                    seq_write_bytes=hot_groups * partial_bytes,
                    atomic_ops=hot_rows,
                ),
                phase="tier-gpu",
            )
        if cold_rows:
            cold_bytes = sum(range_bytes[i] for i in cold_idx)
            cpu_ctx.submit(
                KernelStats(
                    name="tier_fold",
                    items=cold_rows,
                    seq_read_bytes=cold_bytes,
                    seq_write_bytes=cold_groups * partial_bytes,
                ),
                phase="tier-cpu",
            )
        gpu_s = gpu_ctx.elapsed_seconds
        cpu_s = cpu_ctx.elapsed_seconds
        merge_s = 0.0
        if mixed:
            merge_s = gpu_ctx.submit(
                KernelStats(
                    name="tier_result_transfer",
                    launches=1,
                    host_transfer_bytes=cold_groups * partial_bytes,
                ),
                phase="tier-merge",
            )
            merge_s += gpu_ctx.submit(
                KernelStats(
                    name="tier_merge",
                    items=groups,
                    seq_read_bytes=2 * groups * partial_bytes,
                    seq_write_bytes=groups * partial_bytes,
                ),
                phase="tier-merge",
            )
        return self._finish_op(
            session, output, groups, len(hot), segrel.num_segments,
            hot_rows, cold_rows, gpu_s, cpu_s, merge_s, placement, before,
        )

    def _finish_op(
        self, session, output, rows, hot, segments,
        hot_rows, cold_rows, gpu_s, cpu_s, merge_s, placement, before,
    ) -> OperatorRun:
        """The tiers overlap: elapsed is the slower tier plus the merge.

        *before* is the cache's (hits, misses) before the operator's
        range accesses were recorded.
        """
        extras = {
            "tier_gpu_s": gpu_s,
            "tier_cpu_s": cpu_s,
            "tier_merge_s": merge_s,
            "tier_hot_rows": float(hot_rows),
            "tier_cold_rows": float(cold_rows),
            "tier_admitted_bytes": float(placement["admitted_bytes"]),
            "tier_hit_ratio": self.cache.hit_ratio,
        }
        if session is not None:
            session.count("tier.ops")
            if hot_rows:
                session.count("tier.gpu_rows", hot_rows)
            if cold_rows:
                session.count("tier.cpu_rows", cold_rows)
            session.count("tier.hits", self.cache.hits - before[0])
            session.count("tier.misses", self.cache.misses - before[1])
            ratio_pct = round(self.cache.hit_ratio * 100.0, 3)
            session.metrics.record_max("tier.hit_ratio_pct_peak", ratio_pct)
        return OperatorRun(
            output=output,
            label=f"TIER hot:{hot}/cold:{segments - hot}",
            seconds=max(gpu_s, cpu_s) + merge_s,
            rows=rows,
            algorithm="TIER",
            extras=extras,
            span_args={"hot_segments": hot, "cold_segments": segments - hot},
        )

    def fork_cold(self) -> "TieredRuntime":
        """A placement-independence probe: same segmentation, empty cache.

        The serving layer's cache-insert verifier re-executes a query on
        a cold fork; tiered outputs are placement-independent, so any
        mismatch means corruption, not ordering.
        """
        return TieredRuntime(
            device=self.device,
            cpu_device=self.cpu_device,
            segment_rows=self.segment_rows,
            capacity_bytes=self.capacity_bytes,
            min_admit_weight=self.min_admit_weight,
        )


# -- pure helpers ------------------------------------------------------------


def _tier_group_counts(
    inverse: np.ndarray,
    groups: int,
    hot_idx: Sequence[int],
    num_segments: int,
    segment_rows: int,
) -> Tuple[int, int]:
    """Distinct groups among the hot rows and among the cold rows.

    Each tier writes one partial per distinct group among its rows.  A
    tier that holds every row holds all *groups*, so only a mixed
    placement counts them row by row.  Counts are ``np.int64``, as
    ``np.count_nonzero`` returns them, so every charge keeps its type.
    """
    if not hot_idx:
        return 0, np.int64(groups)
    if len(hot_idx) == num_segments:
        return np.int64(groups), 0
    segment_is_hot = np.zeros(num_segments, dtype=bool)
    segment_is_hot[hot_idx] = True
    row_is_hot = np.repeat(segment_is_hot, segment_rows)[: inverse.size]
    return (
        np.count_nonzero(np.bincount(inverse[row_is_hot])),
        np.count_nonzero(np.bincount(inverse[~row_is_hot])),
    )
