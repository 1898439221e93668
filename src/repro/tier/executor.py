"""Tiered (CPU+GPU co-executed) join and group-by operators.

The placement-aware pass splits one logical operator into a GPU
sub-operator over resident (hot) segments and a CPU sub-operator over
cold ones, runs the two concurrently (Eiger-style heterogeneous
overlap: the operator's elapsed time is the max of the two tiers plus
merge and staging), and merges the partial results **bit-identically**
to the single-device ``execute()`` path:

* joins compute matches per probe segment with the canonical
  searchsorted construction of
  :func:`~repro.joins.matching.match_positions`; concatenating the
  per-segment pairs in segment order *is* the global s-major match
  order of :func:`~repro.relational.validation.join_match_indices`,
  independent of which segments happen to be resident;
* group-bys fold exact per-tier partial aggregates (int64 sums/counts,
  elementwise min/max merge, mean recomputed from merged sums and
  counts) keyed by group key — identical to the monolithic
  ``segmented_aggregate`` in the integer-exact regime the library
  already assumes.

The oracle suite (``tests/oracle/test_tier_oracle.py``) pins both
properties across hot/cold/mixed placements, eviction mid-query, and
fault-injected capacity pressure.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..aggregation.base import AggSpec
from ..gpusim.context import GPUContext
from ..gpusim.device import A100, CPU_SERVER, DeviceSpec
from ..gpusim.kernel import KernelStats
from ..gpusim.memory import BufferPool, DeviceMemory
from ..joins.base import JoinConfig, detect_unique_keys
from ..joins.matching import expand_bounds
from ..obs.session import TraceSession, current_session
from ..primitives.grouping import distinct_sorted, group_identify, stable_key_order
from ..query.plan import OperatorRun
from ..relational.relation import Relation
from .cache import SegmentCache
from .costmodel import TierCostModel
from .policy import PlacementPolicy
from .segments import SegmentedRelation, SegmentKey

#: Default rows per column segment (Mordred uses fixed-size segments;
#: at the library's scaled workloads this yields tens of segments per
#: relation, enough for meaningfully mixed placements).
DEFAULT_SEGMENT_ROWS = 4096


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
        auto_register: bool = True,
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
            # Segment buffers come in one shape per (relation, column),
            # so eviction/re-admission churn recycles well; the pool
            # also mirrors pool.* metrics once a session is wired in.
            memory = DeviceMemory(self.capacity_bytes, pool=BufferPool())
        self.memory = memory
        self.policy = policy or PlacementPolicy()
        self.cache = SegmentCache(memory, capacity_bytes=self.capacity_bytes)
        self.cost = TierCostModel(device, cpu_device)
        self.auto_register = auto_register
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

    # -- registry ------------------------------------------------------------

    def register(
        self, relation: Relation, name: Optional[str] = None
    ) -> SegmentedRelation:
        """Segment *relation* (idempotent; names are made unique).

        ``name`` overrides the relation's own display name — the serving
        layer passes its catalog name so tier counters, popularity and
        placement spans read in catalog terms.
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

    def segmented(self, relation: Relation) -> Optional[SegmentedRelation]:
        segrel = self._by_id.get(id(relation))
        if segrel is None and self.auto_register:
            segrel = self.register(relation)
        return segrel

    def invalidate_relation(self, relation_or_name) -> int:
        """Evict and forget a (possibly updated) relation; bytes freed."""
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
        self.policy.forget(name)
        return self.cache.evict_relation(name)

    def note_plan(self, plan, weight: float = 1.0) -> None:
        """Fold one arrival of *plan* into relation popularity (serve feed)."""
        for relation in _scan_relations(plan):
            segrel = self.segmented(relation)
            if segrel is not None:
                self.policy.note_popularity(segrel.name, weight)

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
    ) -> Dict[str, float]:
        """One placement pass for an operator reading *wants*.

        Row-range granular: the columns a range needs are admitted (and
        scored) as a bundle, so placement never strands a range with its
        key resident but a payload cold.  Returns accounting for the
        operator's extras/spans; admission transfer is charged by the
        caller from ``admitted_bytes``.
        """
        policy = self.policy
        cache = self.cache
        policy.begin_pass()
        before_evicted = cache.evictions
        candidates = []
        protect: Set[SegmentKey] = set()
        for segrel, columns in wants:
            for index in range(segrel.num_segments):
                keys = segrel.keys_for(columns, index)
                nbytes = segrel.range_nbytes(columns, index)
                for key in keys:
                    policy.note_access(key)
                missing = [
                    (key, column)
                    for key, column in zip(keys, columns)
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
            bundle_bytes = sum(
                segrel.segment_nbytes(column, index) for _, column in missing
            )
            if not cache.can_fit(bundle_bytes):
                cap = cache.effective_capacity_bytes
                headroom = (
                    cap - cache.resident_bytes if cap is not None else bundle_bytes
                )
                victims = policy.choose_victims(
                    bundle_bytes - max(0, headroom),
                    score,
                    cache.resident_items(),
                    protect=protect,
                )
                if victims is None:
                    declined += 1
                    continue
                for victim in victims:
                    policy.note_evicted(victim)
                    cache.evict(victim)
            placed = []
            for key, column in missing:
                if cache.admit(key, segrel.column_slice(column, index)):
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
                admitted_bytes += sum(cache._resident[key].nbytes for key in placed)
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
        hot: Set[int] = set()
        hot_rows = cold_rows = 0
        for index in range(segrel.num_segments):
            start, stop = segrel.row_range(index)
            nbytes = segrel.range_nbytes(columns, index)
            keys = segrel.keys_for(columns, index)
            if all(self.cache.is_resident(key) for key in keys):
                hot.add(index)
                hot_rows += stop - start
                hit = not any(key in fresh for key in keys)
                self.cache.record_access(hit, nbytes)
            else:
                cold_rows += stop - start
                self.cache.record_access(False, nbytes)
        return hot, hot_rows, cold_rows

    def _count_build_residency(
        self,
        segrel: SegmentedRelation,
        columns: Sequence[str],
        fresh: Set[SegmentKey],
    ) -> int:
        """Resident bytes of the build side (access-counted)."""
        resident = 0
        for index in range(segrel.num_segments):
            for column in columns:
                key = segrel.segment_key(column, index)
                nbytes = segrel.segment_nbytes(column, index)
                if self.cache.is_resident(key):
                    resident += nbytes
                    self.cache.record_access(key not in fresh, nbytes)
                else:
                    self.cache.record_access(False, nbytes)
        return resident

    def _segment_array(
        self, segrel: SegmentedRelation, column: str, index: int, hot: bool
    ) -> np.ndarray:
        """One segment's data — from the device cache when resident."""
        if hot:
            data = self.cache.get(segrel.segment_key(column, index))
            if data is not None:
                return data
        return segrel.column_slice(column, index)

    def _wire_pool_sink(self, session: Optional[TraceSession]) -> None:
        # The cache's private DeviceMemory predates any session, so its
        # pool sink is wired per operator call — before the placement
        # pass, so first-call admissions show up as pool.* metrics
        # alongside the tier.* counters.
        if session is not None and self.cache.memory.pool is not None:
            self.cache.memory.pool.sink = session

    def _fault_contexts(
        self,
        session: Optional[TraceSession],
        fault_plan,
        seed: Optional[int],
    ) -> Tuple[GPUContext, GPUContext]:
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
    ) -> Optional[OperatorRun]:
        """Tier-split inner join (left = build, right = probe).

        Returns ``None`` when either side is not under tier management
        (the executor falls back to the single-device path).  The output
        relation is in canonical s-major match order — identical for
        every placement, and exactly the order of
        :func:`~repro.relational.validation.reference_join`.
        """
        segR = self.segmented(left)
        segS = self.segmented(right)
        if segR is None or segS is None:
            return None
        config = config or JoinConfig()
        if session is None:
            session = current_session()
        self._wire_pool_sink(session)
        if fault_plan is not None and fault_plan.capacity_frac is not None:
            self.apply_capacity_pressure(fault_plan.capacity_frac, session)
        elif self.cache.pressure_capacity_bytes is not None:
            # capacity pressure is a transient fault: a fault-free run
            # lifts it so the cache can re-warm
            self.apply_capacity_pressure(None, session)
        r_cols = left.column_names
        s_cols = right.column_names
        placement, fresh = self._place(
            [(segR, r_cols), (segS, s_cols)], session, "join"
        )
        hot, hot_rows, cold_rows = self._split(segS, s_cols, fresh)
        r_resident = self._count_build_residency(segR, r_cols, fresh)
        r_missing = left.total_bytes - r_resident

        unique = config.unique_build_keys
        if unique is None:
            unique = detect_unique_keys(left.key_values)
        r_keys = left.key_values
        # Hoisted build-side sort; per segment this is exactly
        # joins.matching.match_positions, so concatenating per-segment
        # pairs in segment order reproduces the global s-major match
        # order bit-for-bit regardless of placement.
        order = stable_key_order(r_keys)
        sorted_keys = r_keys[order]
        parts_r: List[np.ndarray] = []
        parts_s: List[np.ndarray] = []
        hot_matches = cold_matches = 0
        for index in range(segS.num_segments):
            start, _ = segS.row_range(index)
            seg_keys = self._segment_array(segS, right.key, index, index in hot)
            if sorted_keys.size == 0:
                continue
            lo = np.searchsorted(sorted_keys, seg_keys, side="left")
            if unique:
                clipped = np.minimum(lo, sorted_keys.size - 1)
                hi = lo + (sorted_keys[clipped] == seg_keys).astype(lo.dtype)
            else:
                hi = np.searchsorted(sorted_keys, seg_keys, side="right")
            sorted_pos, s_pos = expand_bounds(lo, hi)
            if index in hot:
                hot_matches += sorted_pos.size
            else:
                cold_matches += sorted_pos.size
            parts_r.append(order[sorted_pos])
            parts_s.append(s_pos + start)
        empty = np.empty(0, dtype=np.int64)
        r_idx = np.concatenate(parts_r) if parts_r else empty
        s_idx = np.concatenate(parts_s) if parts_s else empty
        output = _materialize_join(left, right, r_idx, s_idx, config.output_name)

        matches = int(r_idx.size)
        out_bytes = output.total_bytes
        hot_out_bytes = int(out_bytes * hot_matches / matches) if matches else 0
        mixed = hot_rows > 0 and cold_rows > 0
        gpu_ctx, cpu_ctx = self._fault_contexts(session, fault_plan, seed)
        admitted_bytes = int(placement["admitted_bytes"])
        if admitted_bytes:
            gpu_ctx.submit(
                KernelStats(
                    name="tier_admit",
                    launches=max(1, int(placement["admitted"])),
                    host_transfer_bytes=admitted_bytes,
                ),
                phase="tier-admit",
            )
        r_key_bytes = int(r_keys.nbytes)
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
            probe_stats = []
            for index in sorted(hot):
                start, stop = segS.row_range(index)
                probe_stats.append(
                    KernelStats(
                        name="tier_probe",
                        items=stop - start,
                        seq_read_bytes=segS.range_nbytes(s_cols, index),
                    )
                )
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
                segS.range_nbytes(s_cols, index)
                for index in range(segS.num_segments)
                if index not in hot
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
        seconds = max(gpu_s, cpu_s) + merge_s
        extras = {
            "tier_gpu_s": gpu_s,
            "tier_cpu_s": cpu_s,
            "tier_merge_s": merge_s,
            "tier_hot_rows": float(hot_rows),
            "tier_cold_rows": float(cold_rows),
            "tier_admitted_bytes": float(admitted_bytes),
            "tier_hit_ratio": self.cache.hit_ratio,
        }
        self._note_op(session, hot_rows, cold_rows)
        return _tier_run(output, seconds, matches, len(hot), segS.num_segments, extras)

    # -- group-by ------------------------------------------------------------

    def run_group_by(
        self,
        child: Relation,
        group_column: str,
        aggregates: List[AggSpec],
        session: Optional[TraceSession] = None,
        fault_plan=None,
        seed: Optional[int] = None,
    ) -> Optional[OperatorRun]:
        """Tier-split grouped aggregation over a managed base relation.

        Hot row ranges fold on the GPU, cold ranges on the CPU; the
        exact partial aggregates merge by group key into output
        bit-identical to the monolithic path for every placement.
        """
        segrel = self.segmented(child)
        if segrel is None:
            return None
        if session is None:
            session = current_session()
        self._wire_pool_sink(session)
        if fault_plan is not None and fault_plan.capacity_frac is not None:
            self.apply_capacity_pressure(fault_plan.capacity_frac, session)
        elif self.cache.pressure_capacity_bytes is not None:
            # capacity pressure is a transient fault: a fault-free run
            # lifts it so the cache can re-warm
            self.apply_capacity_pressure(None, session)
        needed: List[str] = [group_column]
        for spec in aggregates:
            if spec.op != "count" and spec.column not in needed:
                needed.append(spec.column)
        placement, fresh = self._place([(segrel, needed)], session, "group-by")
        hot, hot_rows, cold_rows = self._split(segrel, needed, fresh)

        def tier_arrays(indices: Sequence[int], is_hot: bool):
            keys = [
                self._segment_array(segrel, group_column, i, is_hot)
                for i in indices
            ]
            values = {
                column: [
                    self._segment_array(segrel, column, i, is_hot)
                    for i in indices
                ]
                for column in needed
                if column != group_column
            }
            key_arr = (
                np.concatenate(keys)
                if keys
                else child.column(group_column)[:0]
            )
            value_arrs = {
                column: (
                    np.concatenate(parts) if parts else child.column(column)[:0]
                )
                for column, parts in values.items()
            }
            return key_arr, value_arrs

        hot_idx = sorted(hot)
        cold_idx = [i for i in range(segrel.num_segments) if i not in hot]
        hot_partial = cold_partial = None
        if hot_rows:
            hot_partial = _partial_aggregate(*tier_arrays(hot_idx, True), aggregates)
        if cold_rows:
            cold_partial = _partial_aggregate(*tier_arrays(cold_idx, False), aggregates)
        merged = _merge_partials(hot_partial, cold_partial, aggregates)
        output = _finalize_partial(merged, aggregates)
        groups = int(output["group_key"].size)

        mixed = hot_rows > 0 and cold_rows > 0
        gpu_ctx, cpu_ctx = self._fault_contexts(session, fault_plan, seed)
        admitted_bytes = int(placement["admitted_bytes"])
        if admitted_bytes:
            gpu_ctx.submit(
                KernelStats(
                    name="tier_admit",
                    launches=max(1, int(placement["admitted"])),
                    host_transfer_bytes=admitted_bytes,
                ),
                phase="tier-admit",
            )
        partial_bytes = 8 * (1 + len(aggregates))
        if hot_rows:
            hot_bytes = sum(segS_bytes for segS_bytes in (
                segrel.range_nbytes(needed, i) for i in hot_idx
            ))
            hot_groups = int(hot_partial["keys"].size)
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
            cold_bytes = sum(segrel.range_nbytes(needed, i) for i in cold_idx)
            cold_groups = int(cold_partial["keys"].size)
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
            cold_groups = int(cold_partial["keys"].size)
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
        seconds = max(gpu_s, cpu_s) + merge_s
        extras = {
            "tier_gpu_s": gpu_s,
            "tier_cpu_s": cpu_s,
            "tier_merge_s": merge_s,
            "tier_hot_rows": float(hot_rows),
            "tier_cold_rows": float(cold_rows),
            "tier_admitted_bytes": float(admitted_bytes),
            "tier_hit_ratio": self.cache.hit_ratio,
        }
        self._note_op(session, hot_rows, cold_rows)
        return _tier_run(output, seconds, groups, len(hot), segrel.num_segments, extras)

    def _note_op(
        self, session: Optional[TraceSession], hot_rows: int, cold_rows: int
    ) -> None:
        if session is None:
            return
        session.count("tier.ops")
        if hot_rows:
            session.count("tier.gpu_rows", hot_rows)
        if cold_rows:
            session.count("tier.cpu_rows", cold_rows)
        session.count("tier.hits", 0)  # ensure the counter exists in reports
        ratio_pct = round(self.cache.hit_ratio * 100.0, 3)
        session.metrics.record_max("tier.hit_ratio_pct_peak", ratio_pct)

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
            auto_register=True,
            min_admit_weight=self.min_admit_weight,
        )


# -- pure helpers ------------------------------------------------------------


def _tier_run(output, seconds, rows, hot, segments, extras) -> OperatorRun:
    return OperatorRun(
        output=output,
        label=f"TIER hot:{hot}/cold:{segments - hot}",
        seconds=seconds,
        rows=rows,
        algorithm="TIER",
        extras=extras,
        span_args={"hot_segments": hot, "cold_segments": segments - hot},
    )


def _scan_relations(plan) -> List[Relation]:
    from ..query.plan import Aggregate, Join, Project, Scan

    found: List[Relation] = []

    def walk(node):
        if isinstance(node, Scan):
            found.append(node.relation)
        elif isinstance(node, Project):
            walk(node.child)
        elif isinstance(node, Join):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Aggregate):
            walk(node.child)

    walk(plan)
    return found


def _materialize_join(
    left: Relation,
    right: Relation,
    r_idx: np.ndarray,
    s_idx: np.ndarray,
    output_name: str,
) -> Relation:
    """Reference-schema join output: key, R payloads, S payloads (_s)."""
    columns = [("key", left.key_values[r_idx])]
    for name, array in left.payload_columns().items():
        columns.append((name, array[r_idx]))
    taken = {name for name, _ in columns}
    for name, array in right.payload_columns().items():
        out_name = name if name not in taken else f"{name}_s"
        columns.append((out_name, array[s_idx]))
        taken.add(out_name)
    return Relation(columns, key="key", name=output_name)


def _partial_aggregate(
    keys: np.ndarray,
    values: Dict[str, np.ndarray],
    aggregates: List[AggSpec],
) -> Dict[str, np.ndarray]:
    """Exact partial aggregates of one tier's rows, keyed by group key.

    Sums ride the same float64-bincount path as ``segmented_aggregate``
    (exact for the integer-valued columns the library supports, so the
    int64 cast is lossless) and are merged as int64 — which is why the
    merged result is bit-identical to the monolithic fold.
    """
    group_keys, inverse = group_identify(keys)
    n = int(group_keys.size)
    partial: Dict[str, np.ndarray] = {
        "keys": group_keys,
        "counts": np.bincount(inverse, minlength=n).astype(np.int64),
    }
    for spec in aggregates:
        if spec.op == "count":
            continue
        data = values[spec.column]
        if spec.op in ("sum", "mean"):
            name = f"sum:{spec.column}"
            if name not in partial:
                partial[name] = np.bincount(
                    inverse, weights=data.astype(np.float64), minlength=n
                ).astype(np.int64)
        elif spec.op in ("min", "max"):
            reducer = np.minimum if spec.op == "min" else np.maximum
            fill = (
                np.iinfo(np.int64).max
                if spec.op == "min"
                else np.iinfo(np.int64).min
            )
            out = np.full(n, fill, dtype=np.int64)
            reducer.at(out, inverse, data.astype(np.int64))
            partial[f"{spec.op}:{spec.column}"] = out
    return partial


def _merge_partials(
    a: Optional[Dict[str, np.ndarray]],
    b: Optional[Dict[str, np.ndarray]],
    aggregates: List[AggSpec],
) -> Dict[str, np.ndarray]:
    """Merge two per-tier partials by group key (either may be None)."""
    if a is None and b is None:
        raise ValueError("both tiers empty: nothing to aggregate")
    if a is None:
        return b  # type: ignore[return-value]
    if b is None:
        return a
    merged_keys = distinct_sorted(np.concatenate([a["keys"], b["keys"]]))
    pos_a = np.searchsorted(merged_keys, a["keys"])
    pos_b = np.searchsorted(merged_keys, b["keys"])
    n = int(merged_keys.size)
    merged: Dict[str, np.ndarray] = {"keys": merged_keys}

    def additive(name: str) -> np.ndarray:
        out = np.zeros(n, dtype=np.int64)
        np.add.at(out, pos_a, a[name])
        np.add.at(out, pos_b, b[name])
        return out

    merged["counts"] = additive("counts")
    for spec in aggregates:
        if spec.op == "count":
            continue
        if spec.op in ("sum", "mean"):
            name = f"sum:{spec.column}"
            if name not in merged:
                merged[name] = additive(name)
        elif spec.op in ("min", "max"):
            name = f"{spec.op}:{spec.column}"
            fill = (
                np.iinfo(np.int64).max
                if spec.op == "min"
                else np.iinfo(np.int64).min
            )
            side_a = np.full(n, fill, dtype=np.int64)
            side_a[pos_a] = a[name]
            side_b = np.full(n, fill, dtype=np.int64)
            side_b[pos_b] = b[name]
            reducer = np.minimum if spec.op == "min" else np.maximum
            merged[name] = reducer(side_a, side_b)
    return merged


def _finalize_partial(
    partial: Dict[str, np.ndarray], aggregates: List[AggSpec]
) -> "OrderedDict[str, np.ndarray]":
    """Partial -> the executor's output schema (same dtypes as plain)."""
    out: "OrderedDict[str, np.ndarray]" = OrderedDict()
    out["group_key"] = partial["keys"]
    counts = partial["counts"]
    for spec in aggregates:
        if spec.op == "count":
            out[spec.output_name] = counts
        elif spec.op == "sum":
            out[spec.output_name] = partial[f"sum:{spec.column}"]
        elif spec.op == "mean":
            out[spec.output_name] = (
                partial[f"sum:{spec.column}"] / np.maximum(counts, 1)
            )
        else:
            out[spec.output_name] = partial[f"{spec.op}:{spec.column}"]
    return out
