"""Shared machinery for the join implementations.

The paper structures every join into three phases (Section 2.2):

``transform``
    Sort or partition the inputs (optionally with payload columns —
    GFTR — or only with generated tuple identifiers — GFUR).
``match``
    Find matching tuples, producing the output keys plus per-side match
    identifier arrays (physical IDs under GFUR, virtual IDs under GFTR).
``materialize``
    Gather the payload columns of matching tuples into the output.
    Every wide join shares one materializer, :func:`materialize`.

A :class:`JoinResult` carries the real materialized output relation plus
the simulated phase times, traffic profile and memory peaks, in every
execution mode (plain, sharded, staged out-of-core, fault-recovered).

Memory accounting convention: the tracking allocator only holds
*auxiliary* arrays (tuple IDs, transformed columns, match ID arrays,
sort/partition temporaries).  Input and output relations are assumed
resident — exactly the assumption of Section 4.4 — and are reported
separately, so ``peak_total_bytes = input + output + peak_aux``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import JoinConfigError
from ..gpusim.context import GPUContext
from ..gpusim.device import A100, DeviceSpec
from ..gpusim.kernel import KernelStats
from ..gpusim.memory import DeviceArray, MemoryReservation
from ..relational.relation import Relation
from ..primitives.gather import gather_stats_only, host_take

if TYPE_CHECKING:
    from ..cluster.context import ClusterContext
    from ..faults.recovery import Recovery

#: Canonical phase names (order matters for reports).
TRANSFORM, MATCH, MATERIALIZE = "transform", "match", "materialize"


@dataclass
class JoinConfig:
    """Options shared by all join algorithms.

    Attributes
    ----------
    tuples_per_partition:
        Target co-partition size for partitioned joins (sized so a
        partition's hash table fits in shared memory).
    partition_bits:
        Force the radix-partition fan-out; ``None`` derives it from the
        build-side size and ``tuples_per_partition``.
    hashed_partitioning:
        Partition on mixed-hash bits instead of raw key radix bits (for
        keys that are not uniform in their low bits).
    double_merge_pass:
        Run Merge Path twice (lower and upper bounds) even for unique
        build keys — the unoptimized behaviour of prior work (ablation).
    """

    tuples_per_partition: int = 4096
    partition_bits: Optional[int] = None
    hashed_partitioning: bool = False
    double_merge_pass: bool = False
    bucket_tuples: int = 4096
    #: Decompose oversized probe partitions before the hash match
    #: (Section 3.2's load-balancing step).  Disable for ablation abl04.
    load_balance: bool = True
    #: Projection pushdown: only materialize these payload columns (by
    #: their *output* names; the key column is always produced).  ``None``
    #: materializes everything.
    projection: Optional[Tuple[str, ...]] = None
    output_name: str = "T"

    def validate(self) -> None:
        if self.tuples_per_partition <= 0:
            raise JoinConfigError("tuples_per_partition must be positive")
        if self.partition_bits is not None and not 1 <= self.partition_bits <= 24:
            raise JoinConfigError("partition_bits must be in [1, 24]")
        if self.bucket_tuples <= 0:
            raise JoinConfigError("bucket_tuples must be positive")


@dataclass
class JoinResult:
    """Outcome of one simulated join execution, in every mode.

    ``phase_seconds`` is the mode's breakdown: the algorithm's phases;
    a sharded join's cluster step groups; a staged join's
    ``host-partition``/``transfer``/``device``; plus ``oom-wasted`` when
    a fault-plan run degraded.  The optional detail says which mode ran.
    """

    output: Relation
    algorithm: str
    pattern: str  # "gfur" or "gftr"
    device: DeviceSpec
    phase_seconds: Dict[str, float]
    input_bytes: int
    output_bytes: int
    peak_aux_bytes: int
    phase_aux_peaks: Dict[str, int]
    matches: int
    r_rows: int
    s_rows: int
    kernel_count: int
    #: The cluster a sharded join ran on; its clock is the time of record.
    cluster: Optional["ClusterContext"] = None
    #: Co-chunk count of a join run through the out-of-core stager.
    num_chunks: Optional[int] = None
    #: The recovery decisions of a join run under a fault plan.
    recovery: Optional["Recovery"] = None

    @classmethod
    def combine(
        cls, parts: List["JoinResult"], output: Relation, r: Relation, s: Relation,
        **fields,
    ) -> "JoinResult":
        """One result for a join run as several inner joins (shards or
        chunks): memory peaks are the largest part's, kernels the sum;
        *fields* gives the rest (algorithm, pattern, device, phases and
        the mode's detail)."""
        peaks: Dict[str, int] = {}
        for part in parts:
            for phase, nbytes in part.phase_aux_peaks.items():
                peaks[phase] = max(peaks.get(phase, 0), nbytes)
        return cls(
            output=output,
            input_bytes=r.total_bytes + s.total_bytes,
            output_bytes=output.total_bytes,
            peak_aux_bytes=max((part.peak_aux_bytes for part in parts), default=0),
            phase_aux_peaks=peaks,
            matches=output.num_rows,
            r_rows=r.num_rows,
            s_rows=s.num_rows,
            kernel_count=sum(part.kernel_count for part in parts),
            **fields,
        )

    @property
    def total_seconds(self) -> float:
        if self.cluster is not None:
            # A left-to-right sum over steps, not over the step groups.
            return self.cluster.total_seconds
        return sum(self.phase_seconds.values())

    @property
    def peak_total_bytes(self) -> int:
        return self.input_bytes + self.output_bytes + self.peak_aux_bytes

    @property
    def throughput_tuples_per_s(self) -> float:
        """(|R| + |S|) / total time — the paper's throughput metric."""
        if self.total_seconds == 0:
            return float("inf")
        return (self.r_rows + self.s_rows) / self.total_seconds

    def phase_fraction(self, phase: str) -> float:
        total = self.total_seconds
        return self.phase_seconds.get(phase, 0.0) / total if total else 0.0

    def describe(self) -> str:
        parts = ", ".join(
            f"{phase}={seconds * 1e3:.3f}ms"
            for phase, seconds in self.phase_seconds.items()
        )
        return (
            f"{self.algorithm}[{self.pattern}] on {self.device.name}: "
            f"{self.matches} matches, total={self.total_seconds * 1e3:.3f}ms ({parts})"
        )


def output_column_names(
    r: Relation, s: Relation, projection: Optional[Tuple[str, ...]] = None
) -> List[Tuple[str, str, str]]:
    """Output schema: [(side, source column, output name)], key first.

    S payload names that collide with the key or R payloads get an
    ``_s`` suffix, mirroring :func:`repro.relational.reference_join`.
    With a *projection*, only the named payload columns are kept (the
    key is always produced); unknown names raise
    :class:`~repro.errors.JoinConfigError`.
    """
    names: List[Tuple[str, str, str]] = [("r", r.key, "key")]
    taken = {"key"}
    for name in r.payload_names:
        names.append(("r", name, name))
        taken.add(name)
    for name in s.payload_names:
        out = name if name not in taken else f"{name}_s"
        names.append(("s", name, out))
        taken.add(out)
    if projection is None:
        return names
    wanted = set(projection)
    available = {out for _, _, out in names}
    unknown = wanted - available
    if unknown:
        raise JoinConfigError(
            f"projection references unknown columns {sorted(unknown)}; "
            f"available: {sorted(available - {'key'})}"
        )
    return [
        entry for entry in names if entry[2] == "key" or entry[2] in wanted
    ]


#: What a join's match phase hands :func:`materialize` for one side: the
#: device-resident map its simulated gathers read (virtual IDs under
#: GFTR, physical IDs under GFUR), the permutation its transform applied
#: to the base relation (``None`` when the map holds physical IDs), and
#: the first payload column transformed eagerly with the keys, held as
#: ``(column name, reservation)``, if any.
SideMap = Tuple[
    DeviceArray, Optional[np.ndarray], Optional[Tuple[str, MemoryReservation]]
]

#: Algorithm 1's lazy per-column transform of a GFTR join:
#: ``transform(ctx, rel, column, out_name)`` charges transforming one
#: payload column with the keys and returns the reservation holding the
#: transformed column's bytes.
LazyTransform = Callable[[GPUContext, Relation, np.ndarray, str], MemoryReservation]


def materialize(
    ctx: GPUContext,
    r: Relation,
    s: Relation,
    projection: Optional[Tuple[str, ...]],
    out_key: np.ndarray,
    sides: Dict[str, SideMap],
    transform: Optional[LazyTransform] = None,
) -> List[Tuple[str, np.ndarray]]:
    """The materialization phase of every wide join; returns the output.

    Under GFTR each payload column is transformed with the keys (the
    first one eagerly, the rest lazily through *transform*) and then
    GATHERed through its side's virtual IDs; under GFUR it is GATHERed
    from the base relation through physical IDs.  Either way the
    simulated gather is charged on the side's map, while the host reads
    the same values once from the base relation through
    ``order[map]``, computed once per side.  A gather's traffic depends
    only on its map and the column's item size, so the sector analysis
    runs once per (side, item size) and later columns re-submit those
    stats under their own name.  Frees every transformed column and
    both maps.

    The host holds one side's row ids at a time: the output lists every
    R column before every S column, so a side's ids are dropped when the
    next side's are computed, and each side's ``order`` is dropped from
    *sides* once its ids exist.  Device maps are freed at the end, as
    the simulated device frees them.
    """
    columns: List[Tuple[str, np.ndarray]] = [("key", out_key)]
    ids_side, ids = None, None
    charged: Dict[Tuple[str, int], KernelStats] = {}
    with ctx.phase(MATERIALIZE):
        for side, source, out_name in output_column_names(r, s, projection):
            if out_name == "key":
                continue
            rel = r if side == "r" else s
            index_map, order, eager = sides[side]
            column = rel.column(source)
            if eager is not None and eager[0] == source:
                held = eager[1]
            else:
                held = transform(ctx, rel, column, out_name) if transform else None
            item_bytes = column.dtype.itemsize
            stats = charged.get((side, item_bytes))
            if stats is None:
                charged[side, item_bytes] = gather_stats_only(
                    ctx, index_map.data, item_bytes, index_map.size * item_bytes,
                    phase=MATERIALIZE, label=out_name,
                )
            else:
                ctx.submit(replace(stats, name=f"gather:{out_name}"), phase=MATERIALIZE)
            if side != ids_side:
                ids = None  # the other side's ids go first
                ids = index_map.data if order is None else host_take(order, index_map.data)
                # Taken once per column: convert to intp once, not per take.
                ids = ids.astype(np.intp, copy=False)
                ids_side, order = side, None
                sides[side] = (index_map, None, eager)
            columns.append((out_name, host_take(column, ids)))
            if held is not None:
                held.free()
        # A projection may skip the eagerly transformed first payloads.
        for _, _, eager in sides.values():
            if eager is not None and not eager[1].freed:
                eager[1].free()
        for index_map, _, _ in sides.values():
            index_map.free()
    return columns


def hold_first_payload(
    ctx: GPUContext, rel: Relation, label: str
) -> Optional[Tuple[str, MemoryReservation]]:
    """Reserve *rel*'s first payload column, transformed eagerly with the
    keys under GFTR; the third :data:`SideMap` entry (``None`` if *rel*
    has no payload)."""
    first = rel.payload_names[:1]
    if not first:
        return None
    return first[0], ctx.mem.reserve(rel.column(first[0]).nbytes, label)


def reserve_tuple_ids(ctx: GPUContext, rel: Relation, side: str) -> MemoryReservation:
    """Price a GFUR transform's physical tuple IDs ``0..n-1``, sized like
    the key column they travel with (CUB sorts 64-bit keys with 64-bit
    values): one write pass, ``init_ids:<side>``, and the reservation
    ``ids_<side>`` it returns.  The host builds none: a layout's
    ``order`` is the permuted IDs."""
    nbytes = rel.num_rows * rel.key_values.itemsize
    ctx.submit(
        KernelStats(name=f"init_ids:{side}", items=rel.num_rows, seq_write_bytes=nbytes),
        phase=TRANSFORM,
    )
    return ctx.mem.reserve(nbytes, f"ids_{side}")


def layout_rows(order: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """``order[pos]``, the input rows of layout positions *pos*, written
    over *pos*: a fresh ``intp`` array the caller no longer reads."""
    pos[...] = host_take(order, pos)
    return pos


def gfur_side_maps(
    ctx: GPUContext,
    r: Relation,
    s: Relation,
    orders: Tuple[np.ndarray, np.ndarray],
    positions: Tuple[np.ndarray, np.ndarray],
    charge_output: Optional[Callable[[], None]] = None,
) -> Dict[str, SideMap]:
    """A GFUR join's match-phase physical IDs, as its side maps.

    The device gathers each side's transformed tuple IDs at its matched
    layout positions (``gather:id_r``, ``gather:id_s``), runs
    *charge_output* (the join's output write, if it charges one) and
    holds the IDs as ``match_ids_<side>``.  On the host they are
    ``order[pos]`` at the key width; *orders* and *positions* are
    ``(r, s)`` pairs.
    """
    for side, rel, pos in zip("rs", (r, s), positions):
        item_bytes = rel.key_values.itemsize
        gather_stats_only(
            ctx, pos, item_bytes, pos.size * item_bytes, phase=MATCH, label=f"id_{side}"
        )
    if charge_output is not None:
        charge_output()
    sides: Dict[str, SideMap] = {}
    for side, rel, order, pos in zip("rs", (r, s), orders, positions):
        ids = layout_rows(order, pos).astype(rel.key_values.dtype, copy=False)
        sides[side] = (ctx.mem.adopt(ids, f"match_ids_{side}"), None, None)
    return sides


def is_narrow(r: Relation, s: Relation) -> bool:
    """True if the paper's two-phase narrow-join path applies."""
    return r.num_payload_columns <= 1 and s.num_payload_columns <= 1


class JoinAlgorithm(ABC):
    """Base class for the five join implementations.

    Subclasses implement :meth:`_execute`, running the transform and
    match phases and charging their kernels on the context; the base
    class handles validation, context setup, the shared
    :func:`materialize` phase and result assembly.
    """

    #: Short name, e.g. "SMJ-OM"; set by subclasses.
    name: str = ""
    #: Materialization pattern: "gfur" or "gftr".
    pattern: str = ""

    def __init__(self, config: Optional[JoinConfig] = None):
        self.config = config or JoinConfig()
        self.config.validate()

    def join(
        self,
        r: Relation,
        s: Relation,
        ctx: Optional[GPUContext] = None,
        device: DeviceSpec = A100,
        seed: Optional[int] = None,
    ) -> JoinResult:
        """Execute ``R ⋈ S`` on this algorithm.

        R is the build (primary-key) side and S the probe side, matching
        the paper's convention.  A fresh :class:`GPUContext` is created
        unless one is supplied.
        """
        if ctx is None:
            ctx = GPUContext(device=device, seed=seed)

        # Narrow joins (<= 1 payload column per side) use the paper's
        # two-phase path when the algorithm provides one (Section 2.2):
        # payloads transform with the keys and match finding emits them
        # directly, so there is no materialization phase.
        narrow_exec = getattr(self, "_execute_narrow", None)
        with ctx.trace_span(
            f"join:{self.name}",
            category="algorithm",
            pattern=self.pattern,
            r_rows=r.num_rows,
            s_rows=s.num_rows,
        ):
            if is_narrow(r, s) and narrow_exec is not None and self.config.projection is None:
                output_columns = narrow_exec(ctx, r, s, r.key_is_unique)
            else:
                out_key, sides, transform = self._execute(ctx, r, s, r.key_is_unique)
                output_columns = materialize(
                    ctx, r, s, self.config.projection, out_key, sides, transform
                )

        output = Relation(output_columns, key="key", name=self.config.output_name)
        ctx.count("join_matches", output.num_rows)
        phase_seconds = dict(ctx.timeline.breakdown())
        return JoinResult(
            output=output,
            algorithm=self.name,
            pattern=self.pattern,
            device=ctx.device,
            phase_seconds=phase_seconds,
            input_bytes=r.total_bytes + s.total_bytes,
            output_bytes=output.total_bytes,
            peak_aux_bytes=ctx.mem.peak_bytes,
            phase_aux_peaks=ctx.mem.phase_peaks,
            matches=output.num_rows,
            r_rows=r.num_rows,
            s_rows=s.num_rows,
            kernel_count=ctx.timeline.kernel_count(),
        )

    @abstractmethod
    def _execute(
        self, ctx: GPUContext, r: Relation, s: Relation, unique_build_keys: bool
    ) -> Tuple[np.ndarray, Dict[str, SideMap], Optional[LazyTransform]]:
        """Run the transform and match phases.

        Returns the output keys, each side's :data:`SideMap` keyed
        ``"r"``/``"s"``, and the lazy per-column transform (``None``
        under GFUR) for :func:`materialize`.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, pattern={self.pattern!r})"
