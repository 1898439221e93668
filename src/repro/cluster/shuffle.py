"""Radix-partitioned shuffle: move columns between simulated devices.

The scale-out analogue of the paper's RADIX-PARTITION primitive: every
device hash-partitions its local block of rows by key into one bucket
per destination device (a stable single-pass scatter, charged to that
device's timeline like any other kernel), then the buckets cross the
interconnect with *exact* byte accounting per directed link.  Equal
keys always land on the same device — the property that makes sharded
joins and group-bys produce bit-identical results to their single-device
counterparts — and the partitioning is stable end to end (source blocks
are concatenated in device order, each bucket preserving local row
order), so even order-sensitive float accumulations reproduce exactly.

**Fault injection.**  The exchange is the cluster layer's link-failure
injection point: when the owning :class:`ClusterContext` carries a
:class:`~repro.faults.FaultPlan`, each directed link's bucket may fail
its delivery and be retransmitted whole inside
:meth:`ClusterContext.shuffle_step` — extending the drain and the
``fault_retransmit_*`` counters but never the routed rows, because the
bucket contents are host-resident until the step completes (the
shuffle *is* the superstep checkpoint the replay machinery restores
from).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..gpusim.context import GPUContext
from ..gpusim.kernel import KernelStats
from ..primitives.grouping import bucket_rows
from ..primitives.hashing import mix_hash
from ..relational.relation import Relation
from .context import ClusterContext, ClusterStepRecord


def device_assignments(keys: np.ndarray, num_devices: int) -> np.ndarray:
    """The destination device of each row, by mixed key hash.

    Deterministic and key-functional: equal keys always map to the same
    device, for any ``num_devices >= 1`` (not only powers of two).

    >>> import numpy as np
    >>> a = device_assignments(np.array([7, 9, 7, 9], dtype=np.int64), 4)
    >>> bool(a[0] == a[2]) and bool(a[1] == a[3])
    True
    >>> device_assignments(np.arange(5), 1).tolist()
    [0, 0, 0, 0, 0]
    """
    if num_devices < 1:
        raise ValueError(f"num_devices must be >= 1, got {num_devices}")
    if num_devices == 1:
        return np.zeros(np.asarray(keys).size, dtype=np.int64)
    return (mix_hash(np.asarray(keys)) % np.uint64(num_devices)).astype(np.int64)


def block_ranges(num_rows: int, num_devices: int) -> List[tuple]:
    """Contiguous ``[start, stop)`` row ranges of the initial placement.

    Inputs start block-partitioned across devices (the layout a loader
    naturally produces); ranges differ in size by at most one row.
    """
    bounds = np.linspace(0, num_rows, num_devices + 1).astype(np.int64)
    return [(int(bounds[d]), int(bounds[d + 1])) for d in range(num_devices)]


@dataclass
class ShuffleResult:
    """Exact accounting of one sharded exchange of a set of columns.

    ``matrix[src, dst]`` holds the bytes ``src`` emitted toward ``dst``
    (the diagonal is device-local and never crosses a link);
    ``shards[d]`` is the column set device ``d`` holds afterwards.
    """

    matrix: np.ndarray
    shards: List[Dict[str, np.ndarray]]
    seconds: float
    step: Optional[ClusterStepRecord] = None
    partition_step: Optional[ClusterStepRecord] = None
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def emitted_bytes(self) -> np.ndarray:
        """Bytes each source device put on the interconnect (row sums)."""
        off = self.matrix.copy()
        np.fill_diagonal(off, 0)
        return off.sum(axis=1)

    @property
    def received_bytes(self) -> np.ndarray:
        """Bytes each destination device pulled off the wire (col sums)."""
        off = self.matrix.copy()
        np.fill_diagonal(off, 0)
        return off.sum(axis=0)


def _charge_partition_kernels(
    ctx: GPUContext,
    key_bytes: int,
    total_bytes: int,
    rows: int,
    num_devices: int,
    label: str,
) -> None:
    """Charge the local bucket-scatter of one device's block.

    One OneSweep-style pass, exactly like
    :func:`repro.primitives.radix_partition.radix_partition_pass`: a
    fused histogram read of the keys plus one read and one write of
    every column, with one atomic per destination bucket.
    """
    if rows == 0:
        return
    ctx.submit(
        KernelStats(
            name=f"shard_partition:{label}" if label else "shard_partition",
            items=rows,
            seq_read_bytes=key_bytes + total_bytes,
            seq_write_bytes=total_bytes,
            atomic_ops=num_devices,
        ),
        phase="shuffle",
    )


def shuffle_columns(
    cluster: ClusterContext,
    local_columns: List[Dict[str, np.ndarray]],
    key_column: str,
    label: str = "",
) -> ShuffleResult:
    """Exchange per-device column sets so equal keys co-locate.

    ``local_columns[d]`` is the column dict currently resident on device
    ``d`` (all arrays equally long).  Each device scatters its rows into
    per-destination buckets in a ``shuffle-partition`` compute step
    (charged to its timeline), then every off-diagonal bucket crosses
    the interconnect in one shuffle step.

    Returns a :class:`ShuffleResult` whose ``shards[d]`` concatenates the
    bucket-``d`` rows of every source device in device order (stable
    within each source), so the global relative order of equal-key rows
    is preserved.
    """
    n = cluster.num_devices
    if len(local_columns) != n:
        raise ValueError(
            f"expected {n} local column sets, got {len(local_columns)}"
        )
    names = list(local_columns[0]) if local_columns else []

    # Per-source bucket rows + local scatter kernels.
    buckets: List[List[Dict[str, np.ndarray]]] = []  # [src][dst] -> columns
    matrix = np.zeros((n, n), dtype=np.int64)

    with cluster.compute_step(
        f"shuffle-partition:{label}" if label else "shuffle-partition"
    ) as partition_step:
        for src, columns in enumerate(local_columns):
            keys = columns[key_column]
            assignment = device_assignments(keys, n)
            total_bytes = sum(int(a.nbytes) for a in columns.values())
            _charge_partition_kernels(
                partition_step.contexts[src],
                key_bytes=int(keys.nbytes),
                total_bytes=total_bytes,
                rows=int(keys.size),
                num_devices=n,
                label=label,
            )
            row = []
            for dst, rows in enumerate(bucket_rows(assignment, n)):
                bucket = {name: columns[name][rows] for name in names}
                nbytes = sum(int(a.nbytes) for a in bucket.values())
                matrix[src, dst] = nbytes
                row.append(bucket)
            buckets.append(row)

    shuffle_step = cluster.shuffle_step(
        f"shuffle:{label}" if label else "shuffle", matrix, label=label or "shuffle"
    )

    shards: List[Dict[str, np.ndarray]] = []
    for dst in range(n):
        shard = {
            name: np.concatenate([buckets[src][dst][name] for src in range(n)])
            for name in names
        }
        shards.append(shard)
    return ShuffleResult(
        matrix=matrix,
        shards=shards,
        seconds=shuffle_step.seconds,
        step=shuffle_step,
        partition_step=partition_step,
    )


def shuffle_relation(
    cluster: ClusterContext,
    relation: Relation,
    label: str = "",
) -> ShuffleResult:
    """Shuffle a block-partitioned :class:`Relation` by its key column.

    The relation starts block-partitioned across the cluster's devices
    (see :func:`block_ranges`); afterwards device ``d`` holds exactly
    the rows whose key hashes to ``d``.  ``shards`` entries keep the
    relation's column names; rebuild per-device relations with
    :func:`shard_to_relation`.
    """
    ranges = block_ranges(relation.num_rows, cluster.num_devices)
    local = [
        {name: array[start:stop] for name, array in relation.columns().items()}
        for start, stop in ranges
    ]
    return shuffle_columns(cluster, local, relation.key, label=label)


def shard_to_relation(
    shard: Dict[str, np.ndarray], template: Relation, name: str = ""
) -> Relation:
    """Rebuild one device's shard as a Relation shaped like *template*."""
    return Relation(
        [(n, shard[n]) for n in template.column_names],
        key=template.key,
        name=name or template.name,
    )
