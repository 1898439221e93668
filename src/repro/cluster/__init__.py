"""Simulated multi-GPU execution: sharded joins and aggregations.

The scale-out layer over the single-device simulator.  A
:class:`ClusterContext` owns N per-device timelines plus an
interconnect topology (:data:`NVLINK_MESH` peer-to-peer links or the
shared :data:`PCIE_HOST` bridge); the shuffle primitive
(:mod:`repro.cluster.shuffle`) moves columns between devices with exact
per-link byte accounting; :func:`sharded_join` and
:func:`sharded_group_by` run the unchanged single-device algorithms
per shard and merge the results bit-identically.  Both return the
operator's one result type (:class:`~repro.joins.base.JoinResult`,
:class:`~repro.aggregation.base.GroupByResult`) whose ``cluster`` field
holds the run's :class:`ClusterContext`: its clock is the result's
``total_seconds`` and its step groups are the ``phase_seconds``.

Quick tour::

    from repro.cluster import sharded_join, write_cluster_trace

    result = sharded_join(r, s, num_devices=4, interconnect="nvlink-mesh")
    print(result.describe())             # per-step breakdown on the cluster clock
    print(result.cluster.describe())     # per-device and per-link detail
    write_cluster_trace(result.cluster, "join.cluster.trace.json")
"""

from .context import ClusterContext, ClusterStepRecord, TransferRecord
from .sharded import sharded_group_by, sharded_join
from .shuffle import (
    ShuffleResult,
    block_ranges,
    device_assignments,
    shard_to_relation,
    shuffle_columns,
    shuffle_relation,
)
from .topology import (
    BUILTIN_INTERCONNECTS,
    ClusterSpec,
    InterconnectSpec,
    NVLINK_MESH,
    PCIE_HOST,
    get_interconnect,
    interconnect_seconds,
)
from .trace import cluster_chrome_trace, write_cluster_trace

__all__ = [
    "BUILTIN_INTERCONNECTS",
    "ClusterContext",
    "ClusterSpec",
    "ClusterStepRecord",
    "InterconnectSpec",
    "NVLINK_MESH",
    "PCIE_HOST",
    "ShuffleResult",
    "TransferRecord",
    "block_ranges",
    "cluster_chrome_trace",
    "device_assignments",
    "get_interconnect",
    "interconnect_seconds",
    "shard_to_relation",
    "sharded_group_by",
    "sharded_join",
    "shuffle_columns",
    "shuffle_relation",
    "write_cluster_trace",
]
