"""Sharded joins and grouped aggregations across a simulated cluster.

The scale-out execution strategy of distributed radix joins, expressed
with this library's single-device algorithms as the per-shard kernels:

1. **shuffle** — both inputs are hash-partitioned on the join/group key
   and exchanged so equal keys co-locate (:mod:`repro.cluster.shuffle`);
2. **per-shard compute** — every device runs the *unchanged*
   single-device algorithm (PHJ/SMJ/NPJ join or hash/sort/partitioned
   group-by) on its shard, on its own timeline;
3. **merge** — join outputs stay sharded across devices (the useful end
   state for a pipeline); group-by outputs are gathered to device 0 and
   k-way merged into ascending key order.

Because the shuffle routes *all* rows of a key to one device and keeps
their global relative order (stable buckets, sources concatenated in
device order), the merged results are bit-identical to the
single-device algorithms — including order-sensitive float
accumulations such as ``mean`` — which the oracle suite asserts for
1, 2, 4 and 8 devices.  A one-device cluster skips the shuffle and
merge entirely and reproduces the single-device simulated time exactly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..aggregation.base import AggSpec, GroupByResult, merge_disjoint_groups
from ..aggregation.planner import make_groupby_algorithm, resolve_groupby_algorithm
from ..gpusim.device import A100, DeviceSpec
from ..gpusim.kernel import KernelStats
from ..joins.base import JoinConfig, JoinResult
from ..joins.planner import make_algorithm, resolve_join_algorithm
from ..relational.relation import Relation
from .context import ClusterContext
from .shuffle import shard_to_relation, shuffle_columns, shuffle_relation
from .topology import InterconnectSpec, NVLINK_MESH


def _make_cluster(
    cluster: Optional[ClusterContext],
    device: DeviceSpec,
    num_devices: int,
    interconnect: Union[str, InterconnectSpec],
    seed: Optional[int],
    fault_plan=None,
) -> ClusterContext:
    if cluster is not None:
        return cluster
    return ClusterContext(
        device=device, num_devices=num_devices, interconnect=interconnect, seed=seed,
        fault_plan=fault_plan,
    )


def _step_breakdown(cluster: ClusterContext) -> "OrderedDict[str, float]":
    """Cluster seconds keyed by canonical step group, in clock order."""
    groups = OrderedDict()
    for step in cluster.steps:
        name = step.name.split(":", 1)[0].split("@", 1)[0]
        groups[name] = groups.get(name, 0.0) + step.seconds
    return groups


def sharded_join(
    r: Relation,
    s: Relation,
    algorithm: str = "auto",
    cluster: Optional[ClusterContext] = None,
    device: DeviceSpec = A100,
    num_devices: int = 1,
    interconnect: Union[str, InterconnectSpec] = NVLINK_MESH,
    config: Optional[JoinConfig] = None,
    seed: Optional[int] = None,
    fault_plan=None,
) -> JoinResult:
    """Inner equi-join ``R ⋈ S`` sharded over a simulated cluster.

    Both relations are shuffled on the join key so every device joins a
    disjoint key range with the unchanged single-device *algorithm*;
    the output rows are the union of the per-device outputs.  With one
    device this degenerates to exactly the single-device join (same
    kernels, same simulated seconds, no shuffle).

    >>> import numpy as np
    >>> from repro.relational import Relation
    >>> r = Relation.from_key_payloads(
    ...     np.arange(1000, dtype=np.int32),
    ...     [np.arange(1000, dtype=np.int32)], payload_prefix="r")
    >>> s = Relation.from_key_payloads(
    ...     np.arange(1000, dtype=np.int32).repeat(2),
    ...     [np.arange(2000, dtype=np.int32)], payload_prefix="s")
    >>> result = sharded_join(r, s, algorithm="PHJ-OM", num_devices=4, seed=0)
    >>> result.matches, result.cluster.num_devices
    (2000, 4)
    >>> sorted(result.phase_seconds) == sorted(
    ...     ["shuffle-partition", "shuffle", "join"])
    True
    """
    cluster = _make_cluster(
        cluster, device, num_devices, interconnect, seed, fault_plan
    )
    # Resolved from the *global* relations: every shard runs the same
    # algorithm the single-device planner would pick.
    name = resolve_join_algorithm(algorithm, r, s).algorithm

    if cluster.num_devices == 1:
        with cluster.compute_step("join") as step:
            per_device = [make_algorithm(name, config).join(r, s, ctx=step.contexts[0])]
        output = per_device[0].output
    else:
        r_shuffle = shuffle_relation(cluster, r, label="R")
        s_shuffle = shuffle_relation(cluster, s, label="S")
        per_device: List[JoinResult] = []
        with cluster.compute_step("join") as step:
            for d in range(cluster.num_devices):
                r_shard = shard_to_relation(r_shuffle.shards[d], r, name=f"{r.name}@{d}")
                s_shard = shard_to_relation(s_shuffle.shards[d], s, name=f"{s.name}@{d}")
                per_device.append(
                    make_algorithm(name, config).join(
                        r_shard, s_shard, ctx=step.contexts[d]
                    )
                )
        output = Relation(
            [
                (column, np.concatenate([res.output.column(column) for res in per_device]))
                for column in per_device[0].output.column_names
            ],
            key=per_device[0].output.key,
            name=per_device[0].output.name,
        )
    return JoinResult.combine(
        per_device, output, r, s, algorithm=name, pattern=per_device[0].pattern,
        device=cluster.device, phase_seconds=_step_breakdown(cluster),
        cluster=cluster,
    )


def sharded_group_by(
    keys: np.ndarray,
    values: Dict[str, np.ndarray],
    aggregates: List[AggSpec],
    algorithm: str = "auto",
    cluster: Optional[ClusterContext] = None,
    device: DeviceSpec = A100,
    num_devices: int = 1,
    interconnect: Union[str, InterconnectSpec] = NVLINK_MESH,
    config=None,
    seed: Optional[int] = None,
    fault_plan=None,
) -> GroupByResult:
    """Grouped aggregation sharded over a simulated cluster.

    Rows are shuffled on the group key, so each group is aggregated
    wholly on one device by the unchanged single-device strategy; the
    per-device outputs (disjoint key sets) are gathered to device 0 and
    k-way merged into ascending key order.  With one device this
    degenerates to exactly the single-device aggregation.

    >>> import numpy as np
    >>> from repro.aggregation import AggSpec
    >>> keys = np.arange(64, dtype=np.int32).repeat(16)
    >>> result = sharded_group_by(
    ...     keys, {"v": np.ones(keys.size, dtype=np.int32)},
    ...     [AggSpec("v", "sum")], algorithm="HASH-AGG", num_devices=2, seed=0)
    >>> result.groups, int(result.output["sum_v"][0])
    (64, 16)
    """
    cluster = _make_cluster(
        cluster, device, num_devices, interconnect, seed, fault_plan
    )
    keys = np.asarray(keys)
    algorithm = resolve_groupby_algorithm(algorithm, keys, cluster.device).algorithm

    if cluster.num_devices == 1:
        with cluster.compute_step("aggregate") as step:
            per_device = [
                make_groupby_algorithm(algorithm, config).group_by(
                    keys, values, list(aggregates), ctx=step.contexts[0]
                )
            ]
        output = per_device[0].output
    else:
        per_device, output = _shuffled_group_by(
            cluster, keys, values, aggregates, algorithm, config
        )
    return GroupByResult.combine(
        per_device, output, keys, values, algorithm=algorithm,
        pattern=per_device[0].pattern, device=cluster.device,
        phase_seconds=_step_breakdown(cluster), cluster=cluster,
    )


def _shuffled_group_by(
    cluster: ClusterContext,
    keys: np.ndarray,
    values: Dict[str, np.ndarray],
    aggregates: List[AggSpec],
    algorithm: str,
    config,
) -> Tuple[List[GroupByResult], "OrderedDict[str, np.ndarray]"]:
    """Shuffle, per-device aggregation, gather and k-way merge on a
    multi-device *cluster*; returns the per-device results and the
    merged output."""
    # Shuffle the key column together with every referenced value column.
    key_column = "__group_key__"
    while key_column in values:
        key_column += "_"
    columns = OrderedDict([(key_column, keys)])
    columns.update(values)
    ranges_n = cluster.num_devices
    bounds = np.linspace(0, keys.size, ranges_n + 1).astype(np.int64)
    local = [
        {name: array[bounds[d]: bounds[d + 1]] for name, array in columns.items()}
        for d in range(ranges_n)
    ]
    shuffle = shuffle_columns(cluster, local, key_column, label="keys")

    per_device: List[GroupByResult] = []
    with cluster.compute_step("aggregate") as step:
        for d in range(cluster.num_devices):
            shard = shuffle.shards[d]
            per_device.append(
                make_groupby_algorithm(algorithm, config).group_by(
                    shard[key_column],
                    {name: shard[name] for name in values},
                    list(aggregates),
                    ctx=step.contexts[d],
                )
            )

    # Gather the (small, disjoint) per-device outputs to device 0 ...
    gather = np.zeros((cluster.num_devices, cluster.num_devices), dtype=np.int64)
    for d, res in enumerate(per_device):
        if d != 0:
            gather[d, 0] = sum(int(a.nbytes) for a in res.output.values())
    cluster.shuffle_step("gather", gather, label="result-gather")

    # ... and k-way merge them into ascending group-key order.
    merged = merge_disjoint_groups([res.output for res in per_device])
    merged_bytes = sum(int(a.nbytes) for a in merged.values())
    with cluster.compute_step("merge") as step:
        step.contexts[0].submit(
            KernelStats(
                name="kway_merge",
                items=int(merged["group_key"].size),
                seq_read_bytes=merged_bytes,
                seq_write_bytes=merged_bytes,
            ),
            phase="materialize",
        )
    return per_device, merged
