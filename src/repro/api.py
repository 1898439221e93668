"""Top-level convenience API.

Most users need three calls::

    from repro import Relation, join, group_by

    result = join(r, s)                      # planner picks the algorithm
    result = join(r, s, algorithm="PHJ-OM")  # force one
    agg = group_by(keys, {"v": values}, {"v": "sum"})

Scale-out across simulated devices is one keyword away
(``join(r, s, shards=4)``); lower-level control (explicit contexts,
configs, devices, per-phase inspection, cluster topologies) lives in
``repro.joins``, ``repro.aggregation`` and ``repro.cluster``.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional, Union

import numpy as np

from .errors import ShardedExecutionWarning

from .aggregation.base import AggSpec, GroupByConfig, GroupByResult
from .aggregation.planner import make_groupby_algorithm, resolve_groupby_algorithm
from .gpusim.device import A100, DeviceSpec, get_device
from .joins.base import JoinConfig, JoinResult
from .joins.planner import make_algorithm, resolve_join_algorithm
from .relational.relation import Relation


def _resolve_device(device: Union[str, DeviceSpec]) -> DeviceSpec:
    if isinstance(device, DeviceSpec):
        return device
    return get_device(device)


def query_server(device: Union[str, DeviceSpec] = A100, **kwargs):
    """A :class:`~repro.serve.server.QueryServer` on *device*.

    The serving layer multiplexes concurrent queries over logical
    streams with admission control and plan/result caching; every knob
    of :class:`~repro.serve.server.QueryServer` passes through
    (``streams=``, ``queue_depth=``, ``shards=``, ...).

    >>> import numpy as np
    >>> from repro import Relation, query_server
    >>> from repro.query.plan import Join, Scan
    >>> r = Relation.from_key_payloads(
    ...     np.arange(64, dtype=np.int32),
    ...     [np.arange(64, dtype=np.int32)], payload_prefix="r")
    >>> s = Relation.from_key_payloads(
    ...     np.arange(64, dtype=np.int32).repeat(2),
    ...     [np.arange(128, dtype=np.int32)], payload_prefix="s")
    >>> server = query_server(streams=2, seed=0)
    >>> _ = server.register("r", r); _ = server.register("s", s)
    >>> outcome = server.query(Join(Scan(r), Scan(s), algorithm="PHJ-OM"))
    >>> outcome.status, outcome.output.num_rows
    ('completed', 128)
    """
    from .serve.server import QueryServer

    return QueryServer(device=_resolve_device(device), **kwargs)


def _check_sharded_fault_plan(fault_plan, shards: int) -> None:
    """Warn when sharding strips a plan's single-device OOM pressure."""
    if fault_plan is not None and fault_plan.capacity_frac is not None:
        warnings.warn(
            ShardedExecutionWarning(
                f"shards={shards} ignores fault_plan.capacity_frac: "
                "device-OOM pressure and its graceful degradation are "
                "single-device mechanisms; transient faults still inject"
            ),
            stacklevel=3,
        )


def join(
    r: Relation,
    s: Relation,
    algorithm: str = "auto",
    device: Union[str, DeviceSpec] = A100,
    config: Optional[JoinConfig] = None,
    match_ratio: Optional[float] = None,
    zipf_factor: float = 0.0,
    seed: Optional[int] = None,
    shards: int = 1,
    interconnect="nvlink-mesh",
    fault_plan=None,
) -> JoinResult:
    """Inner equi-join ``R ⋈ S`` on each relation's key column.

    R is the build (primary-key) side, S the probe side.  With
    ``algorithm="auto"`` the Figure 18 decision tree picks the
    implementation from the relations' shapes (pass ``match_ratio`` /
    ``zipf_factor`` estimates for a better decision).  Returns a
    :class:`~repro.joins.base.JoinResult` whose ``output`` is the real
    materialized join and whose times/memory are simulated.

    ``shards=N`` with ``N > 1`` runs the join sharded across a simulated
    N-device cluster over *interconnect* (``"nvlink-mesh"``,
    ``"pcie-host"``, or an
    :class:`~repro.cluster.topology.InterconnectSpec`), returning a
    :class:`~repro.cluster.sharded.ShardedJoinResult` with the same
    rows and the cluster-clock timing.

    >>> import numpy as np
    >>> r = Relation.from_key_payloads(
    ...     np.arange(100, dtype=np.int32),
    ...     [np.arange(100, dtype=np.int32)], payload_prefix="r")
    >>> s = Relation.from_key_payloads(
    ...     np.arange(100, dtype=np.int32).repeat(3),
    ...     [np.arange(300, dtype=np.int32)], payload_prefix="s")
    >>> result = join(r, s, algorithm="PHJ-OM", seed=0)
    >>> result.algorithm, result.matches
    ('PHJ-OM', 300)
    >>> sharded = join(r, s, algorithm="PHJ-OM", seed=0, shards=2)
    >>> sharded.matches, sharded.num_devices
    (300, 2)

    ``fault_plan=`` injects a :class:`~repro.faults.FaultPlan`: kernels
    retry with simulated backoff, and under the plan's memory pressure
    the join degrades to the staged out-of-core path instead of raising
    (returning a :class:`~repro.faults.ResilientJoinResult` with the
    same rows).

    >>> from repro.faults import FaultPlan
    >>> faulty = join(r, s, algorithm="PHJ-OM", seed=0,
    ...               fault_plan=FaultPlan(seed=1, kernel_fault_rate=0.2))
    >>> faulty.output.equals_unordered(result.output), faulty.degraded
    (True, False)
    """
    spec = _resolve_device(device)
    # Resolved before dispatch, so the hints count in every mode.
    algorithm = resolve_join_algorithm(
        algorithm, r, s, match_ratio=match_ratio, zipf_factor=zipf_factor
    ).algorithm
    if shards > 1:
        from .cluster.sharded import sharded_join

        _check_sharded_fault_plan(fault_plan, shards)
        return sharded_join(
            r,
            s,
            algorithm=algorithm,
            device=spec,
            num_devices=shards,
            interconnect=interconnect,
            config=config,
            seed=seed,
            fault_plan=fault_plan,
        )
    if fault_plan is not None:
        from .faults.recovery import resilient_join

        return resilient_join(
            r,
            s,
            algorithm=algorithm,
            device=spec,
            config=config,
            seed=seed,
            fault_plan=fault_plan,
        )
    impl = make_algorithm(algorithm, config)
    return impl.join(r, s, device=spec, seed=seed)


def _coerce_aggregates(aggregates) -> List[AggSpec]:
    if isinstance(aggregates, dict):
        return [AggSpec(column, op) for column, op in aggregates.items()]
    specs = []
    for item in aggregates:
        if isinstance(item, AggSpec):
            specs.append(item)
        else:
            column, op = item
            specs.append(AggSpec(column, op))
    return specs


def group_by(
    keys: np.ndarray,
    values: Dict[str, np.ndarray],
    aggregates,
    algorithm: str = "auto",
    device: Union[str, DeviceSpec] = A100,
    config: Optional[GroupByConfig] = None,
    zipf_factor: float = 0.0,
    seed: Optional[int] = None,
    shards: int = 1,
    interconnect="nvlink-mesh",
    fault_plan=None,
) -> GroupByResult:
    """Grouped aggregation of *values* by *keys*.

    ``aggregates`` maps value-column name to operator (``sum``,
    ``count``, ``min``, ``max``, ``mean``), or is a list of
    :class:`AggSpec` / ``(column, op)`` pairs.  With ``algorithm="auto"``
    the planner picks hash, sort, or partitioned aggregation from the
    estimated group cardinality.

    ``shards=N`` with ``N > 1`` shards the aggregation across a
    simulated N-device cluster (groups are shuffled whole, so results
    stay bit-identical), returning a
    :class:`~repro.cluster.sharded.ShardedGroupByResult`.

    >>> import numpy as np
    >>> keys = np.array([3, 1, 3, 1, 3], dtype=np.int32)
    >>> agg = group_by(keys, {"v": np.arange(5, dtype=np.int32)}, {"v": "sum"})
    >>> agg.output["group_key"].tolist(), agg.output["sum_v"].tolist()
    ([1, 3], [4, 6])
    >>> sharded = group_by(
    ...     keys, {"v": np.arange(5, dtype=np.int32)}, {"v": "sum"}, shards=2)
    >>> sharded.output["sum_v"].tolist()
    [4, 6]
    """
    spec = _resolve_device(device)
    agg_specs = _coerce_aggregates(aggregates)
    algorithm = resolve_groupby_algorithm(
        algorithm, keys, spec, zipf_factor=zipf_factor
    ).algorithm
    if shards > 1:
        from .cluster.sharded import sharded_group_by

        _check_sharded_fault_plan(fault_plan, shards)
        return sharded_group_by(
            keys,
            values,
            agg_specs,
            algorithm=algorithm,
            device=spec,
            num_devices=shards,
            interconnect=interconnect,
            config=config,
            seed=seed,
            fault_plan=fault_plan,
        )
    if fault_plan is not None:
        from .faults.recovery import resilient_group_by

        return resilient_group_by(
            keys,
            values,
            agg_specs,
            algorithm=algorithm,
            device=spec,
            config=config,
            seed=seed,
            fault_plan=fault_plan,
        )
    impl = make_groupby_algorithm(algorithm, config)
    return impl.group_by(keys, values, agg_specs, device=spec, seed=seed)
