"""Graceful degradation: resilient join and group-by execution.

The recovery ladders that turn a (injected or real)
:class:`~repro.errors.DeviceOutOfMemoryError` into a re-plan instead of
a crash, mirroring Eiger-style memory managers that degrade to
partitioned/out-of-core execution at the memory cliff:

* **join** — in-memory algorithm under memory pressure; on OOM,
  re-plan to the staged :class:`~repro.joins.out_of_core.OutOfCoreJoin`
  over the same inner algorithm, sized to the injected budget (more
  passes, more transfers, same rows).
* **group-by** — resolved strategy under pressure; on OOM, first
  re-plan to ``PART-AGG`` (smallest auxiliary footprint of the
  in-memory strategies), then to the block-staged
  :class:`~repro.aggregation.out_of_core.OutOfCoreGroupBy`.

Every rung re-executes from the operator's (host-resident) inputs, so
degradation is idempotent, and every rung produces the same relational
output as the fault-free run: joins up to row order (chunk
concatenation permutes rows exactly like the staged join does without
faults), group-bys bit for bit (ascending group keys, per-group fold
order preserved).  If the last rung still cannot fit,
:class:`~repro.errors.GracefulDegradationError` reports every attempt.

Both return the one result type of their operator
(:class:`~repro.joins.base.JoinResult`,
:class:`~repro.aggregation.base.GroupByResult`) with a :class:`Recovery`
record: whether the run degraded, the rungs tried, and the simulated
seconds the OOMed attempts wasted.  Those seconds are charged to the
result as its ``oom-wasted`` phase and surfaced through the ambient
:class:`~repro.obs.session.TraceSession` as ``degraded:*`` spans and
``faults_injected_oom`` / ``degraded_operators`` /
``degraded_extra_passes`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from ..aggregation.base import AggSpec, GroupByResult
from ..aggregation.planner import make_groupby_algorithm, resolve_groupby_algorithm
from ..errors import DeviceOutOfMemoryError, GracefulDegradationError
from ..gpusim.context import GPUContext
from ..gpusim.device import A100, DeviceSpec
from ..joins.base import JoinResult
from ..joins.planner import make_algorithm, resolve_join_algorithm
from ..obs.session import current_session
from ..relational.relation import Relation
from .plan import FaultPlan


#: The phase a degraded result charges its OOMed attempts to.
OOM_WASTED = "oom-wasted"


@dataclass
class Recovery:
    """How a join or group-by run under a fault plan got its result."""

    degraded: bool
    #: Every rung tried, in order; the last one produced the result.
    attempts: List[str]
    #: Simulated seconds spent on execution attempts that OOMed.
    wasted_seconds: float = 0.0


def _degraded(result, attempts: List[str], wasted: float, algorithm=None):
    """*result* of a degraded rung, charged the attempts that OOMed."""
    return replace(
        result,
        algorithm=algorithm or result.algorithm,
        phase_seconds={**result.phase_seconds, OOM_WASTED: wasted},
        recovery=Recovery(True, attempts, wasted),
    )


def _note_oom(ctx: GPUContext, err: DeviceOutOfMemoryError, detail: str) -> None:
    """Account one OOM on the failing context's injector and trace."""
    if ctx.faults is not None:
        ctx.faults.note_oom(detail)
    session = current_session() if ctx.trace is None else ctx.trace
    if session is not None:
        session.count("faults_injected_oom")


def _count_degradation(extra_passes: int) -> None:
    session = current_session()
    if session is not None:
        session.count("degraded_operators")
        if extra_passes > 0:
            session.count("degraded_extra_passes", float(extra_passes))


def _degraded_span(kind: str, **args):
    session = current_session()
    if session is None:
        from contextlib import nullcontext

        return nullcontext()
    return session.span(f"degraded:{kind}", category="degraded", **args)


def resilient_join(
    r: Relation,
    s: Relation,
    algorithm: str = "auto",
    device: DeviceSpec = A100,
    config=None,
    seed: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> JoinResult:
    """``R ⋈ S`` that survives (injected) memory pressure.

    Runs the in-memory *algorithm* under the plan's capacity pressure;
    on :class:`DeviceOutOfMemoryError` it re-plans to the staged
    out-of-core join sized to the injected budget, forwarding the
    transient-fault part of the plan into the chunk executions.  The
    returned rows equal the in-memory join's up to the row permutation
    the staged join always applies.
    """
    from ..joins.out_of_core import OutOfCoreJoin

    name = resolve_join_algorithm(algorithm, r, s).algorithm
    attempts: List[str] = []
    wasted = 0.0

    ctx = GPUContext(
        device=device, seed=seed, fault_plan=fault_plan, fault_site="gpu"
    )
    try:
        result = make_algorithm(name, config).join(r, s, ctx=ctx)
        return replace(result, recovery=Recovery(False, [name]))
    except DeviceOutOfMemoryError as err:
        attempts.append(name)
        wasted += ctx.elapsed_seconds
        _note_oom(ctx, err, f"join:{name}")
        budget = ctx.mem.capacity_bytes

    inner_plan = None if fault_plan is None else fault_plan.without_capacity()
    staged = OutOfCoreJoin(
        make_algorithm(name, config),
        device_budget_bytes=budget,
        fault_plan=inner_plan,
        min_chunks=2,
    )
    with _degraded_span(
        "join", algorithm=name, budget_bytes=int(budget or 0), reason="oom"
    ):
        result = staged.join(r, s, device=device, seed=seed)
    attempts.append(f"out-of-core[{name}]x{result.num_chunks}")
    _count_degradation(extra_passes=result.num_chunks - 1)
    return _degraded(result, attempts, wasted)


def resilient_group_by(
    keys: np.ndarray,
    values: Dict[str, np.ndarray],
    aggregates: List[AggSpec],
    algorithm: str = "auto",
    device: DeviceSpec = A100,
    config=None,
    seed: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> GroupByResult:
    """Grouped aggregation that survives (injected) memory pressure.

    The ladder is resolved strategy -> ``PART-AGG`` (smallest in-memory
    auxiliary footprint) -> block-staged
    :class:`~repro.aggregation.out_of_core.OutOfCoreGroupBy`.  Every
    rung returns bit-identical output (ascending group keys, per-group
    fold order preserved); if even block staging cannot fit,
    :class:`GracefulDegradationError` lists the attempts.
    """
    from ..aggregation.out_of_core import OutOfCoreGroupBy

    keys = np.asarray(keys)
    name = resolve_groupby_algorithm(algorithm, keys, device).algorithm
    attempts: List[str] = []
    wasted = 0.0
    budget: Optional[int] = None

    ladder = [name] + (["PART-AGG"] if name != "PART-AGG" else [])
    for rung, strategy in enumerate(ladder):
        ctx = GPUContext(
            device=device, seed=seed, fault_plan=fault_plan, fault_site="gpu"
        )
        try:
            if rung == 0:
                result = make_groupby_algorithm(strategy, config).group_by(
                    keys, values, list(aggregates), ctx=ctx
                )
            else:
                with _degraded_span(
                    "group-by",
                    algorithm=strategy,
                    budget_bytes=int(budget or 0),
                    reason="oom",
                ):
                    result = make_groupby_algorithm(strategy, config).group_by(
                        keys, values, list(aggregates), ctx=ctx
                    )
                _count_degradation(extra_passes=1)
            if rung == 0:
                return replace(result, recovery=Recovery(False, [strategy]))
            return _degraded(
                result, attempts + [strategy], wasted, f"degraded[{strategy}]"
            )
        except DeviceOutOfMemoryError as err:
            attempts.append(strategy)
            wasted += ctx.elapsed_seconds
            _note_oom(ctx, err, f"group-by:{strategy}")
            budget = ctx.mem.capacity_bytes

    inner_plan = None if fault_plan is None else fault_plan.without_capacity()
    staged = OutOfCoreGroupBy(
        inner="PART-AGG",
        device_budget_bytes=budget,
        config=config,
        fault_plan=inner_plan,
        min_blocks=2,
    )
    with _degraded_span(
        "group-by", algorithm="OOC[PART-AGG]", budget_bytes=int(budget or 0),
        reason="oom",
    ):
        try:
            result = staged.group_by(
                keys, values, list(aggregates), device=device, seed=seed
            )
        except DeviceOutOfMemoryError as err:
            raise GracefulDegradationError(
                f"group-by exceeds the device budget even block-staged: {err}",
                attempts=attempts + ["OOC[PART-AGG]"],
            ) from err
    attempts.append(f"OOC[PART-AGG]x{result.num_blocks}")
    _count_degradation(extra_passes=result.num_blocks - 1)
    return _degraded(result, attempts, wasted)
