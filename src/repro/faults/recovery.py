"""Graceful degradation: resilient join and group-by execution.

The recovery ladders that turn a (injected or real)
:class:`~repro.errors.DeviceOutOfMemoryError` into a re-plan instead of
a crash, mirroring Eiger-style memory managers that degrade to
partitioned/out-of-core execution at the memory cliff.  Both operators
pass their rungs to one loop (:func:`_ladder`), whose last rung is the
staged run, spelled ``OOC[<inner>]x<n>`` in the attempts:

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

from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..aggregation.base import AggSpec, GroupByResult
from ..aggregation.out_of_core import OutOfCoreGroupBy
from ..aggregation.planner import make_groupby_algorithm, resolve_groupby_algorithm
from ..errors import DeviceOutOfMemoryError, GracefulDegradationError
from ..gpusim.context import GPUContext
from ..gpusim.device import A100, DeviceSpec
from ..joins.base import JoinResult
from ..joins.out_of_core import OutOfCoreJoin
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


def _degraded(result, attempts: List[str], wasted: float, extra_passes: int,
              algorithm=None):
    """*result* of a degraded rung, charged the attempts that OOMed and
    counted on the ambient trace."""
    session = current_session()
    if session is not None:
        session.count("degraded_operators")
        if extra_passes > 0:
            session.count("degraded_extra_passes", float(extra_passes))
    return replace(
        result,
        algorithm=algorithm or result.algorithm,
        phase_seconds={**result.phase_seconds, OOM_WASTED: wasted},
        recovery=Recovery(True, attempts, wasted),
    )


def _degraded_span(kind: str, algorithm: str, budget: Optional[int]):
    session = current_session()
    if session is None:
        return nullcontext()
    return session.span(f"degraded:{kind}", category="degraded", algorithm=algorithm,
                        budget_bytes=int(budget or 0), reason="oom")


def _ladder(
    kind: str,
    rungs: List[Tuple[str, Callable[[GPUContext], object]]],
    inner: str,
    staged: Callable[[Optional[int]], object],
    device: DeviceSpec,
    seed: Optional[int],
    fault_plan: Optional[FaultPlan],
):
    """The one degradation loop of both operators.

    Runs each ``(name, run)`` rung on a fresh device context under the
    plan's pressure until one fits, then ``staged(budget)`` (the staged
    rung over *inner*, sized to the budget the last OOM saw).  The
    first rung is the planned run; every later one is a degradation,
    traced as a ``degraded:<kind>`` span and charged the seconds the
    OOMed attempts wasted.
    """
    attempts: List[str] = []
    wasted = 0.0
    budget: Optional[int] = None
    for rung, (name, run) in enumerate(rungs):
        ctx = GPUContext(device=device, seed=seed, fault_plan=fault_plan, fault_site="gpu")
        try:
            if rung == 0:
                return replace(run(ctx), recovery=Recovery(False, [name]))
            with _degraded_span(kind, name, budget):
                result = run(ctx)
            return _degraded(result, attempts + [name], wasted, 1, f"degraded[{name}]")
        except DeviceOutOfMemoryError:
            # One OOM, on the failing context's injector and trace.
            if ctx.faults is not None:
                ctx.faults.note_oom(f"{kind}:{name}")
            if ctx.trace is not None:
                ctx.trace.count("faults_injected_oom")
            attempts.append(name)
            wasted += ctx.elapsed_seconds
            budget = ctx.mem.capacity_bytes

    label = f"OOC[{inner}]"
    with _degraded_span(kind, label, budget):
        try:
            result = staged(budget)
        except DeviceOutOfMemoryError as err:
            raise GracefulDegradationError(
                f"{kind} exceeds the device budget even staged: {err}",
                attempts=attempts + [label],
            ) from err
    pieces = result.num_chunks if isinstance(result, JoinResult) else result.num_blocks
    return _degraded(result, attempts + [f"{label}x{pieces}"], wasted, pieces - 1)


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
    name = resolve_join_algorithm(algorithm, r, s).algorithm

    def staged(budget: Optional[int]) -> JoinResult:
        return OutOfCoreJoin(
            make_algorithm(name, config), device_budget_bytes=budget,
            fault_plan=fault_plan, min_chunks=2,
        ).join(r, s, device=device, seed=seed)

    return _ladder(
        "join",
        [(name, lambda ctx: make_algorithm(name, config).join(r, s, ctx=ctx))],
        name, staged, device, seed, fault_plan,
    )


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
    keys = np.asarray(keys)
    name = resolve_groupby_algorithm(algorithm, keys, device).algorithm

    def rung(strategy: str):
        return strategy, lambda ctx: make_groupby_algorithm(strategy, config).group_by(
            keys, values, list(aggregates), ctx=ctx
        )

    def staged(budget: Optional[int]) -> GroupByResult:
        return OutOfCoreGroupBy(
            inner="PART-AGG", device_budget_bytes=budget, config=config,
            fault_plan=fault_plan, min_blocks=2,
        ).group_by(keys, values, list(aggregates), device=device, seed=seed)

    ladder = [name] + (["PART-AGG"] if name != "PART-AGG" else [])
    return _ladder(
        "group-by", [rung(strategy) for strategy in ladder], "PART-AGG", staged,
        device, seed, fault_plan,
    )
