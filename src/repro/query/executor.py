"""Plan execution with optimization passes.

``execute(plan)`` validates, optimizes, and runs a plan bottom-up,
accumulating simulated operator costs into a trace.  Optimizations:

* ``Project`` over ``Join`` -> join-side projection pushdown;
* ``Aggregate`` over ``Join`` -> fused join + aggregation.

Both fire automatically; ``execute(..., optimize=False)`` runs the plan
literally for comparison (the delta is exactly ext02's measurement).
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import replace
from typing import List, Optional, Tuple

from ..aggregation.base import value_columns
from ..aggregation.planner import make_groupby_algorithm, resolve_groupby_algorithm
from ..cancel import current_token
from ..errors import (
    DeviceOutOfMemoryError,
    JoinConfigError,
    ShardedExecutionWarning,
)
from ..obs.session import TraceSession, current_session
from ..gpusim.context import GPUContext
from ..gpusim.device import A100, DeviceSpec
from ..gpusim.kernel import KernelStats
from ..joins.base import JoinConfig
from ..joins.fused import FusedJoinAggregate
from ..joins.planner import make_algorithm, resolve_join_algorithm
from ..relational.relation import Relation
from .plan import (
    Aggregate,
    Join,
    OperatorRun,
    OperatorTrace,
    PlanNode,
    Project,
    QueryResult,
    Scan,
    validate_plan,
)


def _group_inputs(node: Aggregate, child: Relation):
    keys = child.column(node.group_column)
    values = {name: child.column(name) for name in value_columns(node.aggregates)}
    return keys, values


# -- execution modes -----------------------------------------------------------
#
# One strategy object per executor runs every Join and Aggregate.  The
# strategies hold no reference to the executor and look their backends
# up at call time (module attributes, ``executor.tiering`` methods), so
# code that patches those names after the executor is built still sees
# every call.


class _Plain:
    """One device, no faults: the resolved algorithm, run directly."""

    name = "plain"

    def join(self, ex, node, left, right, config, projected) -> OperatorRun:
        algorithm = resolve_join_algorithm(node.algorithm, left, right).algorithm
        result = make_algorithm(algorithm, config).join(
            left, right, device=ex.device, seed=ex.seed
        )
        if ex.join_output_hook is not None and not projected:
            ex.join_output_hook(node, result.output)
        return OperatorRun(
            result.output, result.algorithm, result.total_seconds,
            result.matches, result.algorithm, extras=dict(result.phase_seconds),
        )

    def aggregate(self, ex, node, child) -> OperatorRun:
        keys, values = _group_inputs(node, child)
        algorithm = resolve_groupby_algorithm(node.algorithm, keys, ex.device).algorithm
        result = make_groupby_algorithm(algorithm).group_by(
            keys, values, list(node.aggregates), device=ex.device, seed=ex.seed
        )
        return OperatorRun(
            result.output, result.algorithm, result.total_seconds,
            result.groups, result.algorithm, extras=dict(result.phase_seconds),
        )


class _Resilient:
    """One device under a fault plan: retries and the degradation ladder."""

    name = "resilient"

    def join(self, ex, node, left, right, config, projected) -> OperatorRun:
        from ..faults import recovery

        result = recovery.resilient_join(
            left, right, algorithm=node.algorithm, device=ex.device,
            config=config, seed=ex.seed, fault_plan=ex.fault_plan,
        )
        return _resilient_run(result, result.matches)

    def aggregate(self, ex, node, child) -> OperatorRun:
        from ..faults import recovery

        keys, values = _group_inputs(node, child)
        result = recovery.resilient_group_by(
            keys, values, list(node.aggregates), algorithm=node.algorithm,
            device=ex.device, seed=ex.seed, fault_plan=ex.fault_plan,
        )
        return _resilient_run(result, result.groups)


def _resilient_run(result, rows: int) -> OperatorRun:
    return OperatorRun(
        result.output, result.algorithm, result.total_seconds, rows,
        result.algorithm, extras=result.extras,
        span_args={"degraded": result.degraded},
    )


class _Sharded:
    """``shards`` simulated devices: shuffle, per-shard algorithm, merge."""

    name = "sharded"

    def join(self, ex, node, left, right, config, projected) -> OperatorRun:
        from ..cluster import sharded

        result = sharded.sharded_join(
            left, right, algorithm=node.algorithm, device=ex.device,
            num_devices=ex.shards, interconnect=ex.interconnect,
            config=config, seed=ex.seed, fault_plan=ex.fault_plan,
        )
        return _sharded_run(result, result.matches, ex.shards)

    def aggregate(self, ex, node, child) -> OperatorRun:
        from ..cluster import sharded

        keys, values = _group_inputs(node, child)
        result = sharded.sharded_group_by(
            keys, values, list(node.aggregates), algorithm=node.algorithm,
            device=ex.device, num_devices=ex.shards,
            interconnect=ex.interconnect, seed=ex.seed,
            fault_plan=ex.fault_plan,
        )
        return _sharded_run(result, result.groups, ex.shards)


def _sharded_run(result, rows: int, shards: int) -> OperatorRun:
    return OperatorRun(
        result.output, f"{result.algorithm} x{shards}", result.total_seconds,
        rows, result.algorithm, extras=dict(result.step_seconds),
        span_args={"shards": shards},
    )


class _Tiered:
    """GPU+CPU co-execution over the segment cache for operators that
    read base relations (``Scan`` children); everything else runs on
    the single-device *fallback*."""

    name = "tiered"

    def __init__(self, fallback):
        self.fallback = fallback

    def join(self, ex, node, left, right, config, projected) -> OperatorRun:
        if not projected and isinstance(node.left, Scan) and isinstance(node.right, Scan):
            return ex.tiering.run_join(
                left, right, config=config, session=ex._session,
                fault_plan=ex.fault_plan, seed=ex.seed,
            )
        return self.fallback.join(ex, node, left, right, config, projected)

    def aggregate(self, ex, node, child) -> OperatorRun:
        if isinstance(node.child, Scan):
            return ex.tiering.run_group_by(
                child, node.group_column, list(node.aggregates),
                session=ex._session, fault_plan=ex.fault_plan, seed=ex.seed,
            )
        return self.fallback.aggregate(ex, node, child)


class QueryExecutor:
    """Executes logical plans on a simulated device or device cluster.

    ``shards``, ``fault_plan`` and ``tiering`` choose the execution mode
    every Join and Aggregate runs under, once per executor (``mode``).
    Every mode returns output bit-identical to the plain run (sharded
    and degraded joins up to row order).  :meth:`check_modes` is the
    table of allowed combinations and :meth:`fuses` the join-aggregate
    fusion rule; see "Execution modes" in ARCHITECTURE.md.
    """

    def __init__(
        self,
        device: DeviceSpec = A100,
        config: Optional[JoinConfig] = None,
        seed: Optional[int] = None,
        shards: int = 1,
        interconnect="nvlink-mesh",
        fault_plan=None,
        join_output_hook=None,
        enable_fusion: bool = True,
        tiering=None,
    ):
        self.check_modes(shards, fault_plan, tiering)
        self.device = device
        self.config = config or JoinConfig()
        self.seed = seed
        self.shards = shards
        self.interconnect = interconnect
        self.fault_plan = fault_plan
        # Called with (join_node, output_relation) after each plain
        # (single-device, fault-free, unprojected) join materializes; the
        # serving layer caches these intermediates as sub-results.  Only
        # that path fires the hook: sharded/faulted runs may permute row
        # order and pushed-down projections change the output schema.
        self.join_output_hook = join_output_hook
        # ``enable_fusion=False`` runs Aggregate-over-Join unfused even
        # on one device (bit-identical output, fusion credit forfeited).
        # The serving layer's brownout controller uses it to shed the
        # fused pipeline's peak-memory footprint under pressure.
        self.enable_fusion = enable_fusion
        self.tiering = tiering
        self._session: Optional[TraceSession] = None
        single_device = _Resilient() if fault_plan is not None else _Plain()
        if tiering is not None:
            self.mode = _Tiered(fallback=single_device)
        elif shards > 1:
            self.mode = _Sharded()
        else:
            self.mode = single_device

    @staticmethod
    def check_modes(shards: int, fault_plan=None, tiering=None) -> None:
        """The one mode-compatibility check: raise
        :class:`~repro.errors.JoinConfigError` for a combination of
        ``shards``, ``fault_plan`` and ``tiering`` no mode supports."""
        if shards < 1:
            raise JoinConfigError(f"shards must be >= 1, got {shards}")
        if tiering is not None and shards > 1:
            # Segment residency is per-device state; a sharded run would
            # need per-shard caches, which the cluster layer does not
            # model.  Conflict loudly rather than silently untier.
            raise JoinConfigError(
                f"tiering is incompatible with shards > 1 (got shards={shards})"
            )
        if (
            shards > 1
            and fault_plan is not None
            and fault_plan.capacity_frac is not None
        ):
            # OOM-pressure degradation (re-planning to out-of-core) is a
            # single-device recovery; silently dropping the pressure would
            # make a "tested" fault plan vacuous, so conflict loudly.
            raise JoinConfigError(
                "fault_plan.capacity_frac (device-OOM pressure) is "
                "incompatible with shards > 1; use "
                "fault_plan.without_capacity() for sharded runs"
            )

    def fuses(self, optimize: bool) -> bool:
        """Whether an Aggregate directly over a Join runs as one fused
        pipeline: optimized, on one untiered device, fusion enabled.  A
        sharded aggregate re-shuffles the join output on the group
        column instead, and a tiered one splits by segment residency."""
        return (
            optimize
            and self.enable_fusion
            and self.shards == 1
            and self.tiering is None
        )

    def execute(
        self,
        plan: PlanNode,
        optimize: bool = True,
        trace: Optional[TraceSession] = None,
    ) -> QueryResult:
        """Run a validated plan; pass ``trace`` (or activate a
        :class:`~repro.obs.session.TraceSession`) to capture one span per
        operator with its kernels nested underneath."""
        validate_plan(plan)
        self._session = trace if trace is not None else current_session()
        operator_traces: List[OperatorTrace] = []
        if self._session is not None:
            # Activate so the per-operator GPUContexts report into it even
            # when the session was passed explicitly rather than entered.
            with self._session.activated():
                with self._session.span(f"query:{plan.describe()}", category="query"):
                    output = self._run(plan, operator_traces, optimize)
        else:
            output = self._run(plan, operator_traces, optimize)
        return QueryResult(output=output, trace=operator_traces, session=self._session)

    # -- tracing -------------------------------------------------------------

    @contextmanager
    def _operator_span(self, name: str, **args):
        """An operator span on the active session (or a no-op)."""
        if self._session is None:
            yield None
        else:
            with self._session.span(name, category="operator", **args) as event:
                yield event

    # -- node dispatch -------------------------------------------------------

    def _run(self, node: PlanNode, trace: List[OperatorTrace], optimize: bool):
        # Operator boundary: the cooperative cancellation point between
        # pipeline stages.  Work below this node has been fully charged
        # to the ambient token by the per-kernel accounting.
        token = current_token()
        if token is not None:
            token.check(f"operator:{node.describe()}")
        if isinstance(node, Scan):
            with self._operator_span(node.describe(), rows=node.relation.num_rows):
                pass
            trace.append(OperatorTrace(node.describe(), 0.0, node.relation.num_rows))
            return node.relation
        if isinstance(node, Project):
            if optimize and isinstance(node.child, Join):
                return self._run_join(
                    node.child, trace, optimize, projection=node.columns,
                    pushed_from=node.describe(),
                )
            child = self._run(node.child, trace, optimize)
            return self._run_project(node, child, trace)
        if isinstance(node, Join):
            return self._run_join(node, trace, optimize, projection=None)
        if isinstance(node, Aggregate):
            if isinstance(node.child, Join) and self.fuses(optimize):
                return self._run_fused_aggregate(node, trace, optimize)
            if optimize and isinstance(node.child, Join) and self.shards > 1:
                warnings.warn(
                    ShardedExecutionWarning(
                        f"shards={self.shards} disables join-aggregate "
                        "fusion; executing the Aggregate over the Join "
                        "unfused (results are identical, the fusion "
                        "credit is not applied)"
                    ),
                    stacklevel=2,
                )
            child = self._run(node.child, trace, optimize)
            return self._run_aggregate(node, child, trace)
        raise JoinConfigError(f"unknown plan node {type(node).__name__}")

    # -- operators ----------------------------------------------------------

    def _run_project(
        self, node: Project, child: Relation, trace: List[OperatorTrace]
    ) -> Relation:
        missing = [c for c in node.columns if c not in child]
        if missing:
            raise JoinConfigError(f"Project references missing columns {missing}")
        columns = [(child.key, child.key_values)]
        columns += [(c, child.column(c)) for c in node.columns if c != child.key]
        projected = Relation(columns, key=child.key, name=child.name)
        # An unfused projection copies the kept columns once.
        with self._operator_span(node.describe(), rows=projected.num_rows):
            ctx = GPUContext(device=self.device)
            ctx.submit(
                KernelStats(
                    name="project",
                    items=child.num_rows,
                    seq_read_bytes=projected.total_bytes,
                    seq_write_bytes=projected.total_bytes,
                )
            )
        trace.append(
            OperatorTrace(node.describe(), ctx.elapsed_seconds, projected.num_rows)
        )
        return projected

    def _record(
        self, span, trace: List[OperatorTrace], kind: str, run: OperatorRun,
        suffix: str = "",
    ):
        """Name the operator's span and append its trace entry."""
        description = f"{kind}[{run.label}]{suffix}"
        if span is not None:
            span.name = description
            span.args.update(rows=run.rows, algorithm=run.algorithm, **run.span_args)
        trace.append(
            OperatorTrace(
                description, run.seconds, run.rows,
                extras=run.extras, algorithm=run.algorithm,
            )
        )
        return run.output

    def _run_join(
        self,
        node: Join,
        trace: List[OperatorTrace],
        optimize: bool,
        projection: Optional[Tuple[str, ...]],
        pushed_from: str = "",
    ) -> Relation:
        left = self._run(node.left, trace, optimize)
        right = self._run(node.right, trace, optimize)
        config = self.config
        suffix = ""
        if projection is not None:
            config = replace(config, projection=tuple(projection))
            suffix = f" <- pushed {pushed_from}"
        with self._operator_span(node.describe()) as span:
            run = self.mode.join(
                self, node, left, right, config, projected=projection is not None
            )
        return self._record(span, trace, "Join", run, suffix)

    def _run_aggregate(
        self, node: Aggregate, child: Relation, trace: List[OperatorTrace]
    ):
        with self._operator_span(node.describe()) as span:
            run = self.mode.aggregate(self, node, child)
        return self._record(span, trace, "Aggregate", run)

    def _run_fused_aggregate(
        self, node: Aggregate, trace: List[OperatorTrace], optimize: bool
    ):
        join_node = node.child
        left = self._run(join_node.left, trace, optimize)
        right = self._run(join_node.right, trace, optimize)
        join_algorithm = make_algorithm(
            resolve_join_algorithm(join_node.algorithm, left, right).algorithm,
            self.config,
        )
        groupby_algorithm = None
        if node.algorithm != "auto":
            groupby_algorithm = make_groupby_algorithm(node.algorithm)
        pipeline = FusedJoinAggregate(join_algorithm, groupby_algorithm)
        try:
            with self._operator_span("FusedJoinAggregate") as span:
                result = pipeline.run(
                    left,
                    right,
                    group_column=node.group_column,
                    aggregates=list(node.aggregates),
                    device=self.device,
                    seed=self.seed,
                    fuse=True,
                    fault_plan=self.fault_plan,
                )
        except DeviceOutOfMemoryError:
            # Fusion needs the whole join+fold pipeline resident at once;
            # under memory pressure, unfuse and recover each stage on its
            # own degradation ladder (identical rows, credit forfeited).
            return self._degrade_fused_aggregate(node, left, right, trace)
        join_name = result.join_result.algorithm
        agg_name = result.groupby_result.algorithm
        run = OperatorRun(
            result.output, f"{join_name} + {agg_name}", result.total_seconds,
            result.groupby_result.groups, f"{join_name}+{agg_name}",
            extras={"fusion_credit_s": result.fusion_credit_seconds},
            span_args={"fusion_credit_s": result.fusion_credit_seconds},
        )
        return self._record(span, trace, "FusedJoinAggregate", run)

    def _degrade_fused_aggregate(
        self, node: Aggregate, left: Relation, right: Relation,
        trace: List[OperatorTrace],
    ):
        """Unfuse an OOMed fused pipeline and recover stage by stage."""
        from ..faults import recovery

        if self._session is not None:
            self._session.count("faults_injected_oom")
            self._session.count("degraded_operators")
        needed = dict.fromkeys([node.group_column, *value_columns(node.aggregates)])
        config = replace(self.config, projection=tuple(needed))
        with self._operator_span(
            "FusedJoinAggregate(degraded)", degraded=True
        ) as span:
            join_res = recovery.resilient_join(
                left,
                right,
                algorithm=node.child.algorithm,
                device=self.device,
                config=config,
                seed=self.seed,
                fault_plan=self.fault_plan,
            )
            keys, values = _group_inputs(node, join_res.output)
            agg_res = recovery.resilient_group_by(
                keys,
                values,
                list(node.aggregates),
                algorithm=node.algorithm,
                device=self.device,
                seed=self.seed,
                fault_plan=self.fault_plan,
            )
        run = OperatorRun(
            agg_res.output,
            f"degraded {join_res.algorithm} + {agg_res.algorithm}",
            join_res.total_seconds + agg_res.total_seconds,
            agg_res.groups,
            f"{join_res.algorithm}+{agg_res.algorithm}",
            extras={
                "degraded": 1.0,
                "join_s": join_res.total_seconds,
                "aggregate_s": agg_res.total_seconds,
            },
            span_args={"degraded": True},
        )
        return self._record(span, trace, "JoinAggregate", run)


def execute(
    plan: PlanNode,
    device: DeviceSpec = A100,
    config: Optional[JoinConfig] = None,
    seed: Optional[int] = None,
    optimize: bool = True,
    shards: int = 1,
    interconnect="nvlink-mesh",
    fault_plan=None,
    tiering=None,
) -> QueryResult:
    """One-shot convenience around :class:`QueryExecutor`.

    ``shards=N`` executes every Join/Aggregate sharded across a
    simulated N-device cluster over *interconnect* (a name or an
    :class:`~repro.cluster.topology.InterconnectSpec`);
    ``fault_plan=`` injects a :class:`~repro.faults.FaultPlan` and
    recovers via retries and graceful degradation; ``tiering=`` splits
    eligible operators across a :class:`~repro.tier.TieredRuntime`'s
    GPU/CPU tiers.
    """
    return QueryExecutor(
        device=device, config=config, seed=seed, shards=shards,
        interconnect=interconnect, fault_plan=fault_plan, tiering=tiering,
    ).execute(plan, optimize=optimize)
