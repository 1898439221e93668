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

from ..aggregation.base import GroupByResult, check_inputs, value_columns
from ..aggregation.planner import make_groupby_algorithm, resolve_groupby_algorithm
from ..cancel import current_token
from ..cluster import sharded
from ..errors import (
    DeviceOutOfMemoryError,
    JoinConfigError,
    ShardedExecutionWarning,
)
from ..faults import recovery
from ..obs.session import TraceSession, current_session
from ..gpusim.context import GPUContext
from ..gpusim.device import A100, DeviceSpec
from ..gpusim.kernel import KernelStats
from ..joins.base import JoinConfig, JoinResult
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


def _operator_run(result) -> OperatorRun:
    """The trace fields of a :class:`JoinResult` or
    :class:`~repro.aggregation.base.GroupByResult`, in every mode: a
    sharded run is labelled with its device count and a fault-plan run
    reports its recovery instead of its phases."""
    rows = result.matches if isinstance(result, JoinResult) else result.groups
    label, extras, span_args = result.algorithm, dict(result.phase_seconds), {}
    if result.cluster is not None:
        shards = result.cluster.num_devices
        label, span_args = f"{result.algorithm} x{shards}", {"shards": shards}
    elif result.recovery is not None:
        recovery = result.recovery
        extras = {"degraded": float(recovery.degraded)}
        span_args = {"degraded": recovery.degraded}
        if recovery.degraded:
            if isinstance(result, JoinResult):
                extras["degraded_chunks"] = float(result.num_chunks)
            elif result.num_blocks:
                extras["degraded_blocks"] = float(result.num_blocks)
            extras["oom_wasted_s"] = recovery.wasted_seconds
    return OperatorRun(
        result.output, label, result.total_seconds, rows, result.algorithm,
        extras=extras, span_args=span_args,
    )


# -- the mode dispatch ---------------------------------------------------------
#
# The one place that picks the backend a Join or Aggregate runs on, for
# ``repro.join``/``repro.group_by`` and the executor alike.  Backends are
# looked up as module attributes when called, so code that patches
# ``sharded_join`` or ``resilient_join`` after an executor was built
# still sees every call.


def run_join(
    r: Relation, s: Relation, algorithm: str = "auto", device: DeviceSpec = A100,
    config: Optional[JoinConfig] = None, seed: Optional[int] = None,
    shards: int = 1, interconnect="nvlink-mesh", fault_plan=None,
) -> JoinResult:
    """``R ⋈ S`` in its mode: sharded over ``shards > 1`` devices,
    on the degradation ladder under a fault plan, else the resolved
    algorithm on one device."""
    algorithm = resolve_join_algorithm(algorithm, r, s).algorithm
    if shards > 1:
        return sharded.sharded_join(
            r, s, algorithm=algorithm, device=device, num_devices=shards,
            interconnect=interconnect, config=config, seed=seed,
            fault_plan=fault_plan,
        )
    if fault_plan is not None:
        return recovery.resilient_join(
            r, s, algorithm=algorithm, device=device, config=config, seed=seed,
            fault_plan=fault_plan,
        )
    return make_algorithm(algorithm, config).join(r, s, device=device, seed=seed)


def run_group_by(
    keys, values, aggregates, algorithm: str = "auto", device: DeviceSpec = A100,
    config=None, seed: Optional[int] = None,
    shards: int = 1, interconnect="nvlink-mesh", fault_plan=None,
) -> GroupByResult:
    """A grouped aggregation in its mode, dispatched as :func:`run_join`;
    its inputs are checked before a mode splits their rows."""
    check_inputs(keys, values, aggregates)
    algorithm = resolve_groupby_algorithm(algorithm, keys, device).algorithm
    if shards > 1:
        return sharded.sharded_group_by(
            keys, values, aggregates, algorithm=algorithm, device=device,
            num_devices=shards, interconnect=interconnect, config=config,
            seed=seed, fault_plan=fault_plan,
        )
    if fault_plan is not None:
        return recovery.resilient_group_by(
            keys, values, aggregates, algorithm=algorithm, device=device,
            config=config, seed=seed, fault_plan=fault_plan,
        )
    return make_groupby_algorithm(algorithm, config).group_by(
        keys, values, aggregates, device=device, seed=seed
    )


class QueryExecutor:
    """Executes logical plans on a simulated device or device cluster.

    ``shards`` and ``fault_plan`` choose the mode every Join and
    Aggregate runs under, through the same dispatch as ``repro.join``
    and ``repro.group_by`` (:func:`run_join`, :func:`run_group_by`);
    with ``tiering``, operators over base-relation scans run on the
    :class:`~repro.tier.TieredRuntime` instead.  Every mode returns
    output bit-identical to the plain run (sharded and degraded joins
    up to row order).  :meth:`check_modes` is the table of allowed
    combinations and :meth:`fuses` the join-aggregate fusion rule; see
    "Execution modes" in ARCHITECTURE.md.
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

    def _join(self, left, right, algorithm, config) -> JoinResult:
        """One join in this executor's mode."""
        return run_join(
            left, right, algorithm, device=self.device, config=config,
            seed=self.seed, shards=self.shards, interconnect=self.interconnect,
            fault_plan=self.fault_plan,
        )

    def _group_by(self, node: Aggregate, child: Relation) -> GroupByResult:
        """*node*'s aggregation of *child* in this executor's mode."""
        keys, values = _group_inputs(node, child)
        return run_group_by(
            keys, values, list(node.aggregates), node.algorithm,
            device=self.device, seed=self.seed, shards=self.shards,
            interconnect=self.interconnect, fault_plan=self.fault_plan,
        )

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
            if (
                self.tiering is not None
                and projection is None
                and isinstance(node.left, Scan)
                and isinstance(node.right, Scan)
            ):
                run = self.tiering.run_join(
                    left, right, config=config, session=self._session,
                    fault_plan=self.fault_plan, seed=self.seed,
                )
            else:
                result = self._join(left, right, node.algorithm, config)
                if (
                    self.join_output_hook is not None
                    and self.shards == 1
                    and self.fault_plan is None
                    and projection is None
                ):
                    self.join_output_hook(node, result.output)
                run = _operator_run(result)
        return self._record(span, trace, "Join", run, suffix)

    def _run_aggregate(
        self, node: Aggregate, child: Relation, trace: List[OperatorTrace]
    ):
        with self._operator_span(node.describe()) as span:
            if self.tiering is not None and isinstance(node.child, Scan):
                run = self.tiering.run_group_by(
                    child, node.group_column, list(node.aggregates),
                    session=self._session, fault_plan=self.fault_plan,
                    seed=self.seed,
                )
            else:
                run = _operator_run(self._group_by(node, child))
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
        """Unfuse an OOMed fused pipeline and recover stage by stage.

        Only a fault plan's capacity pressure makes the fused pipeline
        OOM, and fusion runs on one device, so both stages dispatch to
        the degradation ladder.
        """
        if self._session is not None:
            self._session.count("faults_injected_oom")
            self._session.count("degraded_operators")
        needed = dict.fromkeys([node.group_column, *value_columns(node.aggregates)])
        config = replace(self.config, projection=tuple(needed))
        with self._operator_span(
            "FusedJoinAggregate(degraded)", degraded=True
        ) as span:
            join_res = self._join(left, right, node.child.algorithm, config)
            agg_res = self._group_by(node, join_res.output)
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
