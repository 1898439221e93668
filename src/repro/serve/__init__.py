"""Simulated multi-tenant query serving.

The layers below (``gpusim`` -> algorithms -> ``query`` -> ``cluster``
/ ``faults``) execute one query at a time; this package serves *many*:

* :mod:`~repro.serve.streams` — N logical streams multiplexed on one
  simulated device under a deterministic bandwidth-occupancy model;
* :mod:`~repro.serve.server` — :class:`QueryServer`: admission control
  with memory reservations and a bounded priority queue, plan pinning
  and result caching with relation-update invalidation, fault-degraded
  queries that finish without stalling the rest;
* :mod:`~repro.serve.driver` — open/closed-loop workload generation
  over Zipf-popular templates, reporting simulated throughput and
  latency percentiles;
* :mod:`~repro.serve.quota` — per-tenant concurrency/bytes/queue caps
  and the server-wide fault-retry budget;
* :mod:`~repro.serve.brownout` — hysteretic overload degradation and
  low-priority load shedding;
* :mod:`~repro.serve.trace` — the serving timeline as a multi-track
  Chrome trace.

The invariant everything here preserves: serving only re-times queries.
Every output is bit-identical to a direct
:func:`repro.query.executor.execute` of the same plan.
"""

from .brownout import (
    DEGRADED,
    LEVEL_NAMES,
    NORMAL,
    SHED,
    BrownoutController,
    BrownoutPolicy,
    BrownoutTransition,
)
from .cache import (
    DependentLRU,
    PlanCache,
    ResultCache,
    pin_plan,
    plan_signature,
)
from .driver import DriverReport, QueryTemplate, TemplateStats, WorkloadDriver
from .quota import RetryBudget, TenantQuota, TenantState
from .server import (
    QueryOutcome,
    QueryRequest,
    QueryServer,
    ServeReport,
)
from .streams import QueryCompletion, ScheduledItem, StreamScheduler, WorkItem
from .trace import serve_chrome_trace, write_serve_trace

__all__ = [
    "BrownoutController",
    "BrownoutPolicy",
    "BrownoutTransition",
    "DEGRADED",
    "DependentLRU",
    "DriverReport",
    "LEVEL_NAMES",
    "NORMAL",
    "PlanCache",
    "QueryCompletion",
    "QueryOutcome",
    "QueryRequest",
    "QueryServer",
    "QueryTemplate",
    "ResultCache",
    "RetryBudget",
    "SHED",
    "ScheduledItem",
    "ServeReport",
    "StreamScheduler",
    "TemplateStats",
    "TenantQuota",
    "TenantState",
    "WorkItem",
    "WorkloadDriver",
    "pin_plan",
    "plan_signature",
    "serve_chrome_trace",
    "write_serve_trace",
]
