"""Deterministic fault injection and graceful-degradation recovery.

``FaultPlan`` describes a reproducible fault workload (transient kernel
faults, device-OOM pressure, cluster link failures, stragglers, device
replays); the execution layers accept it as a ``fault_plan=`` keyword
and recover without changing any relational result.  See
``ARCHITECTURE.md`` ("Fault model & graceful degradation").
"""

from .plan import FAULT_COUNTERS, FaultEvent, FaultInjector, FaultPlan, site_seed
from .recovery import Recovery, resilient_group_by, resilient_join

__all__ = [
    "FAULT_COUNTERS",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "Recovery",
    "resilient_group_by",
    "resilient_join",
    "site_seed",
]
