"""Hysteretic brownout controller for overload load-shedding.

Under sustained overload a server has two bad options: queue without
bound (latency collapses for everyone) or reject blindly (throughput
collapses).  *Brownout* is the middle path — degrade service quality
deterministically, in steps, and recover the same way:

* ``NORMAL`` — full service.
* ``DEGRADED`` — queries still complete bit-identically, but the server
  stops paying optional costs: join-aggregate fusion is disabled (its
  fused-plan credit is forfeited, shortening planner work), and cache
  *population* is suspended (hits are still served) so the admission
  path does no verification or pinning work.
* ``SHED`` — additionally, a fraction of the lowest-priority queued
  requests is dropped with typed rejections
  (:class:`~repro.errors.AdmissionError`, ``reason="brownout-shed"``),
  and newly arriving work at or below the shed priority is turned away
  at the door.

Transitions are driven by a scalar *pressure* — the max of queue
fullness and memory fullness — through a hysteresis band: the
controller enters a level at a high threshold and only leaves it at a
strictly lower one, so pressure oscillating around a single threshold
cannot flap the level.  Overload means queued work the streams cannot
absorb, or device memory the server cannot reclaim.  Busy streams are
not overload: a query that keeps a stream busy is the device doing its
job.  Memory fullness leaves out resident tier-cache segments, because
admission demotes them whenever a query needs room (the one path by
which cache bytes go back).  All inputs are simulated-clock
quantities, so the trajectory is deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..errors import ServeConfigError

#: Brownout levels, ordered by severity.
NORMAL, DEGRADED, SHED = 0, 1, 2

LEVEL_NAMES: Tuple[str, ...] = ("normal", "degraded", "shed")


@dataclass(frozen=True)
class BrownoutPolicy:
    """Thresholds and knobs for the brownout state machine.

    Pressure is in ``[0, 1]``-ish units (fullness fractions; queue
    fraction may exceed 1 when the queue is deeper than its soft
    bound).  Each level's ``*_enter`` must be strictly above
    its ``*_exit`` — the gap is the hysteresis band.
    """

    degrade_enter: float = 0.70
    degrade_exit: float = 0.40
    shed_enter: float = 0.90
    shed_exit: float = 0.60
    #: Fraction of the queued requests shed (lowest priority, newest
    #: first) each time the controller is at SHED after an update.
    shed_fraction: float = 0.5
    #: Arrivals with priority <= this are rejected at the door while
    #: shedding; higher-priority work is still queued.
    shed_priority_max: int = 0

    def __post_init__(self) -> None:
        for enter, exit_, name in (
            (self.degrade_enter, self.degrade_exit, "degrade"),
            (self.shed_enter, self.shed_exit, "shed"),
        ):
            if not 0.0 < enter <= 10.0:
                raise ServeConfigError(f"{name}_enter must be in (0, 10], got {enter}")
            if not 0.0 <= exit_ < enter:
                raise ServeConfigError(
                    f"{name}_exit must satisfy 0 <= exit < enter, "
                    f"got exit={exit_} enter={enter}"
                )
        if self.shed_enter < self.degrade_enter:
            raise ServeConfigError(
                "shed_enter must be >= degrade_enter "
                f"(got {self.shed_enter} < {self.degrade_enter})"
            )
        if not 0.0 < self.shed_fraction <= 1.0:
            raise ServeConfigError(
                f"shed_fraction must be in (0, 1], got {self.shed_fraction}"
            )


@dataclass(frozen=True)
class BrownoutTransition:
    """One recorded level change (for observability and tests)."""

    clock_s: float
    from_level: int
    to_level: int
    pressure: float

    def describe(self) -> str:
        return (
            f"t={self.clock_s:.6f}s {LEVEL_NAMES[self.from_level]}"
            f"->{LEVEL_NAMES[self.to_level]} (pressure={self.pressure:.3f})"
        )


class BrownoutController:
    """Hysteretic three-level state machine over a scalar pressure signal.

    >>> ctl = BrownoutController()
    >>> ctl.update(0.0, queue_frac=0.2, memory_frac=0.1)
    0
    >>> ctl.update(1.0, queue_frac=0.95, memory_frac=0.3)
    2
    >>> ctl.update(2.0, queue_frac=0.55, memory_frac=0.3)
    1
    >>> ctl.update(3.0, queue_frac=0.1, memory_frac=0.1)
    0
    >>> [t.describe().split(" ", 1)[1].split(" (")[0] for t in ctl.transitions]
    ['normal->shed', 'shed->degraded', 'degraded->normal']
    """

    def __init__(self, policy: BrownoutPolicy = BrownoutPolicy()):
        self.policy = policy
        self.level: int = NORMAL
        self.pressure: float = 0.0
        self.transitions: List[BrownoutTransition] = []
        #: Simulated seconds spent at each level (integrated by update()).
        self.level_seconds: List[float] = [0.0, 0.0, 0.0]
        self._last_clock_s: float = 0.0

    # -- queries -----------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True at DEGRADED or SHED: optional service quality is off."""
        return self.level >= DEGRADED

    @property
    def shedding(self) -> bool:
        """True at SHED: queued low-priority work is being dropped."""
        return self.level >= SHED

    @property
    def level_name(self) -> str:
        return LEVEL_NAMES[self.level]

    # -- state machine -----------------------------------------------------

    def update(self, clock_s: float, queue_frac: float, memory_frac: float) -> int:
        """Feed one observation; returns the (possibly new) level.

        Pressure is the worse of the two signals, queue and memory
        fullness.  Escalation is immediate (pressure above
        ``shed_enter`` jumps NORMAL -> SHED in one step — overload does
        not wait); recovery steps down one level at a time through the
        exit thresholds.
        """
        if clock_s > self._last_clock_s:
            self.level_seconds[self.level] += clock_s - self._last_clock_s
            self._last_clock_s = clock_s
        p = max(queue_frac, memory_frac)
        self.pressure = p
        policy = self.policy
        new = self.level
        if p >= policy.shed_enter:
            new = SHED
        elif self.level == SHED:
            if p <= policy.degrade_exit:
                new = NORMAL
            elif p <= policy.shed_exit:
                new = DEGRADED
        elif p >= policy.degrade_enter:
            new = DEGRADED
        elif self.level == DEGRADED and p <= policy.degrade_exit:
            new = NORMAL
        if new != self.level:
            self.transitions.append(
                BrownoutTransition(
                    clock_s=clock_s, from_level=self.level, to_level=new, pressure=p
                )
            )
            self.level = new
        return self.level
