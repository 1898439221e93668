"""Execution context binding a device, its memory, cost model and timeline.

A :class:`GPUContext` is the object algorithms and primitives operate on:
primitives submit :class:`~repro.gpusim.kernel.KernelStats` records and
allocate device arrays through it; algorithms open phases on it; the
bench harness reads simulated times and memory peaks from it afterwards.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Iterator, Optional

import numpy as np

from ..cancel import current_token
from ..obs.session import current_session
from .costmodel import CostModel
from .device import A100, DeviceSpec
from .kernel import KernelRecord, KernelStats
from .memory import BufferPool, DeviceMemory
from .profiler import Profiler
from .timeline import PhaseTimeline


class GPUContext:
    """All mutable state of one simulated device execution.

    Parameters
    ----------
    device:
        The :class:`DeviceSpec` to simulate (default: A100).
    mem_capacity:
        Override for the simulated memory capacity in bytes.  ``None``
        uses the device's physical capacity; pass e.g. ``0`` -> unlimited
        via ``enforce_capacity=False``.
    enforce_capacity:
        When False (default), allocations never raise OOM — convenient
        for scaled-down experiments while still tracking peaks.
    seed:
        Seed for the context RNG (used by the bucket-chain partitioner to
        simulate atomic non-determinism).
    trace:
        An explicit :class:`~repro.obs.session.TraceSession` to report
        into.  ``None`` (default) picks up the active session if one is
        installed (``with TraceSession(): ...``); tracing stays fully
        disabled otherwise.
    fault_plan:
        A :class:`~repro.faults.FaultPlan` to apply to this context.
        Transient kernel faults are injected at :meth:`submit` and
        recovered by retry-with-simulated-backoff (faulted attempts and
        backoff are charged to the timeline and traced as ``retry``
        spans); ``capacity_frac`` shrinks and *enforces* the simulated
        memory capacity so allocations feel OOM pressure.  Injection
        draws come from a private per-site stream — never from ``rng`` —
        so relational results are bit-identical with and without faults.
    fault_site:
        Stable site name for the fault-injection stream (defaults to
        ``"gpu"``; the cluster layer passes ``"gpu<d>"`` per device).
    cancel_token:
        A :class:`~repro.cancel.CancellationToken` checked at every
        kernel-submission boundary and charged with each kernel's
        simulated seconds (retries included).  The default picks up the
        ambient token installed by
        :meth:`CancellationToken.activated <repro.cancel.CancellationToken.activated>`
        if one is active; pass ``None`` explicitly to opt a context out
        (the cluster layer does — superstep boundaries charge the
        barrier-synchronous maximum instead of per-device sums).

    Submit kernels inside phases; the context accumulates simulated
    time and a per-phase breakdown:

    >>> from repro.gpusim import GPUContext, KernelStats
    >>> ctx = GPUContext()
    >>> with ctx.phase("match"):
    ...     seconds = ctx.submit(
    ...         KernelStats(name="probe", items=1 << 20, seq_read_bytes=8 << 20),
    ...         phase="match")
    >>> seconds > 0 and ctx.elapsed_seconds == seconds
    True
    >>> list(ctx.timeline.breakdown())
    ['match']
    """

    #: Sentinel: pick up the ambient cancellation token at construction.
    AMBIENT = object()

    def __init__(
        self,
        device: DeviceSpec = A100,
        mem_capacity: Optional[int] = None,
        enforce_capacity: bool = False,
        seed: Optional[int] = None,
        trace=None,
        fault_plan=None,
        fault_site: str = "gpu",
        cancel_token=AMBIENT,
    ):
        self.device = device
        capacity = mem_capacity if mem_capacity is not None else device.global_mem_bytes
        limit = capacity if enforce_capacity else None
        self.fault_plan = fault_plan
        self.faults = None
        if fault_plan is not None:
            self.faults = fault_plan.injector(fault_site)
            injected = fault_plan.capacity_bytes(device)
            if injected is not None:
                limit = injected if limit is None else min(limit, injected)
        self.trace = trace if trace is not None else current_session()
        # The pool mirrors its hit/miss counters into the trace session
        # as pool.* metrics (satellite of the tiering work: cache-layer
        # behavior must be visible in traces, not only on the objects).
        self.mem = DeviceMemory(limit, pool=BufferPool(sink=self.trace))
        self.cost = CostModel(device)
        self.cancel_token = (
            current_token() if cancel_token is GPUContext.AMBIENT else cancel_token
        )
        self.timeline = PhaseTimeline(trace=self.trace)
        self.profiler = Profiler(device)
        self._seed = seed
        self._rng: Optional[np.random.Generator] = None

    @property
    def rng(self) -> np.random.Generator:
        """The context RNG, created from ``seed`` on first access.

        Only the bucket-chain partitioner draws from it, and creating a
        generator costs most of a context's construction.
        """
        if self._rng is None:
            self._rng = np.random.default_rng(self._seed)
        return self._rng

    @rng.setter
    def rng(self, rng) -> None:
        self._rng = rng

    # -- kernel submission ---------------------------------------------------

    def submit(self, stats: KernelStats, phase: Optional[str] = None, **extra) -> float:
        """Account one simulated kernel; returns its simulated seconds.

        With a fault plan attached, the kernel may transiently fault:
        each failed attempt re-charges the kernel's full time plus an
        exponential simulated backoff (kernels are idempotent, so the
        retry re-executes from the same inputs), then the successful
        attempt lands as usual.  The returned seconds are those of the
        successful attempt only; recovery time is visible on the
        timeline, the trace and the ``fault_*`` counters.

        With a cancellation token attached, the token is checked before
        the kernel launches and charged with its simulated seconds after
        it lands; each fault retry re-charges and re-checks the token,
        so a retry storm cannot run a query past its deadline unchecked.
        """
        token = self.cancel_token
        if token is not None:
            token.check(f"kernel:{stats.name}")
        stats.validate()
        seconds = self.cost.time(stats)
        if self.faults is not None:
            failures = self.faults.kernel_faults(stats.name)
            for attempt in range(failures):
                backoff = self.fault_plan.backoff_seconds(attempt)
                lost = seconds + backoff
                retry_stats = KernelStats(
                    name=f"retry:{stats.name}", launches=stats.launches
                )
                retry = KernelRecord(
                    stats=retry_stats,
                    seconds=lost,
                    phase=phase or "",
                    extra={"fault": "transient-kernel", "attempt": attempt + 1},
                )
                if self.trace is not None:
                    with self.trace.span(
                        f"retry:{stats.name}",
                        category="retry",
                        attempt=attempt + 1,
                        backoff_s=backoff,
                    ):
                        self.timeline.add(retry)
                        self.profiler.record(retry)
                        self.trace.record_kernel(retry, self.device)
                    self.trace.count("fault_kernel_retries")
                    self.trace.count("fault_retry_seconds", lost)
                    if attempt == 0:
                        self.trace.count("faults_injected_kernel")
                else:
                    self.timeline.add(retry)
                    self.profiler.record(retry)
                if token is not None:
                    # The retry's lost time counts against the deadline,
                    # and the next attempt re-checks the token.
                    token.charge(lost)
                    token.check(f"retry:{stats.name}")
        record = KernelRecord(stats=stats, seconds=seconds, phase=phase or "", extra=extra)
        self.timeline.add(record)
        self.profiler.record(record)
        if self.trace is not None:
            self.trace.record_kernel(record, self.device)
        if token is not None:
            token.charge(seconds)
        return seconds

    def submit_many(self, stats_list, phase: Optional[str] = None) -> float:
        """Account a batch of kernels in one call; returns total seconds.

        Semantically identical to submitting each record in order, but
        validation, cost evaluation and timeline/profiler bookkeeping are
        amortized across the batch.  Repeats of the *same*
        :class:`KernelStats` object (an LSD sort charging one identical
        kernel per pass) are costed once.  With a fault plan attached the
        batch falls back to per-kernel :meth:`submit` so injection sites
        and retry accounting stay unchanged.
        """
        if self.faults is not None:
            return sum(self.submit(stats, phase=phase) for stats in stats_list)
        # One cooperative check per batch: the batch is one submission
        # boundary, mirroring a single multi-kernel graph launch.
        if self.cancel_token is not None:
            self.cancel_token.check("kernel-batch")
        records = []
        prev: Optional[KernelStats] = None
        prev_seconds = 0.0
        total = 0.0
        phase_name = phase or ""
        for stats in stats_list:
            if stats is prev:
                seconds = prev_seconds
            else:
                stats.validate()
                seconds = self.cost.time(stats)
                prev, prev_seconds = stats, seconds
            total += seconds
            records.append(KernelRecord(stats=stats, seconds=seconds, phase=phase_name))
        self.timeline.add_many(records)
        self.profiler.record_many(records)
        if self.trace is not None:
            for record in records:
                self.trace.record_kernel(record, self.device)
        if self.cancel_token is not None:
            self.cancel_token.charge(total)
        return total

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Open an accounting phase for both time and memory peaks."""
        self.mem.set_phase(name)
        try:
            with self.timeline.phase(name):
                yield
        finally:
            self.mem.set_phase(None)

    # -- observability hooks ---------------------------------------------------

    def count(self, counter: str, value: float = 1.0) -> None:
        """Increment a named trace counter; no-op when tracing is off."""
        if self.trace is not None:
            self.trace.count(counter, value)

    def trace_span(self, name: str, category: str = "span", **args):
        """A span on the active trace, or a null context when off."""
        if self.trace is None:
            return nullcontext()
        return self.trace.span(name, category, **args)

    # -- conveniences ----------------------------------------------------------

    @property
    def elapsed_seconds(self) -> float:
        return self.timeline.total_seconds()

    def fork(self, seed: Optional[int] = None) -> "GPUContext":
        """A fresh context on the same device (new memory/timeline)."""
        return GPUContext(
            device=self.device, seed=seed, trace=self.trace,
            fault_plan=self.fault_plan, cancel_token=self.cancel_token,
        )
