"""The kernel ledger: everything the simulator shows, cell by cell.

Each cell of a canonical grid runs one join, group-by, staged or
resilient run, query or fold on fixed inputs and hashes everything the
simulator shows of it:

* every kernel record in submit order, on every device context of the
  run (the caller's, a ladder's or stager's, each shard's): its context,
  name, phase, every :class:`~repro.gpusim.kernel.KernelStats` field,
  seconds as ``float.hex`` and ``extra``;
* every injected fault event;
* the trace session's span tree and counters (except the host-side
  buffer pool's ``pool.*``);
* every context's peak and phase-peak bytes;
* the result: output bits (names, dtypes, bytes, row order), phase
  seconds, peaks, recovery attempts, ``num_chunks``/``num_blocks`` and a
  sharded run's cluster steps, per-device spans and clock; or, for a run
  that refuses, the typed error class with its requested and in-use
  bytes.

Kernel records are hashed exactly.  Every other float is a sum the
interpreter may round differently (Python 3.12's ``sum`` compensates),
so it is hashed at eight significant digits, or exactly when integral.

The committed record ``kernel_ledger.json`` maps each cell to its hash.
A capacity-boundary cell (a device sized at a run's peak, or one byte
under it) also stores that capacity, measured when the record was
written; a check never re-measures it, so a peak that grows fails.

Regenerate the record only for a declared change to what the simulator
shows, and list the changed cells in CHANGES.md::

    PYTHONPATH=src python -m tests.kernel_ledger --write

Without ``--write`` the module checks the record and prints the names of
the cells that changed.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, Optional
from unittest import mock

import numpy as np

import repro.aggregation.out_of_core as groupby_ooc
import repro.joins.out_of_core as join_ooc
from repro.aggregation import AggSpec, GroupByConfig, OutOfCoreGroupBy
from repro.aggregation.base import fold_groups
from repro.aggregation.out_of_core import estimate_groupby_footprint
from repro.aggregation.partitioned_groupby import PartitionedGroupBy
from repro.aggregation.planner import make_groupby_algorithm
from repro.aggregation.sort_groupby import SortGroupBy
from repro.cluster import ClusterContext
from repro.errors import ReproError
from repro.faults import FaultPlan, resilient_group_by, resilient_join
from repro.faults.plan import FaultInjector
from repro.gpusim import A100, GPUContext, KernelStats
from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import DeviceMemory
from repro.gpusim.timeline import PhaseTimeline
from repro.joins import NonPartitionedHashJoin, OutOfCoreJoin
from repro.joins.base import JoinConfig
from repro.joins.out_of_core import estimate_join_footprint
from repro.joins.planner import make_algorithm
from repro.obs.session import TraceSession
from repro.primitives.grouping import group_identify
from repro.query.executor import execute, run_group_by, run_join
from repro.query.plan import Aggregate, Join, Project, Scan
from repro.relational.relation import Relation
from repro.workloads import JoinWorkloadSpec, generate_join_workload
from repro.workloads.groupby_gen import GroupByWorkloadSpec, generate_groupby_workload

RECORD = Path(__file__).with_name("kernel_ledger.json")

#: The fault seeds of the CI fault matrix.
FAULT_SEEDS = (3, 17, 123)


# -- what a cell shows ---------------------------------------------------------


def _float(value: float):
    value = float(value)
    if value.is_integer() and abs(value) < 2**53:
        return int(value)
    return f"{value:.7e}"


def _array(array: np.ndarray):
    array = np.ascontiguousarray(array)
    return [array.dtype.str, array.size, hashlib.sha256(array.tobytes()).hexdigest()[:20]]


def _canon(value):
    """A JSON-able view of *value*; unknown types raise, so nothing is
    hashed by its address."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return _float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return _array(value)
    if isinstance(value, dict):
        return [[str(key), _canon(item)] for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    if isinstance(value, type):
        return value.__name__
    if isinstance(value, Relation):
        return ["Relation", value.name, value.key, _canon(value.columns())]
    if isinstance(value, DeviceSpec):
        return value.name
    if isinstance(value, TraceSession):
        return None  # the ledger's own session, hashed on its own
    if isinstance(value, ClusterContext):
        return _cluster(value)
    if is_dataclass(value):
        view = [type(value).__name__]
        view += [[f.name, _canon(getattr(value, f.name))] for f in fields(value)]
        if hasattr(value, "total_seconds"):
            view.append(["total_seconds", _canon(value.total_seconds)])
        return view
    raise TypeError(f"no ledger view for {type(value).__name__}")


def _events(session: TraceSession):
    return [
        [e.name, e.category, _float(e.start_s), None if e.end_s is None else _float(e.end_s),
         e.parent, _canon(e.args), e.device]
        for e in session.events
    ]


def _counters(session: TraceSession):
    counters = session.metrics.as_dict(derived=False)
    return [[name, _float(v)] for name, v in counters.items() if not name.startswith("pool.")]


def _cluster(cluster: ClusterContext):
    """The cluster clock and every superstep: a sharded run traces its
    devices into private sessions, not the caller's."""
    steps = [
        [step.name, step.kind, _float(step.start_s), _float(step.seconds),
         _float(step.recovery_seconds), _canon(step.matrix), _canon(step.transfers),
         [[_events(session), _counters(session)] for session in step.sessions]]
        for step in cluster.steps
    ]
    return ["cluster", cluster.num_devices, _float(cluster.total_seconds), steps]


def _kernel(context: int, record):
    stats = [
        float.hex(value) if isinstance(value, float) else value
        for value in (getattr(record.stats, f.name) for f in fields(KernelStats))
    ]
    return [context, record.phase, stats, float.hex(record.seconds), _canon(record.extra)]


def _error(error: ReproError):
    return [type(error).__name__, str(error)] + [
        _canon(getattr(error, name, None))
        for name in ("requested", "in_use", "top_live", "attempts")
    ]


@contextmanager
def recording():
    """Every device context, kernel record and fault event of the block."""
    log = {"contexts": [], "kernels": [], "faults": []}
    index: Dict[int, int] = {}
    init, add, add_many, note = (
        GPUContext.__init__, PhaseTimeline.add, PhaseTimeline.add_many, FaultInjector._note
    )

    def spy_init(ctx, *args, **kwargs):
        init(ctx, *args, **kwargs)
        index[id(ctx.timeline)] = len(log["contexts"])
        log["contexts"].append(ctx)

    def spy_add(timeline, record):
        add(timeline, record)
        log["kernels"].append(_kernel(index.get(id(timeline), -1), record))

    def spy_add_many(timeline, records):
        add_many(timeline, records)
        log["kernels"].extend(_kernel(index.get(id(timeline), -1), r) for r in records)

    def spy_note(injector, kind, detail, attempts=1):
        note(injector, kind, detail, attempts)
        log["faults"].append([kind, injector.site, detail, attempts])

    with mock.patch.object(GPUContext, "__init__", spy_init), \
            mock.patch.object(PhaseTimeline, "add", spy_add), \
            mock.patch.object(PhaseTimeline, "add_many", spy_add_many), \
            mock.patch.object(FaultInjector, "_note", spy_note):
        yield log


@dataclass(frozen=True)
class Observed:
    """One cell's hash, and the facts the self-checks read."""

    digest: str
    refused: bool
    staged: bool
    kernel_faults: int
    #: ``num_chunks`` or ``num_blocks`` of a staged run.
    pieces: Optional[int]


def observe(run: Callable[[], object]) -> Observed:
    """Run *run* and hash everything the simulator shows of it."""
    with recording() as log, TraceSession("ledger") as session:
        try:
            result = run()
            outcome = ["result", _canon(result)]
        except ReproError as error:
            result, outcome = None, ["error", _error(error)]
    memory = [
        [ctx.device.name, ctx.faults.site if ctx.faults is not None else None,
         ctx.mem.capacity_bytes, ctx.mem.peak_bytes, _canon(ctx.mem.phase_peaks),
         ctx.mem.current_bytes]
        for ctx in log["contexts"]
    ]
    view = [log["kernels"], log["faults"], memory, _events(session), _counters(session), outcome]
    digest = hashlib.sha256(json.dumps(view, separators=(",", ":")).encode()).hexdigest()
    recovery = getattr(result, "recovery", None)
    return Observed(
        digest=digest[:20],
        refused=result is None,
        staged=bool(recovery and recovery.attempts[-1].startswith("OOC[")),
        kernel_faults=sum(1 for fault in log["faults"] if fault[0] == "kernel"),
        pieces=getattr(result, "num_chunks", None) or getattr(result, "num_blocks", None),
    )


# -- cells -----------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    """One run of the grid.

    ``run`` takes the cell's capacity in bytes when ``boundary`` is set:
    ``boundary()`` measures it when the record is written, and a check
    reads it back from the record.  ``faults`` cells must inject a
    kernel fault; ``expect`` is ``"refuses"``, ``"completes"`` or
    ``"staged"``.
    """

    run: Callable
    boundary: Optional[Callable[[], int]] = None
    faults: bool = False
    expect: Optional[str] = None


def capacity_plan(capacity: Optional[int], seed: int, rate: float = 0.3) -> FaultPlan:
    """Kernel faults on an A100 of *capacity* bytes (``None``: unbounded)."""
    frac = None if capacity is None else (capacity + 0.5) / A100.global_mem_bytes
    return FaultPlan(seed=seed, kernel_fault_rate=rate, capacity_frac=frac)


def _boundary_cells(cells, prefix, run, peak, seed):
    """``unbounded``, ``fits`` (a device exactly at *peak*) and ``oom``
    (one byte less), each under kernel faults drawn from *seed*."""
    cells[f"{prefix}/unbounded"] = Cell(lambda: run(capacity_plan(None, seed)), faults=True)
    cells[f"{prefix}/fits"] = Cell(
        lambda cap: run(capacity_plan(cap, seed)), boundary=peak, faults=True,
        expect="completes")
    cells[f"{prefix}/oom"] = Cell(
        lambda cap: run(capacity_plan(cap, seed)), boundary=lambda: peak() - 1,
        expect="refuses")


# -- the stager and the ladder ---------------------------------------------------

#: A small simulated device makes capacity fractions bite at test scale.
STAGING_DEVICE = A100.with_overrides(global_mem_bytes=1 << 20)
STAGING_AGGREGATES = [AggSpec("v1", "sum"), AggSpec("v2", "max"), AggSpec("v1", "mean")]

#: No plan, then kernel faults alone and under capacity pressure (which
#: the stagers strip) at each fault seed.
STAGING_PLANS = {"no-faults": None}
for _seed in FAULT_SEEDS:
    STAGING_PLANS[f"kernel-{_seed}"] = FaultPlan(seed=_seed, kernel_fault_rate=0.3)
    STAGING_PLANS[f"kernel+capacity-{_seed}"] = FaultPlan(
        seed=_seed, kernel_fault_rate=0.3, capacity_frac=0.05)

#: (footprint divisor, minimum pieces) of the stager cells.
JOIN_STAGINGS = [(None, 1), (None, 2), (2, 1), (8, 1), (1000, 1)]
GROUPBY_STAGINGS = [(1, 2), (2, 1), (8, 1), (256, 1)]

#: Capacity fractions of STAGING_DEVICE: none, loose (no OOM), mild (the
#: group-by's PART-AGG rung fits), harsh (both operators stage) and
#: exhausted (the join stages 256 chunks, the group-by gives up).
LADDER_CAPACITIES = {"none": None, "loose": 0.5, "mild": 0.1, "harsh": 0.02,
                     "exhausted": 1e-4}

#: The kernel fault rate of the fault cells.  At site ``gpu``, seeds 3
#: and 17 draw no fault in their first nine kernels at 0.3, so a short
#: run (HASH-AGG, NPJ) under them would hash the same as a plain one.
FAULT_RATE = 0.5

#: Without kernel faults the fault seed draws nothing; with them, each
#: seed of the fault matrix at 0.3, where the group-bys' short rungs draw
#: none at seeds 3 and 17, so the group-by ladder also runs at FAULT_RATE.
LADDER_FAULTS = [(3, 0.0)] + [(seed, 0.3) for seed in FAULT_SEEDS]
GROUPBY_LADDER_FAULTS = LADDER_FAULTS + [(seed, FAULT_RATE) for seed in FAULT_SEEDS]
LADDER_GROUPBYS = ["HASH-AGG", "SORT-AGG", "PART-AGG"]


@lru_cache(maxsize=None)
def staging_relations():
    return generate_join_workload(
        JoinWorkloadSpec(r_rows=2048, s_rows=4096, r_payload_columns=2,
                         s_payload_columns=2, seed=5))


@lru_cache(maxsize=None)
def staging_groupby_workload():
    spec = GroupByWorkloadSpec(rows=1 << 14, groups=8192, value_columns=2, seed=5)
    return generate_groupby_workload(spec)


def _injects(plan: Optional[FaultPlan]) -> bool:
    return plan is not None and plan.kernel_fault_rate > 0


def ladder_plan(capacity: str, seed: int, rate: float) -> FaultPlan:
    return FaultPlan(seed=seed, kernel_fault_rate=rate,
                     capacity_frac=LADDER_CAPACITIES[capacity])


def _staging_cells(cells):
    def join_stager(plan, divisor, min_chunks):
        r, s = staging_relations()
        budget = None if divisor is None else estimate_join_footprint(r, s) // divisor
        # PHJ-UM's bucket-chain partitioner draws from each chunk's seed.
        return OutOfCoreJoin(make_algorithm("PHJ-UM"), device_budget_bytes=budget,
                             fault_plan=plan, min_chunks=min_chunks).join(
            r, s, device=A100, seed=7)

    def groupby_stager(plan, divisor, min_blocks):
        keys, values = staging_groupby_workload()
        budget = estimate_groupby_footprint(keys, values) // divisor
        return OutOfCoreGroupBy(device_budget_bytes=budget, fault_plan=plan,
                                min_blocks=min_blocks).group_by(
            keys, dict(values), STAGING_AGGREGATES, device=A100, seed=7)

    for plan_name, plan in sorted(STAGING_PLANS.items()):
        for divisor, pieces in JOIN_STAGINGS:
            cells[f"staging/join/{plan_name}/{divisor}-{pieces}"] = Cell(
                lambda p=plan, d=divisor, m=pieces: join_stager(p, d, m),
                faults=_injects(plan))
        for divisor, pieces in GROUPBY_STAGINGS:
            cells[f"staging/group-by/{plan_name}/{divisor}-{pieces}"] = Cell(
                lambda p=plan, d=divisor, m=pieces: groupby_stager(p, d, m),
                faults=_injects(plan))
    cells["staging/group-by/over-256-blocks"] = Cell(
        lambda: groupby_stager(None, 300, 1), expect="refuses")
    for plan_name in ("no-faults", "kernel+capacity-3"):
        plan = STAGING_PLANS[plan_name]
        cells[f"staging/group-by/one-block/{plan_name}"] = Cell(
            lambda p=plan: OutOfCoreGroupBy(fault_plan=p).group_by(
                staging_groupby_workload()[0], dict(staging_groupby_workload()[1]),
                STAGING_AGGREGATES, device=A100, seed=7),
            faults=_injects(plan))

    def join_ladder(capacity, seed, rate):
        r, s = staging_relations()
        return resilient_join(r, s, algorithm="PHJ-OM", device=STAGING_DEVICE, seed=0,
                              fault_plan=ladder_plan(capacity, seed, rate))

    def groupby_ladder(algorithm, capacity, seed, rate):
        keys, values = staging_groupby_workload()
        return resilient_group_by(keys, dict(values), STAGING_AGGREGATES,
                                  algorithm=algorithm, device=STAGING_DEVICE, seed=0,
                                  fault_plan=ladder_plan(capacity, seed, rate))

    for capacity in sorted(LADDER_CAPACITIES):
        for seed, rate in LADDER_FAULTS:
            cells[f"ladder/join/{capacity}/{seed}-{rate}"] = Cell(
                lambda c=capacity, f=seed, k=rate: join_ladder(c, f, k), faults=rate > 0)
        for seed, rate in GROUPBY_LADDER_FAULTS:
            for algorithm in LADDER_GROUPBYS:
                # An exhausted group-by refuses before its first kernel.
                cells[f"ladder/group-by/{algorithm}/{capacity}/{seed}-{rate}"] = Cell(
                    lambda a=algorithm, c=capacity, f=seed, k=rate: groupby_ladder(a, c, f, k),
                    faults=rate == FAULT_RATE and capacity != "exhausted")

    def estimate_fits(run):
        # An observed OOM re-plans with more passes even where the
        # footprint estimate says the input fits: the ladder's floor of 2.
        with mock.patch.object(join_ooc, "estimate_join_footprint", lambda *a: 1), \
                mock.patch.object(groupby_ooc, "estimate_groupby_footprint",
                                  lambda *a: 1):
            return run("harsh", 3, 0.3)

    cells["ladder/join/estimate-fits"] = Cell(
        lambda: estimate_fits(join_ladder), faults=True, expect="staged")
    cells["ladder/group-by/estimate-fits"] = Cell(
        lambda: estimate_fits(lambda *a: groupby_ladder("HASH-AGG", *a)), faults=True,
        expect="staged")


# -- wide joins ------------------------------------------------------------------

#: The wide joins' algorithms.
WIDE_JOINS = ["NPJ", "PHJ-OM", "PHJ-OM/gfur", "PHJ-UM", "SMJ-OM", "SMJ-UM"]

#: Payload schemas: mixed item sizes, and S payloads that collide with an
#: R payload (``a`` -> ``a_s``) and with the key (``key`` -> ``key_s``).
WIDE_R_PAYLOADS = (("a", np.int64), ("b", np.int32), ("c", np.int64))
WIDE_S_PAYLOADS = (("a", np.int32), ("key", np.int64), ("d", np.int32))

#: case -> (JoinConfig options, how S keys relate to R's).
WIDE_CASES = {
    # Two radix passes per partitioning, most probes match.
    "mixed": (dict(partition_bits=10, bucket_tuples=64), "match"),
    # Skips both eagerly transformed first payloads (``a`` and ``a_s``).
    "projection": (
        dict(tuples_per_partition=64, bucket_tuples=64, projection=("c", "b", "key_s", "d")),
        "match",
    ),
    "empty": (dict(tuples_per_partition=64, bucket_tuples=64), "miss"),
    # Non-unique build keys: virtual IDs repeat within each side's map.
    "duplicates": (dict(tuples_per_partition=64, bucket_tuples=64), "duplicates"),
}

KEY_DTYPES = {"int32": np.int32, "int64": np.int64}


def _payload_columns(rng, payloads, rows):
    return [(name, rng.integers(-(1 << 30), 1 << 30, rows).astype(t)) for name, t in payloads]


@lru_cache(maxsize=None)
def wide_relations(key_dtype: str, keys: str, seed: int):
    rng = np.random.default_rng(seed)
    n_r, n_s = 600, 1400
    if keys == "duplicates":
        r_keys = rng.integers(0, 200, n_r)
    else:
        r_keys = rng.permutation(3 * n_r)[:n_r]  # unique, sparse
    s_keys = rng.choice(r_keys, n_s)
    if keys == "miss":
        s_keys = s_keys + 10 * n_r
    else:
        s_keys[::7] = 10 * n_r  # some probes miss
    dtype = KEY_DTYPES[key_dtype]
    r = Relation([("id", r_keys.astype(dtype))] + _payload_columns(rng, WIDE_R_PAYLOADS, n_r),
                 key="id", name="R")
    s = Relation([("fk", s_keys.astype(dtype))] + _payload_columns(rng, WIDE_S_PAYLOADS, n_s),
                 key="fk", name="S")
    return r, s


def _run_join(name, options, r, s, plan=None):
    algorithm = make_algorithm(name, JoinConfig(**options))
    return algorithm.join(r, s, ctx=GPUContext(seed=5, fault_plan=plan))


def _peak(run) -> Callable[[], int]:
    return lambda: run(None).peak_aux_bytes


def _wide_cells(cells):
    for name in WIDE_JOINS:
        for dtype in KEY_DTYPES:
            for case, (options, keys) in WIDE_CASES.items():
                cells[f"wide/{name}/{dtype}/{case}"] = Cell(
                    lambda n=name, o=options, d=dtype, k=keys, c=case:
                        _run_join(n, o, *wide_relations(d, k, len(c))))
            options = WIDE_CASES["mixed"][0]

            def run(plan, n=name, o=options, d=dtype):
                return _run_join(n, o, *wide_relations(d, "match", len(n)), plan)

            _boundary_cells(cells, f"wide/{name}/{dtype}/faults", run, _peak(run), seed=1)


# -- narrow joins ----------------------------------------------------------------

NARROW_JOINS = ["PHJ-OM", "PHJ-UM", "SMJ-OM", "SMJ-UM"]

#: payload case -> (R payload dtypes, S payload dtypes); item sizes differ
#: per side, and S's payload collides with the key's output name.
NARROW_PAYLOADS = {
    "none": ((), ()),
    "both": ((("a", np.int64),), (("key", np.int32),)),
    "r-only": ((("a", np.int32),), ()),
}


@lru_cache(maxsize=None)
def narrow_relations(key_dtype: str, payloads: str, duplicated: bool, seed: int):
    rng = np.random.default_rng(seed)
    n_r, n_s = 600, 1400
    if duplicated:
        r_keys = rng.integers(0, 200, n_r)
    else:
        r_keys = rng.permutation(3 * n_r)[:n_r]  # unique, sparse
    s_keys = rng.choice(r_keys, n_s)
    s_keys[::7] = 10 * n_r  # some probes miss
    r_payloads, s_payloads = NARROW_PAYLOADS[payloads]
    dtype = KEY_DTYPES[key_dtype]
    r = Relation([("id", r_keys.astype(dtype))] + _payload_columns(rng, r_payloads, n_r),
                 key="id", name="R")
    s = Relation([("fk", s_keys.astype(dtype))] + _payload_columns(rng, s_payloads, n_s),
                 key="fk", name="S")
    return r, s


def _narrow_options(**options):
    return dict(tuples_per_partition=64, bucket_tuples=64, **options)


def _narrow_cells(cells):
    for name in NARROW_JOINS:
        for dtype in KEY_DTYPES:
            for payloads in NARROW_PAYLOADS:
                for duplicated in (False, True):
                    for hashed in (False, True):
                        cell = (f"narrow/{name}/{dtype}/{payloads}/"
                                f"{'duplicated' if duplicated else 'unique'}/"
                                f"{'hashed' if hashed else 'raw'}")
                        cells[cell] = Cell(
                            lambda n=name, d=dtype, p=payloads, u=duplicated, h=hashed:
                                _run_join(n, _narrow_options(hashed_partitioning=h),
                                          *narrow_relations(d, p, u, len(p))))

            def run(plan, n=name, d=dtype):
                return _run_join(n, _narrow_options(partition_bits=10),
                                 *narrow_relations(d, "both", False, len(n)), plan)

            _boundary_cells(cells, f"narrow/{name}/{dtype}/faults", run, _peak(run), seed=1)


# -- NPJ -------------------------------------------------------------------------


@lru_cache(maxsize=None)
def npj_relations(key_dtype: str, duplicated: bool, payloads: int, seed: int):
    rng = np.random.default_rng(seed)
    n_r, n_s = 700, 1500
    if duplicated:
        r_keys = rng.integers(0, 150, n_r)
    else:
        r_keys = rng.permutation(4 * n_r)[:n_r]
    s_keys = rng.choice(r_keys, n_s)
    s_keys[::9] = 8 * n_r  # some probes miss
    dtype = KEY_DTYPES[key_dtype]
    top = min(int(np.iinfo(dtype).max), 1 << 40)
    r_keys[-1] = s_keys[0] = top  # the widest key the dtype holds
    r = Relation(
        [("id", r_keys.astype(dtype))]
        + [(f"r{i}", rng.integers(-(1 << 30), 1 << 30, n_r).astype(np.int32))
           for i in range(payloads)],
        key="id", name="R")
    s = Relation(
        [("fk", s_keys.astype(dtype))]
        + [(f"s{i}", rng.integers(-(1 << 30), 1 << 30, n_s).astype(np.int64))
           for i in range(payloads)],
        key="fk", name="S")
    return r, s


def npj_tiny_relations(r_rows: int):
    r = Relation([("id", np.arange(r_rows, dtype=np.int32))], key="id", name="R")
    s = Relation([("fk", np.array([0, 3, 0], dtype=np.int32))], key="fk", name="S")
    return r, s


def npj_join(r, s, plan=None):
    return NonPartitionedHashJoin(JoinConfig()).join(
        r, s, ctx=GPUContext(seed=5, fault_plan=plan))


def _npj_execute(key_dtype, duplicated):
    """``_execute`` alone on bare key arrays, which may be uint32."""
    r, s = npj_relations("int64", duplicated, 0, 4)
    r_keys, s_keys = r.key_values.astype(key_dtype), s.key_values.astype(key_dtype)
    ctx = GPUContext(seed=5)
    out_key, maps, transform = NonPartitionedHashJoin(JoinConfig())._execute(
        ctx, SimpleNamespace(num_rows=int(r_keys.size), key_values=r_keys),
        SimpleNamespace(num_rows=int(s_keys.size), key_values=s_keys), False)
    return [out_key, transform] + [
        [side, m.label, m.data, rest] for side, (m, *rest) in sorted(maps.items())]


def _npj_cells(cells):
    for dtype in KEY_DTYPES:
        for duplicated in (False, True):
            for payloads in (1, 3):
                cells[f"npj/{dtype}/{'duplicated' if duplicated else 'unique'}/{payloads}"] = (
                    Cell(lambda d=dtype, u=duplicated, p=payloads:
                         npj_join(*npj_relations(d, u, p, p))))
        cells[f"npj/{dtype}/faults"] = Cell(
            lambda d=dtype: npj_join(*npj_relations(d, True, 3, 9),
                                 FaultPlan(seed=1, kernel_fault_rate=0.3)),
            faults=True)
    for r_rows in (0, 1):
        cells[f"npj/tiny/{r_rows}"] = Cell(lambda n=r_rows: npj_join(*npj_tiny_relations(n)))
    for dtype in (np.int32, np.int64, np.uint32):
        for duplicated in (False, True):
            cells[f"npj/execute/{np.dtype(dtype).name}/"
                  f"{'duplicated' if duplicated else 'unique'}"] = Cell(
                lambda d=dtype, u=duplicated: _npj_execute(d, u))


# -- group-by strategies ---------------------------------------------------------

GROUPBYS = ["HASH-AGG", "PART-AGG", "PART-AGG/gfur", "SORT-AGG", "SORT-AGG/gfur"]

#: Every op over int64, float32, bool and uint16 columns, two int64
#: columns sharing a gather item size, sum and mean of one column, an
#: exact-sum column past 2**53 (the limb path), two count columns and a
#: repeated aggregate.
GROUPBY_AGGREGATES = [
    AggSpec("v", "sum"), AggSpec("v", "count"), AggSpec("w", "min"), AggSpec("v", "max"),
    AggSpec("w", "mean"), AggSpec("v", "mean"), AggSpec("x", "sum"), AggSpec("b", "max"),
    AggSpec("b", "sum"), AggSpec("w", "count"), AggSpec("u", "min"), AggSpec("w", "sum"),
    AggSpec("v", "sum"),
]

#: case -> (rows, key span, config); "wide" spills HASH-AGG's table past
#: shared memory, "bits9" forces a two-pass partitioning.
GROUPBY_CASES = {
    "narrow": (3000, 3500, {}),
    "wide": (20000, 1 << 20, {}),
    "bits9": (3000, 3500, {"partition_bits": 9}),
}

GROUP_KEY_DTYPES = {"int32": np.int32, "int64": np.int64, "float64": np.float64}


@lru_cache(maxsize=None)
def groupby_inputs(rows: int, span: int, key_dtype: str, seed: int):
    rng = np.random.default_rng(seed)
    keys = rng.integers(-500, span - 500, rows)
    if key_dtype == "float64":
        keys = keys + 0.25  # never a zero: both sorts agree on every key bit
    values = {
        "v": rng.integers(-(1 << 20), 1 << 20, rows).astype(np.int64),
        "w": rng.standard_normal(rows).astype(np.float32),
        "x": rng.integers(-(1 << 50), 1 << 50, rows).astype(np.int64),
        "b": rng.integers(0, 2, rows).astype(bool),
        "u": rng.integers(0, 1 << 16, rows).astype(np.uint16),
    }
    return keys.astype(GROUP_KEY_DTYPES[key_dtype]), values


def _group_by(algorithm, keys, values, aggregates, plan=None):
    return algorithm.group_by(keys, values, aggregates,
                              ctx=GPUContext(seed=5, fault_plan=plan))


@lru_cache(maxsize=None)
def memory_levels(name: str, key_dtype: str):
    """Every level of device memory in use one plain run reaches."""
    keys, values = groupby_inputs(3000, 3500, key_dtype, 11)
    levels = set()
    real = DeviceMemory._note_usage

    def note(memory):
        levels.add(memory.current_bytes)
        real(memory)

    with mock.patch.object(DeviceMemory, "_note_usage", note):
        make_groupby_algorithm(name).group_by(keys, values, GROUPBY_AGGREGATES,
                                              ctx=GPUContext(seed=5))
    return tuple(sorted(levels))


def _groupby_cells(cells):
    for name in GROUPBYS:
        for dtype in GROUP_KEY_DTYPES:
            for case, (rows, span, options) in GROUPBY_CASES.items():
                cells[f"groupby/{name}/{dtype}/{case}"] = Cell(
                    lambda n=name, o=options, r=rows, p=span, d=dtype: _group_by(
                        make_groupby_algorithm(n, GroupByConfig(**o)),
                        *groupby_inputs(r, p, d, r + p), GROUPBY_AGGREGATES))
        for label, aggregates in (("none", []), ("count", [AggSpec("v", "count")])):
            cells[f"groupby/{name}/no-values/{label}"] = Cell(
                lambda n=name, a=aggregates: _group_by(
                    make_groupby_algorithm(n), *groupby_inputs(3000, 3500, "int64", 2), a))
        # A device at, and one byte under, each level of memory in use a
        # plain run reaches, under kernel faults.
        for dtype in ("int32", "int64"):
            def run(plan, n=name, d=dtype):
                return _group_by(make_groupby_algorithm(n), *groupby_inputs(3000, 3500, d, 11),
                                 GROUPBY_AGGREGATES, plan)

            prefix = f"groupby/{name}/{dtype}/levels"
            cells[f"{prefix}/unbounded"] = Cell(
                lambda r=run: r(capacity_plan(None, 3)), faults=True)
            levels = memory_levels(name, dtype)
            for i, level in enumerate(levels):
                top = i == len(levels) - 1
                cells[f"{prefix}/{i}/at"] = Cell(
                    lambda cap, r=run: r(capacity_plan(cap, 3)), boundary=lambda lv=level: lv,
                    expect="completes" if top else None)
                cells[f"{prefix}/{i}/under"] = Cell(
                    lambda cap, r=run: r(capacity_plan(cap, 3)),
                    boundary=lambda lv=level: lv - 1, expect="refuses" if top else None)


def fold_columns(rows, rng):
    """One column per accepted dtype, at its extremes where a fold can reach them."""
    columns = {}
    for dtype in (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32):
        info = np.iinfo(dtype)
        columns[np.dtype(dtype).name] = rng.integers(
            info.min, info.max, rows, endpoint=True, dtype=dtype)
    columns["uint64"] = rng.integers(0, 1 << 50, rows).astype(np.uint64)
    columns["bool"] = rng.integers(0, 2, rows).astype(bool)
    for dtype in (np.float16, np.float32, np.float64):
        column = (rng.standard_normal(rows) * 1e3).astype(dtype)
        column[rng.integers(0, rows, 8)] = np.array(
            [np.nan, np.inf, -np.inf, -0.0, 0.0, np.nan, 1.0, -1.0], dtype=dtype)
        columns[np.dtype(dtype).name] = column
    return columns


def fold(groups):
    """Every op over every accepted dtype, folded in one pass."""
    rng = np.random.default_rng(groups)
    rows = 2000
    values = fold_columns(rows, rng)
    # int64 extremes overflow a group's sum; keep them to min/max/count.
    summable = [name for name in values if name != "int64"]
    aggregates = [AggSpec(name, op) for name in summable for op in ("sum", "mean")]
    aggregates += [AggSpec(name, op) for name in values for op in ("min", "max", "count")]
    rng.shuffle(aggregates)
    keys = rng.integers(0, groups, rows)
    with np.errstate(invalid="ignore"):
        return fold_groups(*group_identify(keys), values, aggregates)


# -- PART-AGG and SORT-AGG's priced partitionings --------------------------------

PART_AGGREGATES = [AggSpec("v", "sum"), AggSpec("v", "count"), AggSpec("w", "min"),
                   AggSpec("v", "max"), AggSpec("w", "mean")]

#: Device capacity as a fraction of the A100's: none, just room for the
#: 12000 partitioned key bytes, and too little for them.
PART_CAPACITIES = {"unbounded": None, "fits": 2.8e-7, "oom": 2e-7}


@lru_cache(maxsize=None)
def part_inputs(rows: int, seed: int):
    rng = np.random.default_rng(seed)
    keys = rng.integers(-500, 3000, rows).astype(np.int32)
    values = {
        "v": rng.integers(-(1 << 20), 1 << 20, rows).astype(np.int64),
        "w": rng.standard_normal(rows).astype(np.float32),
    }
    return keys, values


def _part_cells(cells):
    for pattern in ("gftr", "gfur"):
        for hashed in (True, False):
            for bits in range(1, 17):
                config = GroupByConfig(partition_bits=bits, hashed_partitioning=hashed)
                cells[f"part-agg/{pattern}/{'hashed' if hashed else 'raw'}/bits{bits}"] = Cell(
                    lambda c=config, p=pattern, b=bits: _group_by(
                        PartitionedGroupBy(c, p), *part_inputs(3000, b), PART_AGGREGATES))
    for bits in (1, 8, 9, 16):
        for capacity, frac in PART_CAPACITIES.items():
            plan = FaultPlan(seed=bits, kernel_fault_rate=0.3, capacity_frac=frac)
            cells[f"part-agg/faults/bits{bits}/{capacity}"] = Cell(
                lambda b=bits, p=plan: _group_by(
                    PartitionedGroupBy(GroupByConfig(partition_bits=b)),
                    *part_inputs(3000, 100 + b), PART_AGGREGATES, p),
                faults=capacity != "oom", expect="refuses" if capacity == "oom" else "completes")
    for pattern in ("gftr", "gfur"):
        for dtype in KEY_DTYPES:
            def run(plan, p=pattern, d=dtype):
                keys, values = part_inputs(3000, 7)
                return _group_by(SortGroupBy(pattern=p), keys.astype(KEY_DTYPES[d]), values,
                                 PART_AGGREGATES, plan)

            _boundary_cells(cells, f"sort-agg/{pattern}/{dtype}/resorts", run, _peak(run),
                            seed=3)


# -- every join and group-by in every mode ---------------------------------------
#
# The six joins over the three builds of GPU-Joins-Evaluation (key and
# payload widths), and the three group-bys over int32, int64 and float64
# keys, each plain, projected and fused (joins), under kernel faults at
# each seed of the fault matrix, staged by capacity pressure, and
# sharded over two and four devices.

JOINS = ["CPU", "NPJ", "PHJ-OM", "PHJ-UM", "SMJ-OM", "SMJ-UM"]
WIDTHS = {"4b4b": (np.int32, np.int32), "4b8b": (np.int32, np.int64),
          "8b8b": (np.int64, np.int64)}
AXIS_GROUPBYS = ["HASH-AGG", "PART-AGG", "SORT-AGG"]
AXIS_AGGREGATES = [AggSpec("v", "sum"), AggSpec("w", "max"), AggSpec("v", "count"),
                   AggSpec("w", "mean")]
JOIN_FUSED_AGGREGATES = [AggSpec("s1", "sum"), AggSpec("s2", "max"), AggSpec("r2", "mean")]

#: The capacity fractions that stage the joins and the group-bys.
JOIN_STAGED_FRAC = 2e-6
GROUPBY_STAGED_FRAC = 2e-7


@lru_cache(maxsize=None)
def axis_relations(width: str):
    """2^12 build rows (512 groups in ``r1``) and 2^14 probe rows, one in
    eight of which misses."""
    key_t, payload_t = WIDTHS[width]
    rng = np.random.default_rng(len(width) + int(width[0]))
    n_r, n_s = 1 << 12, 1 << 14
    r_keys = rng.permutation(2 * n_r)[:n_r]
    s_keys = rng.choice(r_keys, n_s)
    s_keys[::8] = 4 * n_r
    r = Relation([("key", r_keys.astype(key_t)),
                  ("r1", rng.integers(0, 512, n_r).astype(payload_t)),
                  ("r2", rng.integers(-(1 << 30), 1 << 30, n_r).astype(payload_t))],
                 key="key", name="R")
    s = Relation([("key", s_keys.astype(key_t)),
                  ("s1", rng.integers(-(1 << 20), 1 << 20, n_s).astype(payload_t)),
                  ("s2", rng.integers(-(1 << 30), 1 << 30, n_s).astype(payload_t))],
                 key="key", name="S")
    return r, s


@lru_cache(maxsize=None)
def axis_groupby_inputs(key_dtype: str):
    """2^14 rows into 512 groups."""
    rng = np.random.default_rng(9)
    keys = rng.integers(0, 512, 1 << 14) * 3 - 700
    if key_dtype == "float64":
        keys = keys + 0.5
    values = {"v": rng.integers(-(1 << 30), 1 << 30, 1 << 14).astype(np.int64),
              "w": rng.standard_normal(1 << 14)}
    return keys.astype(GROUP_KEY_DTYPES[key_dtype]), values


def _modes(prefix, run, cells, staged_frac):
    """The shared mode cells of one join or group-by."""
    cells[f"{prefix}/plain"] = Cell(lambda: run())
    for seed in FAULT_SEEDS:
        cells[f"{prefix}/faults-{seed}"] = Cell(
            lambda f=seed: run(fault_plan=FaultPlan(seed=f, kernel_fault_rate=FAULT_RATE)),
            faults=True)
    cells[f"{prefix}/staged"] = Cell(
        lambda: run(fault_plan=FaultPlan(seed=3, capacity_frac=staged_frac)),
        expect="staged")
    for shards in (2, 4):
        cells[f"{prefix}/shards-{shards}"] = Cell(lambda k=shards: run(shards=k))


def _axis_cells(cells):
    for name in JOINS:
        for width in WIDTHS:
            prefix = f"join/{name}/{width}"

            def run(n=name, w=width, **mode):
                return run_join(*axis_relations(w), n, seed=0, **mode)

            _modes(prefix, run, cells, JOIN_STAGED_FRAC)

            def plan(node, n=name, w=width):
                r, s = axis_relations(w)
                join = Join(Scan(r, "R"), Scan(s, "S"), algorithm=n)
                return execute(node(join), seed=0)

            cells[f"{prefix}/projected"] = Cell(
                lambda p=plan: p(lambda join: Project(join, ("r2", "s1"))))
            cells[f"{prefix}/fused"] = Cell(
                lambda p=plan: p(lambda join: Aggregate(join, "r1", JOIN_FUSED_AGGREGATES)))
    for name in AXIS_GROUPBYS:
        for dtype in GROUP_KEY_DTYPES:
            def run(n=name, d=dtype, **mode):
                keys, values = axis_groupby_inputs(d)
                return run_group_by(keys, values, AXIS_AGGREGATES, n, seed=0, **mode)

            _modes(f"group-by/{name}/{dtype}", run, cells, GROUPBY_STAGED_FRAC)


# -- the grid and the record -----------------------------------------------------


@lru_cache(maxsize=None)
def grid() -> "OrderedDict[str, Cell]":
    """Every cell, in a fixed order."""
    cells: "OrderedDict[str, Cell]" = OrderedDict()
    _staging_cells(cells)
    _wide_cells(cells)
    _narrow_cells(cells)
    _npj_cells(cells)
    _groupby_cells(cells)
    for groups in (1, 7, 400):
        cells[f"fold/{groups}"] = Cell(lambda g=groups: fold(g))
    _part_cells(cells)
    _axis_cells(cells)
    return cells


@lru_cache(maxsize=None)
def record() -> Dict[str, dict]:
    return json.loads(RECORD.read_text())


def run_cell(name: str, capacity: Optional[int] = None) -> Observed:
    cell = grid()[name]
    if cell.boundary is None:
        return observe(cell.run)
    return observe(lambda: cell.run(capacity))


@lru_cache(maxsize=None)
def checked(name: str) -> Observed:
    """Cell *name* run at the capacity its record stores."""
    return run_cell(name, record().get(name, {}).get("capacity_bytes"))


def changed_cells(names=None):
    """The cells whose hash differs from the record (or that it lacks)."""
    expected = record()
    return [
        name for name in (grid() if names is None else names)
        if name not in expected or checked(name).digest != expected[name]["hash"]
    ]


def assert_cells(prefix: str) -> None:
    """Every cell under *prefix* matches the record."""
    names = [name for name in grid() if name == prefix or name.startswith(prefix + "/")]
    assert names, f"no ledger cell under {prefix!r}"
    changed = changed_cells(names)
    assert not changed, f"ledger cells changed: {changed}"


def write() -> None:
    entries = []
    for name, cell in grid().items():
        capacity = None if cell.boundary is None else int(cell.boundary())
        entry = {"hash": run_cell(name, capacity).digest}
        if capacity is not None:
            entry["capacity_bytes"] = capacity
        entries.append(f"{json.dumps(name)}: {json.dumps(entry)}")
    RECORD.write_text("{\n" + ",\n".join(entries) + "\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write()
    else:
        changed = changed_cells()
        print("\n".join(changed) or "every cell matches the record")
        sys.exit(1 if changed else 0)
