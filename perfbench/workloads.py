"""The benchmark's three workloads: inputs, op lists and output oracles.

* ``join-wide`` — one closed-loop client cycling wide joins through
  ``QueryExecutor.execute`` (primitives + gpusim on the hot path).
* ``groupby-modes`` — grouped aggregations run plain, sharded over four
  devices, and under a fixed fault plan (aggregation, grouping, cluster
  and faults layers).
* ``serve-tier-rw`` — a seeded Poisson stream on the simulated clock into
  a tiered ``QueryServer``, with every 20th event an ``update()``.

The workload seed only shapes the generated inputs and the event
stream; the library's own context seed is the constant
:data:`EXECUTOR_SEED`.  Every op's output is checked outside the timed
region (see :mod:`reference`).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import reference
from repro.aggregation.base import AggSpec
from repro.bench.harness import make_setup
from repro.errors import ShardedExecutionWarning
from repro.faults import FaultPlan
from repro.query import Aggregate, Join, QueryExecutor, Scan
from repro.relational.relation import Relation
from repro.serve import QueryServer
from repro.workloads.generators import JoinWorkloadSpec, generate_join_workload
from repro.workloads.groupby_gen import GroupByWorkloadSpec, generate_groupby_workload

#: Seed of the library's context RNG (bucket-chain atomics).  Constant, so
#: the workload seed reaches the program only through its inputs.
EXECUTOR_SEED = 7

#: Aggregates of every ``groupby-modes`` scan plan.
GROUPBY_AGGS = tuple(AggSpec("v1", op) for op in ("sum", "count", "min", "max", "mean"))

#: The fixed fault plan of the resilient executor: transient kernel
#: faults plus memory pressure that pushes the larger group-bys down the
#: degradation ladder (PART-AGG, then block-staged out-of-core).
FAULT_PLAN = FaultPlan(seed=11, kernel_fault_rate=0.1, capacity_frac=0.01)

# serve-tier-rw ------------------------------------------------------------

SERVE_PAIRS = 16
SERVE_FANOUT = 4
#: Dataset (all R/S pairs) over scaled device memory.
SERVE_DATASET_MULTIPLE = 4.0
SERVE_ZIPF = 1.1
SERVE_UPDATE_EVERY = 20
#: Offered load, queries per simulated second (Poisson).
SERVE_RATE_QPS = 20000.0
#: Per-query relative deadline, simulated seconds.  It sits near the 98th
#: percentile of the latency the stream sees without a deadline (p97
#: 0.057, p99 0.068 sim-ms on seeds 1 and 2), so about 1-2% of the
#: queries are cancelled or miss it, and goodput falls when latency rises.
SERVE_DEADLINE_S = 6e-5


@dataclass(frozen=True)
class Size:
    join_rows: int
    join_scale: float
    group_rows: int
    group_scale: float
    serve_scale: float
    #: serve-tier-rw events generated per requested second of measurement;
    #: the stream length is a pure function of (seed, seconds).
    serve_events_per_s: float
    #: Set-up repeats until this many seconds have passed (see run.py).
    setup_min_s: float


SIZES = {
    "full": Size(2**20, 2.0**-7, 2**20, 2.0**-7, 2.0**-14, 128.0, 4.0),
    "small": Size(2**14, 2.0**-13, 2**14, 2.0**-13, 2.0**-16, 20.0, 0.0),
}


def sub_seed(seed: int, stream: int) -> int:
    """Independent generator seed for one input of one workload seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def columns_of(output) -> Dict[str, np.ndarray]:
    """``{name: array}`` view of a Relation or a group-by dict."""
    if isinstance(output, Relation):
        return dict(output.columns())
    return dict(output)


def _agg_pairs(aggregates) -> List[Tuple[str, str]]:
    return [(spec.column, spec.op) for spec in aggregates]


def _join_reference(r: Relation, s: Relation) -> Dict[str, np.ndarray]:
    return reference.join(dict(r.columns()), r.key, dict(s.columns()), s.key)


# -- batch workloads --------------------------------------------------------


@dataclass
class Op:
    """One query of a batch workload's fixed cycle."""

    name: str
    plan: object
    executor: QueryExecutor
    rows: int
    #: builds the numpy reference output (plain ops only)
    reference: Optional[Callable[[], Dict[str, np.ndarray]]] = None
    #: name of the plain op whose exact output this op must reproduce
    oracle: Optional[str] = None

    def run(self):
        result = self.executor.execute(self.plan)
        return result.output, result.total_seconds


@dataclass
class BatchWorkload:
    name: str
    ops: List[Op]
    provenance: Dict[str, object]
    _expected: Dict[str, object] = field(default_factory=dict)

    @property
    def cycle_rows(self) -> int:
        return sum(op.rows for op in self.ops)

    def compute_references(self) -> None:
        """Expected outputs for every op (outside any timed region)."""
        by_name = {op.name: op for op in self.ops}
        fingerprints = {}  # one reference computation per distinct builder
        for op in self.ops:
            if op.reference is not None:
                if op.reference not in fingerprints:
                    fingerprints[op.reference] = reference.value_fingerprint(op.reference())
                self._expected[op.name] = ("value", fingerprints[op.reference])
        for op in self.ops:
            if op.oracle is not None:
                plain = by_name[op.oracle]
                output, _ = plain.run()
                self._expected[op.name] = ("exact", reference.exact_digest(columns_of(output)))

    def check(self, op: Op, output) -> Optional[str]:
        """None when *output* matches its oracle, else a short reason."""
        kind, expected = self._expected[op.name]
        columns = columns_of(output)
        if kind == "value":
            actual = reference.value_fingerprint(columns)
            oracle = "numpy reference"
        else:
            actual = reference.exact_digest(columns)
            oracle = f"plain execute() ({op.oracle})"
        if actual == expected:
            return None
        return f"output differs from {oracle}"


def build_join_wide(seed: int, size: Size) -> BatchWorkload:
    setup = make_setup(scale=size.join_scale)
    rows = size.join_rows
    r, s = generate_join_workload(JoinWorkloadSpec(
        r_rows=rows, s_rows=rows, r_payload_columns=4, s_payload_columns=4,
        seed=sub_seed(seed, 1),
    ))
    rz, sz = generate_join_workload(JoinWorkloadSpec(
        r_rows=rows, s_rows=rows, r_payload_columns=4, s_payload_columns=4,
        zipf_factor=1.0, seed=sub_seed(seed, 2),
    ))
    executor = QueryExecutor(device=setup.device, config=setup.config, seed=EXECUTOR_SEED)
    pair_rows = r.num_rows + s.num_rows
    def rs_reference():
        return _join_reference(r, s)

    ops = [
        Op(f"join/{algorithm}", Join(Scan(r, "R"), Scan(s, "S"), algorithm=algorithm),
           executor, pair_rows, reference=rs_reference)
        for algorithm in ("PHJ-OM", "SMJ-OM", "PHJ-UM", "NPJ")
    ]
    ops.append(Op(
        "join/zipf1.0-auto", Join(Scan(rz, "Rz"), Scan(sz, "Sz")), executor,
        rz.num_rows + sz.num_rows, reference=lambda: _join_reference(rz, sz),
    ))
    fused_aggs = (AggSpec("s1", "sum"), AggSpec("s2", "max"), AggSpec("r1", "min"))

    def fused_reference():
        joined = _join_reference(r, s)
        return reference.group_by(joined["key"], joined, _agg_pairs(fused_aggs))

    ops.append(Op(
        "fused/PHJ-OM+agg",
        Aggregate(Join(Scan(r, "R"), Scan(s, "S"), algorithm="PHJ-OM"), "key", fused_aggs),
        executor, pair_rows, reference=fused_reference,
    ))
    return BatchWorkload("join-wide", ops, {
        "scale": size.join_scale,
        "rows": {"R": r.num_rows, "S": s.num_rows, "payload_columns": 4},
        "dataset_to_device_mem": (r.total_bytes + s.total_bytes + rz.total_bytes
                                  + sz.total_bytes) / setup.device.global_mem_bytes,
    })


def build_groupby_modes(seed: int, size: Size) -> BatchWorkload:
    setup = make_setup(scale=size.group_scale)
    rows = size.group_rows
    executors = {
        "plain": QueryExecutor(device=setup.device, config=setup.config, seed=EXECUTOR_SEED),
        "shards4": QueryExecutor(device=setup.device, config=setup.config,
                                 seed=EXECUTOR_SEED, shards=4, interconnect="nvlink-mesh"),
        "faults": QueryExecutor(device=setup.device, config=setup.config,
                                seed=EXECUTOR_SEED, fault_plan=FAULT_PLAN),
    }
    plans = []  # (name, plan, input rows, numpy reference)
    stream = 10
    dataset_bytes = 0
    # The group-key domain of each cardinality class is drawn log-uniformly
    # within half an octave of 2^4, 2^10 and 2^18, so seeds sample the
    # cardinality axis instead of repeating three points.
    octave = np.random.default_rng(sub_seed(seed, 30)).uniform(-0.5, 0.5, 3)
    domains = {}
    for base, shift in zip((4, 10, 18), octave):
        domains[base] = min(int(round(2 ** (base + shift))), rows // 4)
        for zipf in (0.0, 1.0):
            stream += 1
            keys, values = generate_groupby_workload(GroupByWorkloadSpec(
                rows=rows, groups=domains[base], zipf_factor=zipf,
                seed=sub_seed(seed, stream),
            ))
            relation = Relation([("k", keys), ("v1", values["v1"])], key="k")
            dataset_bytes += relation.total_bytes
            plans.append((
                f"agg/g2^{base}-z{zipf:g}",
                Aggregate(Scan(relation, f"G{base}z{zipf:g}"), "k", GROUPBY_AGGS),
                rows,
                lambda keys=keys, values=values: reference.group_by(
                    keys, values, _agg_pairs(GROUPBY_AGGS)),
            ))
    r, s = generate_join_workload(JoinWorkloadSpec(
        r_rows=rows // 16, s_rows=rows // 4, seed=sub_seed(seed, 20),
    ))
    dataset_bytes += r.total_bytes + s.total_bytes
    join_aggs = (AggSpec("s1", "sum"), AggSpec("s1", "count"), AggSpec("r1", "max"))

    def join_agg_reference():
        joined = _join_reference(r, s)
        return reference.group_by(joined["key"], joined, _agg_pairs(join_aggs))

    plans.append((
        "join-agg", Aggregate(Join(Scan(r, "R"), Scan(s, "S")), "key", join_aggs),
        r.num_rows + s.num_rows, join_agg_reference,
    ))
    ops = []
    for name, plan, plan_rows, numpy_reference in plans:
        for mode, executor in executors.items():
            plain = mode == "plain"
            ops.append(Op(
                f"{name}/{mode}", plan, executor, plan_rows,
                reference=numpy_reference if plain else None,
                oracle=None if plain else f"{name}/plain",
            ))
    return BatchWorkload("groupby-modes", ops, {
        "scale": size.group_scale,
        "rows": {"groupby": rows, "join_agg_R": r.num_rows, "join_agg_S": s.num_rows},
        "group_domains": {f"2^{base}": groups for base, groups in domains.items()},
        "dataset_to_device_mem": dataset_bytes / setup.device.global_mem_bytes,
        "fault_plan": {"seed": FAULT_PLAN.seed, "kernel_fault_rate": FAULT_PLAN.kernel_fault_rate,
                       "capacity_frac": FAULT_PLAN.capacity_frac},
    })


# -- serve-tier-rw ----------------------------------------------------------


@dataclass
class Event:
    at_s: float
    template: int = -1
    #: update events: the catalog name swapped and its replacement
    name: str = ""
    relation: Optional[Relation] = None


@dataclass
class Template:
    name: str
    deps: Tuple[str, ...]
    build: Callable[[Dict[str, Relation]], object]
    reference: Callable[[Dict[str, Relation]], Dict[str, np.ndarray]]


class ServeWorkload:
    """A tiered QueryServer fed a fixed, seeded event stream."""

    def __init__(self, seed: int, size: Size, seconds: float):
        self.setup = make_setup(scale=size.serve_scale)
        device = self.setup.device
        pair_bytes = SERVE_DATASET_MULTIPLE * device.global_mem_bytes / SERVE_PAIRS
        # int32 key + one int32 payload: 8 bytes per row on both sides.
        self.r_rows = max(256, int(pair_bytes / (8 * (1 + SERVE_FANOUT))))
        self.catalog: Dict[str, Relation] = {}
        for i in range(SERVE_PAIRS):
            r, s = self._pair(sub_seed(seed, 100 + i))
            self.catalog[f"R{i}"], self.catalog[f"S{i}"] = r, s
        self.templates: List[Template] = []
        for i in range(SERVE_PAIRS):
            self.templates.append(Template(
                f"join{i}", (f"R{i}", f"S{i}"),
                lambda cat, i=i: Join(Scan(cat[f"R{i}"], f"R{i}"), Scan(cat[f"S{i}"], f"S{i}"),
                                      algorithm="NPJ"),
                lambda cat, i=i: _join_reference(cat[f"R{i}"], cat[f"S{i}"]),
            ))
            if i % 2 == 0:
                aggs = (AggSpec("s1", "sum"), AggSpec("s1", "max"))
                self.templates.append(Template(
                    f"agg{i}", (f"S{i}",),
                    lambda cat, i=i, aggs=aggs: Aggregate(Scan(cat[f"S{i}"], f"S{i}"), "key", aggs),
                    lambda cat, i=i, aggs=aggs: reference.group_by(
                        cat[f"S{i}"].key_values, dict(cat[f"S{i}"].columns()), _agg_pairs(aggs)),
                ))
        # Whole update rounds: every relation is swapped equally often, so
        # no seed updates the hot head more than another does.
        round_events = SERVE_UPDATE_EVERY * len(self.catalog)
        rounds = max(1, int(round(size.serve_events_per_s * seconds / round_events)))
        self.events = self._event_stream(
            np.random.default_rng(sub_seed(seed, 1000)), rounds * round_events, seed,
        )
        n_events = len(self.events)
        self.provenance = {
            "scale": size.serve_scale,
            "rows": {"R": self.r_rows, "S": SERVE_FANOUT * self.r_rows, "pairs": SERVE_PAIRS},
            "dataset_to_device_mem": sum(rel.total_bytes for rel in self.catalog.values())
            / device.global_mem_bytes,
            "offered_rate_qps_sim": SERVE_RATE_QPS,
            "deadline_s_sim": SERVE_DEADLINE_S,
            "brownout": "default BrownoutPolicy",
            "events": n_events,
            "update_every": SERVE_UPDATE_EVERY,
            "zipf": SERVE_ZIPF,
            "arrivals": "scheduled on the simulated clock: the generator cannot run late",
        }
        self._references: Dict[tuple, Tuple[str, Optional[str]]] = {}
        self.reference_seconds = 0.0

    def _event_stream(self, rng: np.random.Generator, n_events: int, seed: int) -> List[Event]:
        """Poisson arrivals and Zipf template draws, stratified.

        The stream's composition is fixed and only its order is seeded.
        Inter-arrival gaps are the n exponential quantiles, shuffled.  Each
        template appears its Zipf share of times, rounded by largest
        remainder.  Updates walk the catalog in a seeded order.  A run
        therefore differs from another seed's run in order, not in mix,
        which keeps the tail metrics from following one seed's sampling
        luck.
        """
        n_updates = n_events // SERVE_UPDATE_EVERY
        n_queries = n_events - n_updates
        ranks = np.arange(1, len(self.templates) + 1, dtype=np.float64)
        share = ranks ** -SERVE_ZIPF
        share *= n_queries / share.sum()
        counts = np.floor(share).astype(np.int64)
        remainder = n_queries - int(counts.sum())
        counts[np.argsort(counts - share, kind="stable")[:remainder]] += 1
        draws = rng.permutation(np.repeat(np.arange(len(self.templates)), counts))
        quantiles = (np.arange(n_events) + 0.5) / n_events
        gaps = rng.permutation(-np.log1p(-quantiles) / SERVE_RATE_QPS)
        arrivals = np.cumsum(gaps)
        names = sorted(self.catalog)
        updated = [names[i] for i in rng.permutation(len(names))]
        events: List[Event] = []
        queries = iter(draws)
        for e in range(n_events):
            at_s = float(arrivals[e])
            if e % SERVE_UPDATE_EVERY == SERVE_UPDATE_EVERY - 1:
                name = updated[(e // SERVE_UPDATE_EVERY) % len(updated)]
                r, s = self._pair(sub_seed(seed, 10_000 + e))
                events.append(Event(at_s, name=name, relation=r if name[0] == "R" else s))
            else:
                events.append(Event(at_s, template=int(next(queries))))
        return events

    def _pair(self, seed: int) -> Tuple[Relation, Relation]:
        return generate_join_workload(JoinWorkloadSpec(
            r_rows=self.r_rows, s_rows=SERVE_FANOUT * self.r_rows, seed=seed,
        ))

    def make_server(self) -> QueryServer:
        device = self.setup.device
        server = QueryServer(
            streams=4,
            tiering=True,
            brownout=True,
            device=device,
            config=self.setup.config,
            seed=EXECUTOR_SEED,
            mem_overhead=1.0,
            # Room for the hot head's results (about three join outputs),
            # not the whole template set.
            result_cache_bytes=device.global_mem_bytes,
        )
        for name, relation in self.catalog.items():
            server.register(name, relation)
        return server

    def warm(self) -> None:
        """Every template once, plus one update, on a throwaway server.

        No deadline here, so every template runs to completion even when
        its cold first run would overrun one.
        """
        server = self.make_server()
        for template in self.templates:
            server.submit(template.build(self.catalog))
            server.run()
        name = next(iter(self.catalog))
        server.update(name, self.catalog[name])

    def compute_references(self) -> None:
        """Expected outputs of every query of the stream, for the relation
        versions it will be submitted against (outside any timed region)."""
        catalog = dict(self.catalog)
        versions = {name: 0 for name in catalog}
        for event in self.events:
            if event.relation is not None:
                catalog[event.name] = event.relation
                versions[event.name] += 1
                continue
            template = self.templates[event.template]
            key = (event.template, tuple(versions[d] for d in template.deps))
            self.expected(key, template, {d: catalog[d] for d in template.deps})

    def rows_of(self, template: Template, catalog: Dict[str, Relation]) -> int:
        return sum(catalog[name].num_rows for name in template.deps)

    def expected(self, key: tuple, template: Template, catalog) -> Tuple[str, Optional[str]]:
        """(exact digest of plain execute(), numpy mismatch note or None)."""
        if key not in self._references:
            t0 = time.perf_counter()
            output = QueryExecutor(
                device=self.setup.device, config=self.setup.config, seed=EXECUTOR_SEED,
            ).execute(template.build(catalog)).output
            columns = columns_of(output)
            numpy_ok = reference.value_fingerprint(columns) == reference.value_fingerprint(
                template.reference(catalog))
            self._references[key] = (
                reference.exact_digest(columns),
                None if numpy_ok else "plain execute() differs from numpy reference",
            )
            self.reference_seconds += time.perf_counter() - t0
        return self._references[key]


BATCH_BUILDERS = {"join-wide": build_join_wide, "groupby-modes": build_groupby_modes}


def quiet_warnings() -> None:
    """Sharded Aggregate-over-Join warns that fusion is off; expected here."""
    warnings.simplefilter("ignore", ShardedExecutionWarning)
