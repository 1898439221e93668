"""Shared machinery for grouped aggregation.

The SIGMOD 2025 scope extends the join study to grouped aggregations.
We implement the three standard GPU strategies with the same
methodology as the joins — real numpy semantics, measured traffic,
phase-structured simulated time:

* hash aggregation into a global table (cheap for few groups, random
  traffic for many);
* sort-based aggregation (sort + segmented reduce; robust, sequential);
* partitioned aggregation (radix partition so each partition's groups
  fit in shared memory — the group-by analogue of PHJ).

Each strategy supports the two materialization patterns of the paper:
``gfur`` transforms ``(key, tuple ID)`` and fetches value columns through
permuted IDs (unclustered), while ``gftr`` transforms each value column
*with* the keys and streams it sequentially — the exact analogue of
Algorithm 1 for aggregation pipelines.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..errors import AggregationConfigError
from ..gpusim.context import GPUContext
from ..gpusim.device import A100, DeviceSpec
from ..gpusim.kernel import KernelStats
from ..primitives.gather import gather_stats_only
from ..primitives.grouping import group_identify, stable_key_order

#: Canonical group-by phases.
TRANSFORM, AGGREGATE, MATERIALIZE = "transform", "aggregate", "materialize"

#: Supported aggregate operators.
SUPPORTED_OPS = ("sum", "count", "min", "max", "mean")


@dataclass(frozen=True)
class AggSpec:
    """One aggregate: ``op`` applied to value column ``column``.

    Output dtypes: ``count`` is int64; ``sum``, ``min`` and ``max`` are
    int64 for integer and bool columns (sums exact) and float64 for
    float columns (sums folded in row order); ``mean`` is float64, the
    exact sum over the count.  A sum that does not fit in int64, uint64
    values above the int64 range and other dtypes raise
    :class:`~repro.errors.AggregationConfigError`.
    """

    column: str
    op: str

    def __post_init__(self):
        if self.op not in SUPPORTED_OPS:
            raise AggregationConfigError(
                f"unsupported aggregate {self.op!r}; supported: {SUPPORTED_OPS}"
            )

    @property
    def output_name(self) -> str:
        return f"{self.op}_{self.column}"


def value_columns(aggregates: Sequence[AggSpec]) -> List[str]:
    """The value columns *aggregates* read, once each, in first-use order.

    ``count`` reads none.

    >>> value_columns([AggSpec("v", "sum"), AggSpec("w", "count"), AggSpec("v", "max")])
    ['v']
    """
    return list(dict.fromkeys(s.column for s in aggregates if s.op != "count"))


@dataclass
class GroupByConfig:
    """Options shared by the aggregation strategies.

    ``tuples_per_partition`` is the target number of *distinct groups*
    per partition for the partitioned strategy; ``None`` (default)
    derives it from the device's shared-memory capacity at run time.
    """

    tuples_per_partition: Optional[int] = None
    partition_bits: Optional[int] = None
    hashed_partitioning: bool = True
    table_load_factor: float = 0.5

    def validate(self) -> None:
        if self.tuples_per_partition is not None and self.tuples_per_partition <= 0:
            raise AggregationConfigError("tuples_per_partition must be positive")
        if not 0 < self.table_load_factor <= 1:
            raise AggregationConfigError("table_load_factor must be in (0, 1]")


@dataclass
class GroupByResult:
    """Outcome of one simulated grouped aggregation."""

    output: "OrderedDict[str, np.ndarray]"
    algorithm: str
    pattern: str
    device: DeviceSpec
    phase_seconds: Dict[str, float]
    rows: int
    groups: int
    input_bytes: int
    peak_aux_bytes: int
    kernel_count: int
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    @property
    def throughput_tuples_per_s(self) -> float:
        if self.total_seconds == 0:
            return float("inf")
        return self.rows / self.total_seconds

    def column(self, name: str) -> np.ndarray:
        return self.output[name]

    def describe(self) -> str:
        parts = ", ".join(
            f"{p}={s * 1e3:.3f}ms" for p, s in self.phase_seconds.items()
        )
        return (
            f"{self.algorithm}[{self.pattern}] on {self.device.name}: "
            f"{self.groups} groups from {self.rows} rows, "
            f"total={self.total_seconds * 1e3:.3f}ms ({parts})"
        )


def fold_groups(
    group_keys: np.ndarray,
    inverse: np.ndarray,
    values: Dict[str, np.ndarray],
    aggregates: Sequence[AggSpec],
) -> "OrderedDict[str, np.ndarray]":
    """``group_key`` plus one column per aggregate, given group codes ``inverse``.

    The one fold of record, with the :class:`AggSpec` dtype contract
    (zero rows included): every strategy, mode and the tier compute
    their values here; traffic is charged by the callers.  Each value
    column is validated, widened, counted and summed once however many
    aggregates read it; ``min``/``max`` are folded only when asked for.

    >>> inverse = np.zeros(2, dtype=np.int64)
    >>> big = np.array([2**53 + 1, 1])
    >>> out = fold_groups(np.zeros(1), inverse, {"v": big}, [AggSpec("v", "sum")])
    >>> int(out["sum_v"][0]) - 2**53
    2
    >>> int(big.sum(dtype=np.float64)) - 2**53
    0
    """
    num_groups = int(group_keys.size)
    counts = None
    if any(spec.op in ("count", "mean") for spec in aggregates):
        counts = np.bincount(inverse, minlength=num_groups).astype(np.int64)
    ops: Dict[str, set] = {}
    for spec in aggregates:
        if spec.op != "count":
            ops.setdefault(spec.column, set()).add(spec.op)
    folds = {
        column: _fold_column(inverse, num_groups, values[column], column_ops, counts)
        for column, column_ops in ops.items()
    }
    output: "OrderedDict[str, np.ndarray]" = OrderedDict(group_key=group_keys)
    counts_taken = False
    for spec in aggregates:
        if spec.op != "count":
            output[spec.output_name] = folds[spec.column][spec.op]
        elif spec.output_name not in output:
            # Callers own their output: each count column is its own array.
            output[spec.output_name] = counts.copy() if counts_taken else counts
            counts_taken = True
    return output


def _fold_column(
    inverse: np.ndarray,
    num_groups: int,
    values: np.ndarray,
    ops: set,
    counts: Optional[np.ndarray],
) -> Dict[str, np.ndarray]:
    """The *ops* folds of one value column; ``counts`` serves ``mean``."""
    kind = values.dtype.kind
    if kind not in "biuf":
        raise AggregationConfigError(
            f"aggregates {sorted(ops)} over {values.dtype} values"
        )
    if kind == "u" and values.dtype.itemsize == 8 and values.size:
        if int(values.max()) > np.iinfo(np.int64).max:
            raise AggregationConfigError("uint64 values exceed the int64 range")
    folds: Dict[str, np.ndarray] = {}
    wide = None
    if kind == "f" or ops & {"min", "max"}:
        wide = values.astype(np.float64 if kind == "f" else np.int64, copy=False)
    if ops & {"sum", "mean"}:
        if kind == "f":
            # A bincount of zero rows is int64 whatever its weights.
            sums = np.bincount(inverse, weights=wide, minlength=num_groups)
            sums = sums.astype(np.float64, copy=False)
        else:
            ints = values.view(np.uint8) if kind == "b" else values
            sums = _exact_int_sums(inverse, num_groups, ints)
        folds["sum"] = sums
        if "mean" in ops:
            folds["mean"] = sums / np.maximum(counts, 1)
    for op in ops & {"min", "max"}:
        lo, hi = (-np.inf, np.inf) if kind == "f" else _INT64_RANGE
        out = np.full(num_groups, hi if op == "min" else lo, dtype=wide.dtype)
        (np.minimum if op == "min" else np.maximum).at(out, inverse, wide)
        folds[op] = out
    return folds


_INT64_RANGE = (int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max))

#: float64 represents every integer of magnitude below this exactly.
_FLOAT_EXACT = 1 << 53


def _exact_int_sums(
    inverse: np.ndarray, num_groups: int, values: np.ndarray
) -> np.ndarray:
    """Exact int64 per-group sums of an integer column.

    One float64 ``bincount`` is exact while ``rows * max|v| < 2**53``,
    decided from the dtype when it can be, else with one min/max pass.
    Above that the values are cut into limbs narrow enough for each
    limb's ``bincount`` to be exact; the limb sums recombine as Python
    ints, so a total outside int64 raises instead of wrapping.
    """
    rows = int(values.size)
    info = np.iinfo(values.dtype)
    bound = max(-int(info.min), int(info.max))
    if rows * bound >= _FLOAT_EXACT and rows:
        bound = max(-int(values.min()), int(values.max()))
    if rows * bound < _FLOAT_EXACT:
        return np.bincount(
            inverse, weights=values.astype(np.float64), minlength=num_groups
        ).astype(np.int64)
    wide = values.astype(np.int64)
    bits = 53 - rows.bit_length()  # rows * 2**bits <= 2**53
    totals = np.zeros(num_groups, dtype=object)
    for shift in range(0, 64, bits):
        limb = wide >> shift  # the top limb keeps the sign
        if shift + bits < 64:
            limb &= (1 << bits) - 1
        limb_sums = np.bincount(inverse, weights=limb, minlength=num_groups)
        totals += limb_sums.astype(np.int64).astype(object) * (1 << shift)
    lo, hi = _INT64_RANGE
    if num_groups and not (lo <= totals.min() and totals.max() <= hi):
        raise AggregationConfigError("a group's sum overflows int64")
    return totals.astype(np.int64)


def merge_disjoint_groups(
    outputs: Sequence["OrderedDict[str, np.ndarray]"],
) -> "OrderedDict[str, np.ndarray]":
    """Merge group-by outputs with disjoint, ascending ``group_key`` sets.

    A stable sort of the concatenated keys gives the global ascending
    order, and every column is reordered by it.  Shards and out-of-core
    blocks fold each group wholly in one place, so the merge is exact.
    """
    order = stable_key_order(np.concatenate([out["group_key"] for out in outputs]))
    return OrderedDict(
        (name, np.concatenate([out[name] for out in outputs])[order])
        for name in outputs[0]
    )


def charge_column_folds(
    ctx: GPUContext,
    rows: int,
    values: Dict[str, np.ndarray],
    aggregates: Sequence[AggSpec],
    num_groups: int,
    kernel: str,
    fetch: Callable[[np.ndarray, str], None],
) -> None:
    """MATERIALIZE of a strategy that folds transformed columns.

    Per aggregate, ``fetch(column, label)`` charges bringing its value
    column into the transformed order (``count`` reads none), then one
    sequential fold ``<kernel>:<output name>`` streams it and writes one
    8-byte result per group.
    """
    for spec in aggregates:
        value_bytes = 0
        if spec.op != "count":
            column = values[spec.column]
            fetch(column, spec.column)
            value_bytes = int(column.nbytes)
        ctx.submit(
            KernelStats(
                name=f"{kernel}:{spec.output_name}",
                items=rows,
                seq_read_bytes=value_bytes,
                seq_write_bytes=num_groups * 8,
            ),
            phase=MATERIALIZE,
        )


def gather_through(
    ctx: GPUContext, id_map: np.ndarray
) -> Callable[[np.ndarray, str], None]:
    """A ``fetch`` that gathers columns through permuted tuple IDs (GFUR).

    A gather's traffic depends only on the map and the item size, so the
    map's sectors are analysed once per item size and the stats are
    re-submitted under each column's name.
    """
    charged: Dict[int, KernelStats] = {}

    def fetch(column: np.ndarray, label: str) -> None:
        stats = charged.get(column.itemsize)
        if stats is None:
            charged[column.itemsize] = gather_stats_only(
                ctx, id_map, column.itemsize, int(column.nbytes),
                phase=MATERIALIZE, label=label,
            )
        else:
            ctx.submit(replace(stats, name=f"gather:{label}"), phase=MATERIALIZE)

    return fetch


class GroupByAlgorithm(ABC):
    """Base class for the three aggregation strategies."""

    name: str = ""
    pattern: str = ""

    def __init__(self, config: Optional[GroupByConfig] = None):
        self.config = config or GroupByConfig()
        self.config.validate()

    def group_by(
        self,
        keys: np.ndarray,
        values: Dict[str, np.ndarray],
        aggregates: List[AggSpec],
        ctx: Optional[GPUContext] = None,
        device: DeviceSpec = A100,
        seed: Optional[int] = None,
    ) -> GroupByResult:
        """Aggregate *values* grouped by *keys*.

        Returns group keys in ascending order with one output column per
        aggregate (named ``<op>_<column>``).
        """
        for spec in aggregates:
            if spec.op != "count" and spec.column not in values:
                raise AggregationConfigError(
                    f"aggregate references missing column {spec.column!r}"
                )
        if ctx is None:
            ctx = GPUContext(device=device, seed=seed)

        with ctx.trace_span(
            f"groupby:{self.name}",
            category="algorithm",
            pattern=self.pattern,
            rows=int(keys.size),
        ):
            group_keys, inverse = group_identify(keys)
            self._price(ctx, keys, values, aggregates, inverse, int(group_keys.size))
            output = fold_groups(group_keys, inverse, values, aggregates)
        ctx.count("groupby_groups", int(group_keys.size))

        input_bytes = int(keys.nbytes) + sum(int(v.nbytes) for v in values.values())
        return GroupByResult(
            output=output,
            algorithm=self.name,
            pattern=self.pattern,
            device=ctx.device,
            phase_seconds=dict(ctx.timeline.breakdown()),
            rows=int(keys.size),
            groups=int(group_keys.size),
            input_bytes=input_bytes,
            peak_aux_bytes=ctx.mem.peak_bytes,
            kernel_count=ctx.timeline.kernel_count(),
        )

    @abstractmethod
    def _price(
        self,
        ctx: GPUContext,
        keys: np.ndarray,
        values: Dict[str, np.ndarray],
        aggregates: List[AggSpec],
        inverse: np.ndarray,
        num_groups: int,
    ) -> None:
        """Charge the strategy's phase-attributed kernels and memory.

        Values are :func:`fold_groups`' job: a strategy only prices the
        traffic its pattern causes.  ``inverse`` and ``num_groups`` are
        the group identity of record, from :func:`group_identify`.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, pattern={self.pattern!r})"
