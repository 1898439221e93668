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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import AggregationConfigError
from ..gpusim.context import GPUContext
from ..gpusim.device import A100, DeviceSpec
from ..primitives.grouping import stable_key_order

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


def segmented_aggregate(
    inverse: np.ndarray,
    num_groups: int,
    values: Optional[np.ndarray],
    op: str,
) -> np.ndarray:
    """Aggregate *values* per group given group codes ``inverse``.

    The one fold of record, with the :class:`AggSpec` dtype contract:
    every strategy and the tier compute their values here; traffic is
    charged by the callers.  ``values`` may be None for ``count``.

    >>> inverse = np.zeros(2, dtype=np.int64)
    >>> big = np.array([2**53 + 1, 1])
    >>> int(segmented_aggregate(inverse, 1, big, "sum")[0]) - 2**53
    2
    >>> int(big.sum(dtype=np.float64)) - 2**53
    0
    """
    counts = np.bincount(inverse, minlength=num_groups)
    if op == "count":
        return counts.astype(np.int64)
    if op not in SUPPORTED_OPS:
        raise AggregationConfigError(f"unsupported aggregate {op!r}")
    if values is None:
        raise AggregationConfigError(f"aggregate {op!r} requires a value column")
    kind = values.dtype.kind
    if kind not in "biuf":
        raise AggregationConfigError(f"aggregate {op!r} over {values.dtype} values")
    if kind == "u" and values.dtype.itemsize == 8 and values.size:
        if int(values.max()) > np.iinfo(np.int64).max:
            raise AggregationConfigError("uint64 values exceed the int64 range")
    if op in ("min", "max"):
        wide = values.astype(np.float64 if kind == "f" else np.int64)
        lo, hi = (-np.inf, np.inf) if kind == "f" else _INT64_RANGE
        out = np.full(num_groups, hi if op == "min" else lo, dtype=wide.dtype)
        (np.minimum if op == "min" else np.maximum).at(out, inverse, wide)
        return out
    if kind == "f":
        weights = values.astype(np.float64)
        sums = np.bincount(inverse, weights=weights, minlength=num_groups)
    else:
        ints = values.view(np.uint8) if kind == "b" else values
        sums = _exact_int_sums(inverse, num_groups, ints)
    return sums if op == "sum" else sums / np.maximum(counts, 1)


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
            output = self._execute(ctx, keys, values, aggregates)
        ctx.count("groupby_groups", int(output["group_key"].size))

        input_bytes = int(keys.nbytes) + sum(int(v.nbytes) for v in values.values())
        return GroupByResult(
            output=output,
            algorithm=self.name,
            pattern=self.pattern,
            device=ctx.device,
            phase_seconds=dict(ctx.timeline.breakdown()),
            rows=int(keys.size),
            groups=int(output["group_key"].size),
            input_bytes=input_bytes,
            peak_aux_bytes=ctx.mem.peak_bytes,
            kernel_count=ctx.timeline.kernel_count(),
        )

    @abstractmethod
    def _execute(
        self,
        ctx: GPUContext,
        keys: np.ndarray,
        values: Dict[str, np.ndarray],
        aggregates: List[AggSpec],
    ) -> "OrderedDict[str, np.ndarray]":
        """Run the aggregation, charging phase-attributed kernels."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, pattern={self.pattern!r})"
