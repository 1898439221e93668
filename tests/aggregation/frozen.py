"""Frozen copies of the group-by machinery from before the fold of record.

Each strategy used to compute its own output inside ``_execute``, one
:func:`frozen_segmented_aggregate` call per :class:`AggSpec`, with
``GroupByAlgorithm.group_by`` driving it.  The pricing tests subclass
:class:`FrozenGroupBy` with verbatim copies of those ``_execute``
bodies, so the strategies that now only price, and the one fold that
now computes every value, are held to what the old code charged and
returned.  Nothing here may be edited to make a test pass.
"""

import numpy as np

from repro.aggregation.base import SUPPORTED_OPS, GroupByConfig, GroupByResult
from repro.errors import AggregationConfigError
from repro.gpusim import A100, GPUContext, KernelStats


def frozen_segmented_aggregate(inverse, num_groups, values, op):
    """``segmented_aggregate`` as it was: one fold per aggregate."""
    if op == "count":
        return np.bincount(inverse, minlength=num_groups).astype(np.int64)
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
    if op == "sum":
        return sums
    return sums / np.maximum(np.bincount(inverse, minlength=num_groups), 1)


_INT64_RANGE = (int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max))

_FLOAT_EXACT = 1 << 53


def _exact_int_sums(inverse, num_groups, values):
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


def charge_segmented_reduce(ctx, rows, value_bytes, out_bytes, name, phase):
    """SORT-AGG's per-aggregate reduce charge, as it was."""
    ctx.submit(
        KernelStats(
            name=name,
            items=rows,
            seq_read_bytes=value_bytes,
            seq_write_bytes=out_bytes,
        ),
        phase=phase,
    )


def charge_partition_fold(ctx, rows, value_bytes, out_bytes, name, phase):
    """PART-AGG's per-partition fold charge, as it was."""
    ctx.submit(
        KernelStats(
            name=name,
            items=rows,
            seq_read_bytes=value_bytes,
            seq_write_bytes=out_bytes,
        ),
        phase=phase,
    )


class FrozenGroupBy:
    """``GroupByAlgorithm`` as it was: ``_execute`` computed the output.

    ``names`` maps each pattern to the strategy's name.
    """

    names = {}

    def __init__(self, config=None, pattern="gftr"):
        self.config = config or GroupByConfig()
        self.config.validate()
        self.pattern = pattern
        self.name = self.names[pattern]

    def group_by(self, keys, values, aggregates, ctx=None, device=A100, seed=None):
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

