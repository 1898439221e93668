"""Merge Path based merge-join primitives (Green et al., ModernGPU).

The Merge Path algorithm splits two sorted arrays into balanced,
independently mergeable partition pairs, which makes GPU merging
skew-resilient: every thread gets the same amount of work regardless of
the data distribution (Section 3.1).  Rui et al. and ModernGPU run it
twice — once for the lower and once for the upper bound of each probe
key; for primary-foreign-key joins a single pass suffices, which is the
paper's first SMJ optimization (and our ablation abl02).

The host computes each pass's bounds by direct addressing when the keys
are dense (:mod:`.direct_address`) and by ``np.searchsorted`` otherwise;
the bounds, and the charged pass, are the same either way.  Bounds are
held at the build rows' :func:`~repro.relational.types.id_dtype`, the
4 bytes per bound each pass is charged for.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..gpusim.context import GPUContext
from ..gpusim.kernel import KernelStats
from ..relational.types import id_dtype
from .direct_address import dense_bounds, dense_span


def _merge_pass_stats(
    name: str, r_keys: np.ndarray, s_keys: np.ndarray, out_bytes: int
) -> KernelStats:
    """One balanced merge pass: stream both inputs, write the bounds."""
    n = int(r_keys.size + s_keys.size)
    return KernelStats(
        name=name,
        items=n,
        seq_read_bytes=int(r_keys.nbytes + s_keys.nbytes),
        seq_write_bytes=int(out_bytes),
        # Merge Path diagonal binary searches: tiny log-factor overhead,
        # modeled as extra items of compute.
        atomic_ops=0,
    )


def _search(r_keys_sorted: np.ndarray, s_keys: np.ndarray, side: str) -> np.ndarray:
    """``np.searchsorted(r_keys_sorted, s_keys, side)``, direct when dense,
    at the r rows' :func:`~repro.relational.types.id_dtype`."""
    span = dense_span(r_keys_sorted, s_keys)
    if span is None:
        bounds = np.searchsorted(r_keys_sorted, s_keys, side=side)
        return bounds.astype(id_dtype(r_keys_sorted.size))
    (bounds,) = dense_bounds(r_keys_sorted, s_keys, span, (side,))
    return bounds


def lower_bounds(
    ctx: GPUContext,
    r_keys_sorted: np.ndarray,
    s_keys_sorted: np.ndarray,
    phase: Optional[str] = None,
    label: str = "",
) -> np.ndarray:
    """Position of the first element ``>= s`` in *r*, for each s key."""
    bounds = _search(r_keys_sorted, s_keys_sorted, "left")
    ctx.submit(
        _merge_pass_stats(
            f"merge_path_lower:{label}" if label else "merge_path_lower",
            r_keys_sorted,
            s_keys_sorted,
            out_bytes=int(bounds.size * 4),
        ),
        phase=phase,
    )
    return bounds


def upper_bounds(
    ctx: GPUContext,
    r_keys_sorted: np.ndarray,
    s_keys_sorted: np.ndarray,
    phase: Optional[str] = None,
    label: str = "",
) -> np.ndarray:
    """Position one past the last element ``<= s`` in *r*, per s key."""
    bounds = _search(r_keys_sorted, s_keys_sorted, "right")
    ctx.submit(
        _merge_pass_stats(
            f"merge_path_upper:{label}" if label else "merge_path_upper",
            r_keys_sorted,
            s_keys_sorted,
            out_bytes=int(bounds.size * 4),
        ),
        phase=phase,
    )
    return bounds


def match_bounds(
    ctx: GPUContext,
    r_keys_sorted: np.ndarray,
    s_keys_sorted: np.ndarray,
    unique_build_keys: bool,
    phase: Optional[str] = None,
    label: str = "",
) -> Tuple[np.ndarray, np.ndarray]:
    """Lower/upper match ranges of every s key within sorted r keys.

    For a primary-key build side (``unique_build_keys=True``) only one
    Merge Path pass is executed — a foreign key has at most one partner —
    and the upper bound is derived by comparison rather than a second
    merge (Section 3.1).  Otherwise both passes run.
    """
    lo = lower_bounds(ctx, r_keys_sorted, s_keys_sorted, phase=phase, label=label)
    if unique_build_keys:
        clipped = np.minimum(lo, max(r_keys_sorted.size - 1, 0))
        if r_keys_sorted.size:
            matched = r_keys_sorted[clipped] == s_keys_sorted
        else:
            matched = np.zeros(s_keys_sorted.shape, dtype=bool)
        hi = lo + matched.astype(lo.dtype)
        return lo, hi
    hi = upper_bounds(ctx, r_keys_sorted, s_keys_sorted, phase=phase, label=label)
    return lo, hi
