"""Synthetic join workload generators (Section 5.1, "Workload Description").

The paper's microbenchmarks join a primary-key relation R with a
foreign-key relation S: R's keys take the values ``0 .. |R|-1`` randomly
shuffled; S's keys are drawn uniformly (or Zipf-skewed) from R's key
domain.  The match ratio is adjusted "by replacing a corresponding
fraction of primary keys with non-matching values".  Payload columns are
random integers of the configured width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..errors import WorkloadError
from ..relational.relation import Relation
from ..relational.types import INT32, ColumnType, column_type
from .zipf import sample_zipf


@dataclass
class JoinWorkloadSpec:
    """Parameters of a synthetic R ⋈ S workload.

    ``match_ratio`` is the expected fraction of S tuples that find a
    partner.  ``zipf_factor`` skews the foreign keys.  The spec mirrors
    the knobs varied across Figures 8-15.
    """

    r_rows: int
    s_rows: int
    r_payload_columns: int = 1
    s_payload_columns: int = 1
    key_type: ColumnType = INT32
    payload_type: ColumnType = INT32
    match_ratio: float = 1.0
    zipf_factor: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if self.r_rows <= 0 or self.s_rows <= 0:
            raise WorkloadError("relation sizes must be positive")
        if not 0.0 <= self.match_ratio <= 1.0:
            raise WorkloadError("match_ratio must be within [0, 1]")
        if self.zipf_factor < 0:
            raise WorkloadError("zipf_factor must be >= 0")
        if self.r_payload_columns < 0 or self.s_payload_columns < 0:
            raise WorkloadError("payload column counts must be >= 0")

    @property
    def total_bytes(self) -> int:
        key_b = column_type(self.key_type).itemsize
        pay_b = column_type(self.payload_type).itemsize
        return self.r_rows * (key_b + self.r_payload_columns * pay_b) + self.s_rows * (
            key_b + self.s_payload_columns * pay_b
        )


def _payloads(
    rng: np.random.Generator, rows: int, count: int, ctype: ColumnType
) -> List[np.ndarray]:
    hi = min(np.iinfo(ctype.dtype).max, 2**31 - 1)
    return [
        rng.integers(0, hi, size=rows, dtype=ctype.dtype) for _ in range(count)
    ]


def generate_join_workload(spec: JoinWorkloadSpec) -> Tuple[Relation, Relation]:
    """Materialize the (R, S) relations of a workload spec.

    R keys are a shuffled permutation of ``0..|R|-1``; the fraction
    ``1 - match_ratio`` of them is displaced outside S's key domain so
    the expected match ratio holds.  S keys are uniform or Zipfian over
    ``0..|R|-1``.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    key_t = column_type(spec.key_type)
    pay_t = column_type(spec.payload_type)

    # Displaced primary keys can reach 2 * |R| - 1; check the key type
    # can hold them before allocating anything.
    largest_possible_key = (
        2 * spec.r_rows - 1 if spec.match_ratio < 1.0 else spec.r_rows - 1
    )
    if largest_possible_key > np.iinfo(key_t.dtype).max:
        raise WorkloadError(
            f"keys up to {largest_possible_key} do not fit the key type {key_t}"
        )

    r_keys = rng.permutation(spec.r_rows)
    if spec.match_ratio < 1.0:
        # Displace primary keys to non-matching values.  The displaced
        # keys stay unique: value + |R| is outside the FK domain.
        num_displaced = int(round(spec.r_rows * (1.0 - spec.match_ratio)))
        displaced = rng.choice(spec.r_rows, size=num_displaced, replace=False)
        r_keys = r_keys.copy()
        r_keys[displaced] += spec.r_rows
    max_key = int(r_keys.max()) if spec.r_rows else 0
    if max_key > np.iinfo(key_t.dtype).max:
        raise WorkloadError(
            f"keys up to {max_key} do not fit the key type {key_t}"
        )
    r_keys = r_keys.astype(key_t.dtype)

    s_keys = sample_zipf(spec.r_rows, spec.s_rows, spec.zipf_factor, rng).astype(
        key_t.dtype
    )

    r = Relation.from_key_payloads(
        r_keys,
        _payloads(rng, spec.r_rows, spec.r_payload_columns, pay_t),
        payload_prefix="r",
        name="R",
    )
    s = Relation.from_key_payloads(
        s_keys,
        _payloads(rng, spec.s_rows, spec.s_payload_columns, pay_t),
        payload_prefix="s",
        name="S",
    )
    return r, s


def rows_for_bytes(total_bytes: int, payload_columns: int, key_type=INT32, payload_type=INT32) -> int:
    """Rows such that a relation occupies roughly *total_bytes*.

    Used to translate the paper's "1G ⋈ 2G" notation (relation sizes in
    bytes, payload included) into row counts.
    """
    key_b = column_type(key_type).itemsize
    pay_b = column_type(payload_type).itemsize
    row_bytes = key_b + payload_columns * pay_b
    return max(1, total_bytes // row_bytes)


def gb(x: float) -> int:
    """Bytes of x gigabytes (the paper's 1G/2G/3G shorthand)."""
    return int(x * (1 << 30))


def workload_from_gb(
    r_gb: float,
    s_gb: float,
    scale: float = 1.0,
    r_payload_columns: int = 1,
    s_payload_columns: int = 1,
    key_type=INT32,
    payload_type=INT32,
    match_ratio: float = 1.0,
    zipf_factor: float = 0.0,
    seed: int = 0,
) -> JoinWorkloadSpec:
    """Spec for the paper's ``xG ⋈ yG`` notation, optionally down-scaled."""
    r_rows = rows_for_bytes(int(gb(r_gb) * scale), r_payload_columns, key_type, payload_type)
    s_rows = rows_for_bytes(int(gb(s_gb) * scale), s_payload_columns, key_type, payload_type)
    return JoinWorkloadSpec(
        r_rows=r_rows,
        s_rows=s_rows,
        r_payload_columns=r_payload_columns,
        s_payload_columns=s_payload_columns,
        key_type=key_type,
        payload_type=payload_type,
        match_ratio=match_ratio,
        zipf_factor=zipf_factor,
        seed=seed,
    )
