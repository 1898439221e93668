"""Join-algorithm selection heuristics (Figure 18, Section 5.4).

The paper distills its performance study into two decision trees:

* Figure 18a — pick among SMJ-UM / SMJ-OM / PHJ-UM / PHJ-OM given the
  workload's width, match ratio, foreign-key skew, and data types;
* Figure 18b — the SMJ-OM vs SMJ-UM sub-decision.

The planner works from a :class:`JoinWorkloadProfile` — statistics an
optimizer would have (cardinalities, column widths, estimated match
ratio, skew) — and returns a recommendation with the reasoning trace, so
the choice is auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..relational.relation import Relation

#: Zipf factor beyond which the paper observes PHJ-UM's bucket-chain
#: partitioning degrading (Figure 14: "as the Zipf factor grows and
#: exceeds 1").
SKEW_THRESHOLD = 1.0

#: Match ratio below which unclustered gathers are cheap enough that
#: GFUR wins (Figure 13: "when the ratio drops below 25%").
LOW_MATCH_RATIO = 0.25


@dataclass
class JoinWorkloadProfile:
    """Optimizer-visible statistics of a prospective join."""

    r_rows: int
    s_rows: int
    r_payload_columns: int
    s_payload_columns: int
    key_bytes: int = 4
    payload_bytes: int = 4
    match_ratio: float = 1.0
    zipf_factor: float = 0.0

    @classmethod
    def from_relations(
        cls,
        r: Relation,
        s: Relation,
        match_ratio: float = 1.0,
        zipf_factor: float = 0.0,
    ) -> "JoinWorkloadProfile":
        payload_bytes = max(
            [a.dtype.itemsize for a in r.payload_columns().values()]
            + [a.dtype.itemsize for a in s.payload_columns().values()]
            + [4]
        )
        return cls(
            r_rows=r.num_rows,
            s_rows=s.num_rows,
            r_payload_columns=r.num_payload_columns,
            s_payload_columns=s.num_payload_columns,
            key_bytes=r.key_values.dtype.itemsize,
            payload_bytes=payload_bytes,
            match_ratio=match_ratio,
            zipf_factor=zipf_factor,
        )

    @property
    def is_narrow(self) -> bool:
        """A "narrow" join: at most one payload column per relation."""
        return self.r_payload_columns <= 1 and self.s_payload_columns <= 1

    @property
    def is_skewed(self) -> bool:
        return self.zipf_factor > SKEW_THRESHOLD

    @property
    def has_wide_values(self) -> bool:
        return self.key_bytes > 4 or self.payload_bytes > 4


@dataclass
class Recommendation:
    """An algorithm choice plus the decision path that produced it."""

    algorithm: str
    reasons: List[str] = field(default_factory=list)

    def explain(self) -> str:
        return f"{self.algorithm}: " + "; ".join(self.reasons)


def recommend_join_algorithm(profile: JoinWorkloadProfile) -> Recommendation:
    """Figure 18a: the best of the four implementations for a workload.

    >>> wide = JoinWorkloadProfile(r_rows=1 << 20, s_rows=1 << 20,
    ...                            r_payload_columns=4, s_payload_columns=4)
    >>> recommend_join_algorithm(wide).algorithm
    'PHJ-OM'
    >>> narrow = JoinWorkloadProfile(1 << 20, 1 << 20, 1, 1)
    >>> recommend_join_algorithm(narrow).algorithm
    'PHJ-UM'
    """
    reasons: List[str] = []
    if profile.is_narrow:
        reasons.append("narrow join: materialization is negligible, PHJ transform is cheapest")
        if profile.is_skewed:
            reasons.append("skewed foreign keys: bucket-chain partitioning degrades, use RADIX-PARTITION")
            return Recommendation("PHJ-OM", reasons)
        reasons.append("uniform keys: bucket chaining is marginally cheaper")
        return Recommendation("PHJ-UM", reasons)

    if profile.match_ratio < LOW_MATCH_RATIO:
        reasons.append(
            f"match ratio {profile.match_ratio:.0%} < {LOW_MATCH_RATIO:.0%}: "
            "few tuples materialize, GFUR's cheap transform wins"
        )
        if profile.is_skewed:
            reasons.append(
                "skewed foreign keys: bucket chains degrade, and GFTR's "
                "payload transforms are wasted at a low match ratio — "
                "the consistent sort of SMJ-UM wins (Figure 18a's "
                "skewed-wide branch)"
            )
            return Recommendation("SMJ-UM", reasons)
        return Recommendation("PHJ-UM", reasons)

    reasons.append("wide join with a high match ratio: materialization dominates, GFTR pays off")
    if profile.is_skewed:
        reasons.append("skewed foreign keys: RADIX-PARTITION stays balanced")
    if profile.has_wide_values:
        reasons.append("8-byte values: partitioning stays cheap where sorting does not")
    reasons.append("partitioning needs ~2 RADIX-PARTITION invocations per column vs 4+ for sorting")
    return Recommendation("PHJ-OM", reasons)


def recommend_smj_variant(profile: JoinWorkloadProfile) -> Recommendation:
    """Figure 18b: SMJ-OM vs SMJ-UM when restricted to sort-merge joins.

    >>> wide = JoinWorkloadProfile(r_rows=1 << 20, s_rows=1 << 20,
    ...                            r_payload_columns=4, s_payload_columns=4)
    >>> recommend_smj_variant(wide).algorithm
    'SMJ-OM'
    >>> recommend_smj_variant(JoinWorkloadProfile(1 << 20, 1 << 20, 1, 1)).algorithm
    'SMJ-UM'
    """
    reasons: List[str] = []
    if profile.is_narrow:
        reasons.append("narrow join: the variants coincide (nothing extra to sort)")
        return Recommendation("SMJ-UM", reasons)
    if profile.match_ratio < LOW_MATCH_RATIO:
        reasons.append("low match ratio: unclustered gathers touch little data")
        return Recommendation("SMJ-UM", reasons)
    if profile.has_wide_values:
        reasons.append("8-byte keys/payloads: sorting every payload column is too expensive")
        return Recommendation("SMJ-UM", reasons)
    if profile.is_skewed:
        reasons.append(
            "high skew: few primary keys match, shrinking materialization; "
            "SMJ-UM's consistent sort wins"
        )
        return Recommendation("SMJ-UM", reasons)
    reasons.append("wide 4-byte join with high match ratio: clustered gathers amortize the extra sorts")
    return Recommendation("SMJ-OM", reasons)


def make_algorithm(name: str, config=None):
    """Instantiate a join algorithm by its paper name.

    Accepts SMJ-UM, SMJ-OM, PHJ-UM, PHJ-OM, PHJ-OM/gfur, NPJ, CPU.

    >>> make_algorithm("PHJ-OM").name
    'PHJ-OM'
    >>> make_algorithm("FOO")
    Traceback (most recent call last):
        ...
    KeyError: "unknown join algorithm 'FOO'; known: ['CPU', 'NPJ', 'PHJ-OM', 'PHJ-OM/gfur', 'PHJ-UM', 'SMJ-OM', 'SMJ-UM']"
    """
    from .cpu_radix import CPURadixJoin
    from .npj import NonPartitionedHashJoin
    from .phj import PartitionedHashJoin
    from .phj_bucket import PartitionedHashJoinUM
    from .smj import SortMergeJoinOM, SortMergeJoinUM

    factories = {
        "SMJ-UM": lambda: SortMergeJoinUM(config),
        "SMJ-OM": lambda: SortMergeJoinOM(config),
        "PHJ-UM": lambda: PartitionedHashJoinUM(config),
        "PHJ-OM": lambda: PartitionedHashJoin(config),
        "PHJ-OM/gfur": lambda: PartitionedHashJoin(config, pattern="gfur"),
        "NPJ": lambda: NonPartitionedHashJoin(config),
        "CPU": lambda: CPURadixJoin(config),
    }
    try:
        return factories[name]()
    except KeyError:
        raise KeyError(
            f"unknown join algorithm {name!r}; known: {sorted(factories)}"
        ) from None


def resolve_join_algorithm(
    algorithm: str,
    r: Relation,
    s: Relation,
    match_ratio: Optional[float] = None,
    zipf_factor: float = 0.0,
) -> Recommendation:
    """The one resolver of a join's algorithm name.

    An explicit name passes through; ``"auto"`` profiles the *global*
    relations and runs the Figure 18a tree, so every execution mode
    (plain, resilient, sharded -- where every shard then runs the same
    algorithm -- and the tier's fallback) picks what the single-device
    planner would.  ``match_ratio``/``zipf_factor`` are optimizer hints
    (unknown match ratio means 1.0).

    >>> import numpy as np
    >>> r = Relation.from_key_payloads(
    ...     np.arange(64, dtype=np.int32),
    ...     [np.arange(64, dtype=np.int32)], payload_prefix="r")
    >>> resolve_join_algorithm("auto", r, r).algorithm
    'PHJ-UM'
    >>> resolve_join_algorithm("auto", r, r, zipf_factor=1.5).algorithm
    'PHJ-OM'
    >>> resolve_join_algorithm("SMJ-OM", r, r).algorithm
    'SMJ-OM'
    """
    if algorithm != "auto":
        return Recommendation(algorithm, ["requested explicitly"])
    profile = JoinWorkloadProfile.from_relations(
        r, s, match_ratio=match_ratio if match_ratio is not None else 1.0,
        zipf_factor=zipf_factor,
    )
    return recommend_join_algorithm(profile)


def planner_choice(
    r: Relation,
    s: Relation,
    match_ratio: Optional[float] = None,
    zipf_factor: float = 0.0,
):
    """Convenience: profile two relations and instantiate the best join.

    >>> import numpy as np
    >>> r = Relation.from_key_payloads(
    ...     np.arange(64, dtype=np.int32),
    ...     [np.arange(64, dtype=np.int32)], payload_prefix="r")
    >>> s = Relation.from_key_payloads(
    ...     np.arange(64, dtype=np.int32),
    ...     [np.arange(64, dtype=np.int32)], payload_prefix="s")
    >>> impl, recommendation = planner_choice(r, s)
    >>> impl.name == recommendation.algorithm == 'PHJ-UM'
    True
    """
    recommendation = resolve_join_algorithm("auto", r, s, match_ratio, zipf_factor)
    return make_algorithm(recommendation.algorithm), recommendation
