"""Cost-based placement policy for the segment cache.

A clock-style policy with two inputs beyond recency:

* **per-segment access counters** (recorded in ``obs`` as ``tier.*``
  metrics) with exponential decay, so bursts age out; and
* **template popularity** fed by the serving layer's Zipf workload
  stats (:meth:`PlacementPolicy.note_popularity`), so segments of
  relations referenced by popular templates win placement even before
  their own access history accumulates.

Admission evicts victims only with *hysteresis*: a resident segment is
evictable once it has been resident for ``min_residency_ticks``
placement passes **and** the candidate outscores it by the
``hysteresis`` ratio.  Segments touched by the operator currently being
placed are pinned for the duration of that pass, so one operator never
thrashes its own working set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .segments import SegmentKey


@dataclass
class SegmentStats:
    """Decayed access history of one segment."""

    accesses: float = 0.0
    last_tick: int = 0
    admitted_tick: int = -1


class PlacementPolicy:
    """Scores segments and picks eviction victims.

    ``score = decayed_accesses * relation_popularity / segment_bytes`` —
    expected near-term hits per resident byte.  The CPU-vs-GPU benefit
    per byte is a device-pair constant here (all segments move between
    the same two tiers), so it scales every score equally and is folded
    out of the comparison.
    """

    def __init__(
        self,
        min_residency_ticks: int = 2,
        hysteresis: float = 1.25,
        access_decay: float = 0.85,
        popularity_decay: float = 0.98,
    ):
        if hysteresis < 1.0:
            raise ValueError(f"hysteresis must be >= 1, got {hysteresis}")
        self.min_residency_ticks = int(min_residency_ticks)
        self.hysteresis = float(hysteresis)
        self.access_decay = float(access_decay)
        self.popularity_decay = float(popularity_decay)
        self._stats: Dict[SegmentKey, SegmentStats] = {}
        self._popularity: Dict[str, Tuple[float, int]] = {}
        self.tick = 0

    # -- inputs --------------------------------------------------------------

    def begin_pass(self) -> int:
        """Advance the placement clock; one tick per operator placement."""
        self.tick += 1
        return self.tick

    def note_access(self, key: SegmentKey, weight: float = 1.0) -> None:
        """Record one access to *key* (decays previous history)."""
        stats = self._stats.get(key)
        if stats is None:
            stats = self._stats[key] = SegmentStats(last_tick=self.tick)
        else:
            stats.accesses *= self.access_decay ** (self.tick - stats.last_tick)
            stats.last_tick = self.tick
        stats.accesses += weight

    def note_admitted(self, key: SegmentKey) -> None:
        stats = self._stats.setdefault(key, SegmentStats(last_tick=self.tick))
        stats.admitted_tick = self.tick

    def note_evicted(self, key: SegmentKey) -> None:
        stats = self._stats.get(key)
        if stats is not None:
            stats.admitted_tick = -1

    def note_popularity(self, relation: str, weight: float = 1.0) -> None:
        """Fold one workload arrival touching *relation* into its EMA.

        The serving layer calls this per submitted query per scanned
        relation.  The EMA decays with the placement *clock*, not per
        arrival, so its steady state is proportional to the relation's
        arrival rate: a template drawn every pass converges ~25x higher
        than one drawn every 50 passes (at the default decay), which is
        what lets scoring separate a Zipf head from its tail.
        """
        value, last_tick = self._popularity.get(relation, (0.0, self.tick))
        value *= self.popularity_decay ** (self.tick - last_tick)
        self._popularity[relation] = (value + weight, self.tick)

    def popularity(self, relation: str) -> float:
        """Popularity multiplier; 1.0 for relations never reported."""
        entry = self._popularity.get(relation)
        if entry is None:
            return 1.0
        value, last_tick = entry
        return 1.0 + value * self.popularity_decay ** (self.tick - last_tick)

    # -- scoring -------------------------------------------------------------

    def effective_accesses(self, key: SegmentKey) -> float:
        stats = self._stats.get(key)
        if stats is None:
            return 0.0
        return stats.accesses * self.access_decay ** (self.tick - stats.last_tick)

    def score(self, key: SegmentKey, nbytes: int) -> float:
        """Expected benefit of residency per byte."""
        return (
            self.effective_accesses(key)
            * self.popularity(key.relation)
            / max(1, int(nbytes))
        )

    # -- eviction ------------------------------------------------------------

    def rank_victims(
        self,
        resident: Iterable[Tuple[SegmentKey, int]],
        live: Callable[[SegmentKey], bool],
    ) -> "VictimRanking":
        """Rank the evictable *resident* segments once for a placement pass.

        A segment is evictable while ``live(key)`` holds (it is still
        resident and outside the pass's protected set) and once its
        residency age passed ``min_residency_ticks``.  Within a pass the
        tick and the scores are fixed, so one ranking serves every
        candidate of the pass.
        """
        ranked: List[Tuple[float, SegmentKey, int]] = []
        for key, nbytes in resident:
            if not live(key):
                continue
            stats = self._stats.get(key)
            if (
                stats is not None
                and stats.admitted_tick >= 0
                and self.tick - stats.admitted_tick < self.min_residency_ticks
            ):
                continue  # residency hysteresis: too recently admitted
            ranked.append((self.score(key, nbytes), key, nbytes))
        ranked.sort(key=lambda item: (item[0], item[1]))
        return VictimRanking(ranked, self.hysteresis, live)

    def forget(self, relation: str) -> None:
        """Drop all history for *relation* (after an update/invalidation)."""
        self._stats = {
            key: stats
            for key, stats in self._stats.items()
            if key.relation != relation
        }
        self._popularity.pop(relation, None)


class VictimRanking:
    """The evictable segments of one placement pass, cheapest first.

    Built by :meth:`PlacementPolicy.rank_victims`.  A key stops being
    ``live`` when it is evicted or protected during the pass; the walk
    skips it.
    """

    def __init__(
        self,
        ranked: List[Tuple[float, SegmentKey, int]],
        hysteresis: float,
        live: Callable[[SegmentKey], bool],
    ):
        self._ranked = ranked
        self._hysteresis = hysteresis
        self._live = live

    def choose(
        self, needed_bytes: int, candidate_score: float
    ) -> Optional[List[SegmentKey]]:
        """Victims freeing >= *needed_bytes*, or ``None`` to decline.

        Only segments whose score (scaled by the hysteresis ratio) is
        below *candidate_score* are evictable: the walk stops at the
        first one that is not, declining rather than evicting better
        segments.  The caller evicts the victims returned.
        """
        victims: List[SegmentKey] = []
        freed = 0
        for score, key, nbytes in self._ranked:
            if score * self._hysteresis >= candidate_score:
                return None  # not clearly worse than the candidate
            if not self._live(key):
                continue
            victims.append(key)
            freed += nbytes
            if freed >= needed_bytes:
                return victims
        return None
