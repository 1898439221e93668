"""Device-resident segment cache.

The cache keeps metadata, not data: each hot segment is a bytes-only
:class:`~repro.gpusim.memory.MemoryReservation` in a
:class:`~repro.gpusim.memory.DeviceMemory`, labelled
``tier:<relation.column[index]>``.  Operators compute their values over
the host relation and only price the hot/cold split, so nothing reads a
device copy of a segment and none is made.  Residency still competes
with everything else that memory backs — the serving layer's admission
reservations in particular — and device-OOM pressure is felt as real
reservation failures, which the cache converts into graceful admission
declines instead of query failures.

Accounting invariant (property-tested): ``resident_bytes`` equals the
sum of the resident segments' sizes across any interleaving of
admissions, evictions, demotions and pressure shrinks.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Set, Tuple

from ..errors import DeviceOutOfMemoryError
from ..gpusim.memory import DeviceMemory, MemoryReservation
from .policy import PlacementPolicy
from .segments import SegmentKey


class SegmentCache:
    """Maps :class:`SegmentKey` -> the :class:`MemoryReservation` holding it.

    Parameters
    ----------
    memory:
        The :class:`DeviceMemory` backing residency.  May be private to
        the cache or shared with the serving layer's admission
        controller (then reservations and segments compete for bytes).
    capacity_bytes:
        The cache's own byte budget within *memory*; admissions beyond
        it are declined even if *memory* itself has room.  ``None``
        defers entirely to *memory*'s capacity.
    """

    def __init__(self, memory: DeviceMemory, capacity_bytes: Optional[int] = None):
        self.memory = memory
        self.capacity_bytes = capacity_bytes
        #: effective cap under fault-injected capacity pressure (<= capacity)
        self.pressure_capacity_bytes: Optional[int] = None
        self._resident: "OrderedDict[SegmentKey, MemoryReservation]" = OrderedDict()
        self.resident_bytes = 0
        # cumulative counters (mirrored into obs as tier.* metrics)
        self.hits = 0
        self.misses = 0
        self.hit_bytes = 0
        self.miss_bytes = 0
        self.admissions = 0
        self.admitted_bytes = 0
        self.evictions = 0
        self.evicted_bytes = 0
        self.demotions = 0
        self.demoted_bytes = 0
        self.pressure_demotions = 0
        self.declined = 0

    # -- capacity ------------------------------------------------------------

    @property
    def effective_capacity_bytes(self) -> Optional[int]:
        caps = [
            cap
            for cap in (self.capacity_bytes, self.pressure_capacity_bytes)
            if cap is not None
        ]
        return min(caps) if caps else None

    def can_fit(self, nbytes: int) -> bool:
        cap = self.effective_capacity_bytes
        if cap is not None and self.resident_bytes + nbytes > cap:
            return False
        if (
            self.memory.capacity_bytes is not None
            and self.memory.current_bytes + nbytes > self.memory.capacity_bytes
        ):
            return False
        return True

    def apply_pressure(self, capacity_bytes: Optional[int]) -> int:
        """Constrain the cache to *capacity_bytes* (``None`` lifts it).

        Demotes segments until the budget holds — the graceful response
        to fault-injected ``capacity_frac`` pressure; queries keep
        completing with the demoted segments served by the CPU tier.
        Returns the bytes demoted.
        """
        self.pressure_capacity_bytes = capacity_bytes
        if capacity_bytes is None or self.resident_bytes <= capacity_bytes:
            return 0
        freed = self.demote_bytes(self.resident_bytes - capacity_bytes)
        self.pressure_demotions += 1
        return freed

    # -- lookup --------------------------------------------------------------

    def is_resident(self, key: SegmentKey) -> bool:
        return key in self._resident

    def record_access(self, hit: bool, nbytes: int) -> None:
        if hit:
            self.hits += 1
            self.hit_bytes += int(nbytes)
        else:
            self.misses += 1
            self.miss_bytes += int(nbytes)

    @property
    def hit_ratio(self) -> float:
        """Byte-weighted fraction of segment reads served from the cache."""
        total = self.hit_bytes + self.miss_bytes
        return self.hit_bytes / total if total else 0.0

    def resident_items(self) -> List[Tuple[SegmentKey, int]]:
        return [(key, held.nbytes) for key, held in self._resident.items()]

    def resident_keys(self) -> List[SegmentKey]:
        return list(self._resident)

    # -- placement ops -------------------------------------------------------

    def admit(self, key: SegmentKey, nbytes: int) -> bool:
        """Reserve *nbytes* of device memory for *key*; False = declined.

        A decline (budget exhausted or the backing memory raising OOM,
        e.g. because serving reservations hold the bytes) leaves the
        segment cold — never an error.
        """
        if key in self._resident:
            return True
        nbytes = int(nbytes)
        if not self.can_fit(nbytes):
            self.declined += 1
            return False
        try:
            held = self.memory.reserve(nbytes, label=f"tier:{key.describe()}")
        except DeviceOutOfMemoryError:
            self.declined += 1
            return False
        self._resident[key] = held
        self.resident_bytes += nbytes
        self.admissions += 1
        self.admitted_bytes += nbytes
        return True

    def evict(self, key: SegmentKey, demotion: bool = False) -> int:
        """Drop *key* from the device; returns the bytes freed.

        Segments mirror read-only host columns, so eviction needs no
        writeback — the reservation is simply released.
        """
        held = self._resident.pop(key, None)
        if held is None:
            return 0
        nbytes = held.nbytes
        held.free()
        self.resident_bytes -= nbytes
        if demotion:
            self.demotions += 1
            self.demoted_bytes += nbytes
        else:
            self.evictions += 1
            self.evicted_bytes += nbytes
        return nbytes

    def demote_bytes(
        self,
        nbytes: int,
        policy: Optional[PlacementPolicy] = None,
        protect: Optional[Set[SegmentKey]] = None,
    ) -> int:
        """Demote >= *nbytes* of resident segments (best effort).

        Cheapest-first by policy score when a policy is given, FIFO
        otherwise.  Used by admission interplay (the server frees cache
        bytes before blocking a query or rejecting it as oversized) and
        capacity pressure.  Returns the bytes actually freed.
        """
        protect = protect or set()
        order = [key for key in self._resident if key not in protect]
        if policy is not None:
            order.sort(key=lambda key: (policy.score(key, self._resident[key].nbytes), key))
        freed = 0
        for key in order:
            if freed >= nbytes:
                break
            if policy is not None:
                policy.note_evicted(key)
            freed += self.evict(key, demotion=True)
        return freed

    def evict_relation(self, relation: str) -> int:
        """Evict every resident segment of *relation* (post-update)."""
        victims = [key for key in self._resident if key.relation == relation]
        freed = 0
        for key in victims:
            freed += self.evict(key, demotion=True)
        return freed

    def clear(self) -> int:
        """Drop everything resident; returns the bytes freed."""
        return self.demote_bytes(self.resident_bytes) if self._resident else 0

    def assert_consistent(self) -> None:
        """Raise if ``resident_bytes`` drifted from the resident set."""
        actual = sum(held.nbytes for held in self._resident.values())
        if actual != self.resident_bytes:
            raise AssertionError(
                f"segment accounting drift: resident_bytes={self.resident_bytes} "
                f"!= sum of resident segments {actual}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SegmentCache({len(self._resident)} segments, "
            f"{self.resident_bytes} B resident)"
        )
