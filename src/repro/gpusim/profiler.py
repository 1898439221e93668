"""Nsight-Compute-style counters for simulated kernels.

Table 4 of the paper compares a clustered and an unclustered GATHER with
profiler counters: total cycles, warp instructions, average cycles per
warp instruction, memory read volume, and average sectors per load
request.  :class:`Profiler` reproduces those counters for any sequence of
simulated kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from .device import SECTOR_BYTES, WARP_SIZE, DeviceSpec
from .kernel import KernelRecord, KernelStats

#: Rough number of instructions a warp executes per processed item in a
#: memory-bound primitive (load map, compute address, load value, store).
INSTRUCTIONS_PER_ITEM = 18.5


@dataclass(frozen=True)
class ProfileCounters:
    """Aggregated Nsight-like counters (Table 4 layout)."""

    items: int
    total_cycles: float
    warp_instructions: float
    memory_read_bytes: float
    load_requests: int
    sector_touches: int

    @property
    def cycles_per_warp_instruction(self) -> float:
        if not self.warp_instructions:
            return 0.0
        return self.total_cycles / self.warp_instructions

    @property
    def sectors_per_request(self) -> float:
        if not self.load_requests:
            return 0.0
        return self.sector_touches / self.load_requests

    def as_table_rows(self) -> List[tuple]:
        """Rows in the order Table 4 presents them."""
        return [
            ("Number of items", self.items),
            ("Total cycles", round(self.total_cycles)),
            ("Number of warp instructions", round(self.warp_instructions)),
            ("Avg. cycles per warp instruction", round(self.cycles_per_warp_instruction, 2)),
            ("Memory reads (bytes)", round(self.memory_read_bytes)),
            ("Avg. sectors read per load request", round(self.sectors_per_request, 2)),
        ]


def aggregate_counters(entries: Iterable[Tuple[KernelStats, float]]) -> ProfileCounters:
    """Fold ``(stats, cycles)`` pairs into one Table-4 counter set.

    Shared by :class:`Profiler` (which derives cycles from its device's
    clock) and the trace report exporter (whose kernel events carry the
    cycle count of whichever device submitted them).
    """
    items = 0
    cycles = 0.0
    warp_instr = 0.0
    read_bytes = 0.0
    requests = 0
    sectors = 0
    for stats, kernel_cycles in entries:
        items += stats.items
        cycles += kernel_cycles
        # items/WARP_SIZE warps, each executing INSTRUCTIONS_PER_ITEM
        # instructions per item handled by its lanes.
        warp_instr += (stats.items / WARP_SIZE) * INSTRUCTIONS_PER_ITEM
        read_bytes += stats.seq_read_bytes + stats.random_sector_touches * SECTOR_BYTES
        requests += stats.random_requests
        sectors += stats.random_sector_touches
    return ProfileCounters(
        items=items,
        total_cycles=cycles,
        warp_instructions=warp_instr,
        memory_read_bytes=read_bytes,
        load_requests=requests,
        sector_touches=sectors,
    )


class Profiler:
    """Collects per-kernel records and derives aggregate counters."""

    def __init__(self, device: DeviceSpec):
        self.device = device
        self._records: List[KernelRecord] = []

    def record(self, record: KernelRecord) -> None:
        self._records.append(record)

    def record_many(self, records: List[KernelRecord]) -> None:
        self._records.extend(records)

    def clear(self) -> None:
        self._records.clear()

    @property
    def records(self) -> List[KernelRecord]:
        return list(self._records)

    def counters(self, name_filter: Optional[str] = None) -> ProfileCounters:
        """Aggregate counters over recorded kernels.

        ``name_filter`` restricts aggregation to kernels whose stats name
        contains the given substring (e.g. ``"gather"``).
        """
        return aggregate_counters(
            (r.stats, r.seconds * self.device.clock_hz)
            for r in self._records
            if name_filter is None or name_filter in r.stats.name
        )
