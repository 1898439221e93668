"""Host staging: run an operator in pieces through host memory.

The one staging design of both out-of-core operators (the paper's
out-of-memory related work, [35, 55, 60]).  The fan-out is the smallest
power of two whose pieces fit the device budget.  One piece transfers
the whole input in, runs the in-memory operator and transfers its
output back.  More pieces radix-partition the input *on the host* by
hashed key bits first, then do the same per non-empty piece, each on a
fresh device context that keeps the plan's transient kernel faults (at
its own injection site) but not its memory pressure, which staging
exists to escape.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

import numpy as np

from ..gpusim.context import GPUContext
from ..gpusim.device import CPU_SERVER, DeviceSpec
from ..gpusim.kernel import KernelStats
from .grouping import bucket_rows
from .radix_partition import partition_codes

#: Upper bound on the fan-out: one 8-bit host partitioning pass (the
#: device partitioner's per-pass limit).
MAX_PIECES = 256


def staging_budget(budget: Optional[int], device: DeviceSpec, error) -> int:
    """*budget* bytes (``None``: the device's capacity); raises *error*
    for a budget that is not positive."""
    budget = device.global_mem_bytes if budget is None else budget
    if budget <= 0:
        raise error(f"device budget must be positive, got {budget}")
    return budget


def fan_out(footprint: int, budget: int, min_pieces: int = 1) -> int:
    """Pieces that stage *footprint* bytes under *budget*: a power of
    two, at least *min_pieces*, at most :data:`MAX_PIECES` (1 = fits)."""
    pieces = 1
    if footprint > budget:
        pieces = 1 << max(1, math.ceil(math.log2(footprint / budget)))
    pieces = max(pieces, min_pieces)
    return min(MAX_PIECES, 1 << math.ceil(math.log2(max(1, pieces))))


class HostStager:
    """The host side of one staged run; the pieces' results collect in
    :attr:`results`.  *site* names the pieces' fault-injection sites
    (``gpu/<site><i>``) and *output_bytes* sizes a result's transfer back.
    """

    def __init__(self, device: DeviceSpec, seed: Optional[int], fault_plan, site: str,
                 output_bytes: Callable[[object], int], host_device: DeviceSpec = CPU_SERVER):
        self.device = device
        self.seed = seed
        self.fault_plan = None if fault_plan is None else fault_plan.without_capacity()
        self.site = site
        self.output_bytes = output_bytes
        self.host = GPUContext(device=host_device, seed=seed)
        self.transfers = GPUContext(device=device, seed=seed)
        self.results: List = []
        self.partitioned = False

    def partition(self, keys: np.ndarray, nbytes: int, pieces: int) -> List[np.ndarray]:
        """Row ids of each of *pieces* buckets of hashed *keys* bits,
        charged as host streaming of the *nbytes* split: one read and
        one write per 8-bit pass, like the device partitioner."""
        bits = pieces.bit_length() - 1
        passes = max(1, -(-bits // 8))
        self.host.submit(
            KernelStats(
                name="host_partition",
                items=int(keys.size) * passes,
                seq_read_bytes=nbytes * passes,
                seq_write_bytes=nbytes * passes,
                launches=0,
            ),
            phase="host_partition",
        )
        self.partitioned = True
        return bucket_rows(partition_codes(keys, bits, hashed=True), pieces)

    def run(self, piece: Optional[int], in_bytes: int, inner: Callable[[GPUContext], object]):
        """Transfer *in_bytes* in, run *inner* on piece *piece*'s device
        context (``None``: the whole input, unpartitioned), transfer its
        output back and return its result."""
        suffix = "" if piece is None else f"_{piece}"
        index = piece or 0
        self._transfer(in_bytes, f"transfer_in{suffix}")
        result = inner(GPUContext(
            device=self.device, seed=None if self.seed is None else self.seed + index,
            fault_plan=self.fault_plan, fault_site=f"gpu/{self.site}{index}",
        ))
        self._transfer(self.output_bytes(result), f"transfer_out{suffix}")
        self.results.append(result)
        return result

    def phase_seconds(self, **between: float) -> Dict[str, float]:
        """``host-partition`` (partitioned runs only), ``transfer``, the
        operator's *between* phases and ``device`` (the pieces' summed
        seconds), in the order the total adds them."""
        phases = {"host-partition": self.host.elapsed_seconds} if self.partitioned else {}
        phases["transfer"] = self.transfers.elapsed_seconds
        phases.update(between)
        phases["device"] = sum(result.total_seconds for result in self.results)
        return phases

    def _transfer(self, num_bytes: int, label: str) -> None:
        self.transfers.submit(
            KernelStats(name=label, host_transfer_bytes=int(num_bytes), launches=0),
            phase="transfer",
        )
