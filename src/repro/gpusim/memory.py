"""Simulated device memory with peak tracking.

The paper dedicates Section 4.4 (Tables 1 and 2) and Table 5 to the
*peak memory consumption* of the GFUR vs. GFTR patterns.  To reproduce
that analysis, all device-resident arrays in this library are allocated
through a :class:`DeviceMemory` allocator that tracks current and peak
usage, supports scoped phase accounting, and raises
:class:`~repro.errors.DeviceOutOfMemoryError` when the simulated device
capacity is exceeded.

Arrays are real numpy arrays wrapped in :class:`DeviceArray`; freeing a
DeviceArray releases its simulated bytes (the numpy buffer is dropped so
Python can reclaim host memory too).
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import AllocationError, DeviceOutOfMemoryError


class BufferPool:
    """Recycles the *host* ndarrays backing freed device arrays.

    At paper scale (2^27 tuples) joins and group-bys allocate and free
    the same handful of array shapes once per operator; materializing a
    fresh numpy buffer each time dominates host wall-clock.  The pool
    keeps freed backing buffers keyed by ``(shape, dtype)`` and hands
    them back to subsequent allocations.

    Only *simulation-host* cost changes: every allocation served from
    the pool still goes through :meth:`DeviceMemory._register`, so
    ``alloc_count``, current/peak bytes and OOM checks are identical
    with and without pooling.  Only buffers that
    :meth:`DeviceMemory.alloc` produced are recycled, and only when the
    :class:`DeviceArray` held the sole reference (checked by refcount).
    Adopted arrays are dropped on free: nothing allocates their shapes
    again, so holding them would only keep their memory until the
    context dies.

    ``sink`` mirrors the counters into an observability session as
    ``pool.*`` metrics (any object with ``count(name, value)`` and a
    ``metrics.record_max`` — duck-typed so gpusim stays import-free of
    obs).  :class:`~repro.gpusim.context.GPUContext` wires its trace
    session in automatically.
    """

    def __init__(self, max_bytes: int = 8 << 30, sink=None):
        self.max_bytes = int(max_bytes)
        self.sink = sink
        self.pooled_bytes = 0
        self.hits = 0
        self.misses = 0
        self.recycled = 0
        self.dropped = 0
        self._buffers: Dict[Tuple[tuple, str], List[np.ndarray]] = {}

    def _emit(self, name: str, value: float = 1.0) -> None:
        if self.sink is not None:
            self.sink.count(name, value)

    def take(self, shape, dtype) -> Optional[np.ndarray]:
        """A pooled buffer of exactly ``(shape, dtype)``, or ``None``."""
        shape_t = tuple(shape) if isinstance(shape, (tuple, list)) else (int(shape),)
        key = (shape_t, np.dtype(dtype).str)
        stack = self._buffers.get(key)
        if stack:
            data = stack.pop()
            self.pooled_bytes -= data.nbytes
            self.hits += 1
            self._emit("pool.take_hit")
            return data
        self.misses += 1
        self._emit("pool.take_miss")
        return None

    def give(self, data: np.ndarray) -> bool:
        """Offer a buffer back to the pool; False when dropped (pool full)."""
        if self.pooled_bytes + data.nbytes > self.max_bytes:
            self.dropped += 1
            self._emit("pool.dropped")
            return False
        key = (data.shape, data.dtype.str)
        self._buffers.setdefault(key, []).append(data)
        self.pooled_bytes += data.nbytes
        self.recycled += 1
        self._emit("pool.recycled")
        if self.sink is not None:
            self.sink.metrics.record_max("pool.pooled_bytes_peak", self.pooled_bytes)
        return True

    def clear(self) -> int:
        """Drop all pooled buffers; returns the bytes released."""
        released = self.pooled_bytes
        self._buffers.clear()
        self.pooled_bytes = 0
        if released:
            self._emit("pool.cleared_bytes", released)
        return released


class DeviceArray:
    """A device-resident array handle.

    Wraps a numpy array (``.data``) plus the accounting hooks of the
    allocator that produced it.  The underlying numpy semantics are real;
    only the residency accounting is simulated.
    """

    __slots__ = ("_data", "_allocator", "label", "_freed", "nbytes", "_allocated")

    def __init__(
        self, data: np.ndarray, allocator: "DeviceMemory", label: str,
        allocated: bool = False,
    ):
        self._data = data
        self._allocator = allocator
        self.label = label
        self._freed = False
        self.nbytes = int(data.nbytes)
        #: The buffer came from :meth:`DeviceMemory.alloc` (may be pooled).
        self._allocated = allocated

    @property
    def data(self) -> np.ndarray:
        if self._freed:
            raise AllocationError(f"use after free of device array {self.label!r}")
        return self._data

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def freed(self) -> bool:
        return self._freed

    def free(self) -> None:
        """Release this array's simulated bytes back to the device."""
        self._allocator.free(self)

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "freed" if self._freed else f"{self.nbytes} B"
        return f"DeviceArray({self.label!r}, {state})"


class MemoryReservation:
    """A bytes-only claim on a :class:`DeviceMemory` with no backing array.

    The serving layer's admission controller reserves each admitted
    query's estimated working set up front, so concurrent queries cannot
    collectively over-commit the device, and the tier's segment cache
    holds each resident segment as one.  A reservation participates in
    capacity checks, current/peak accounting and the live-allocation
    listing exactly like a :class:`DeviceArray`, but never materializes
    host memory (reserving a simulated 40 GB costs nothing real).
    """

    __slots__ = ("nbytes", "label", "_allocator", "_freed")

    def __init__(self, allocator: "DeviceMemory", nbytes: int, label: str):
        self._allocator = allocator
        self.nbytes = int(nbytes)
        self.label = label
        self._freed = False

    @property
    def freed(self) -> bool:
        return self._freed

    def free(self) -> None:
        """Release the reserved bytes back to the device."""
        self._allocator.release(self)

    def __enter__(self) -> "MemoryReservation":
        return self

    def __exit__(self, *exc) -> None:
        if not self._freed:
            self.free()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "freed" if self._freed else f"{self.nbytes} B"
        return f"MemoryReservation({self.label!r}, {state})"


class DeviceMemory:
    """Tracking allocator for a simulated device.

    Parameters
    ----------
    capacity_bytes:
        Simulated device capacity.  ``None`` disables the OOM check
        (useful for scaled-down unit tests).
    pool:
        An optional :class:`BufferPool` recycling the host buffers of
        freed arrays.  Purely a host-side optimization — simulated
        accounting (counts, current/peak bytes, OOM) is unaffected.
    """

    def __init__(
        self,
        capacity_bytes: Optional[int] = None,
        pool: Optional[BufferPool] = None,
    ):
        self.capacity_bytes = capacity_bytes
        self.pool = pool
        self.current_bytes = 0
        self.peak_bytes = 0
        self._live: Dict[int, DeviceArray] = {}
        self._reservations: Dict[int, MemoryReservation] = {}
        self._phase_peaks: Dict[str, int] = {}
        self._current_phase: Optional[str] = None
        self.alloc_count = 0
        self.free_count = 0
        self.reserve_count = 0
        self.release_count = 0

    # -- allocation --------------------------------------------------------

    def alloc(self, shape, dtype, label: str = "", zeroed: bool = True) -> DeviceArray:
        """Allocate a device array, zero-initialized unless ``zeroed=False``.

        ``zeroed=False`` skips initialization (``np.empty`` semantics) for
        scratch whose contents are never read before being written — e.g.
        accounting-only hash tables.  Simulated accounting is identical.
        """
        data = self.pool.take(shape, dtype) if self.pool is not None else None
        if data is not None:
            if zeroed:
                data.fill(0)
        elif zeroed:
            data = np.zeros(shape, dtype=dtype)
        else:
            data = np.empty(shape, dtype=dtype)
        return self._register(data, label, allocated=True)

    def adopt(self, array: np.ndarray, label: str = "") -> DeviceArray:
        """Register an already-materialized array as device resident.

        This does not copy; use it when the array was just produced by a
        primitive and is logically device memory.
        """
        return self._register(np.ascontiguousarray(array), label)

    def _register(
        self, data: np.ndarray, label: str, allocated: bool = False
    ) -> DeviceArray:
        nbytes = int(data.nbytes)
        if (
            self.capacity_bytes is not None
            and self.current_bytes + nbytes > self.capacity_bytes
        ):
            raise DeviceOutOfMemoryError(
                nbytes,
                self.current_bytes,
                self.capacity_bytes,
                label=label,
                top_live=self.live_allocations(),
            )
        arr = DeviceArray(data, self, label, allocated)
        self._live[id(arr)] = arr
        self.current_bytes += nbytes
        self.alloc_count += 1
        self._note_usage()
        return arr

    def reserve(self, nbytes: int, label: str = "") -> MemoryReservation:
        """Reserve *nbytes* of simulated capacity without a backing array.

        Raises :class:`~repro.errors.DeviceOutOfMemoryError` exactly like
        an allocation would when the reservation does not fit; release
        with :meth:`MemoryReservation.free` (or use it as a context
        manager).
        """
        nbytes = int(nbytes)
        if nbytes < 0:
            raise AllocationError(f"cannot reserve {nbytes} bytes")
        if (
            self.capacity_bytes is not None
            and self.current_bytes + nbytes > self.capacity_bytes
        ):
            raise DeviceOutOfMemoryError(
                nbytes,
                self.current_bytes,
                self.capacity_bytes,
                label=label,
                top_live=self.live_allocations(),
            )
        reservation = MemoryReservation(self, nbytes, label)
        self._reservations[id(reservation)] = reservation
        self.current_bytes += nbytes
        self.reserve_count += 1
        self._note_usage()
        return reservation

    def release(self, reservation: MemoryReservation) -> None:
        if reservation._freed:
            raise AllocationError(
                f"double release of reservation {reservation.label!r}"
            )
        if id(reservation) not in self._reservations:
            raise AllocationError(
                f"reservation {reservation.label!r} not owned by this allocator"
            )
        del self._reservations[id(reservation)]
        self.current_bytes -= reservation.nbytes
        self.release_count += 1
        reservation._freed = True

    def free(self, arr: DeviceArray) -> None:
        if arr._freed:
            raise AllocationError(f"double free of device array {arr.label!r}")
        if id(arr) not in self._live:
            raise AllocationError(f"array {arr.label!r} not owned by this allocator")
        del self._live[id(arr)]
        self.current_bytes -= arr.nbytes
        self.free_count += 1
        arr._freed = True
        data = arr._data
        arr._data = None  # type: ignore[assignment]
        if (
            self.pool is not None
            and arr._allocated
            # arr held the only other reference (local + getrefcount arg
            # + nothing else): no caller still reads the buffer.
            and sys.getrefcount(data) == 2
        ):
            self.pool.give(data)

    def free_all(self, held: Iterable[object]) -> None:
        """Free every array and release every reservation in *held*
        that is still live."""
        for handle in held:
            if not handle.freed:
                handle.free()

    def free_by_prefix(self, *prefixes: str) -> int:
        """Free all live arrays whose label starts with any prefix."""
        victims = [
            arr for arr in self._live.values() if arr.label.startswith(prefixes)
        ]
        for arr in victims:
            self.free(arr)
        return len(victims)

    # -- accounting --------------------------------------------------------

    def _note_usage(self) -> None:
        if self.current_bytes > self.peak_bytes:
            self.peak_bytes = self.current_bytes
        if self._current_phase is not None:
            prev = self._phase_peaks.get(self._current_phase, 0)
            if self.current_bytes > prev:
                self._phase_peaks[self._current_phase] = self.current_bytes

    def set_phase(self, phase: Optional[str]) -> None:
        """Attribute subsequent peak tracking to *phase*."""
        self._current_phase = phase
        if phase is not None:
            prev = self._phase_peaks.get(phase, 0)
            self._phase_peaks[phase] = max(prev, self.current_bytes)

    @property
    def phase_peaks(self) -> Dict[str, int]:
        """Peak bytes observed while each phase was active."""
        return dict(self._phase_peaks)

    @property
    def live_labels(self) -> list:
        """Labels of currently live arrays and reservations."""
        return sorted(
            [arr.label for arr in self._live.values()]
            + [res.label for res in self._reservations.values()]
        )

    def live_allocations(self) -> list:
        """Live ``(label, nbytes)`` pairs, largest first.

        Includes bytes-only reservations — they hold simulated capacity
        just like arrays.  The payload attached to
        :class:`~repro.errors.DeviceOutOfMemoryError` so OOM reports name
        the arrays actually holding device memory.  Ties break on the
        label so the order is deterministic.
        """
        live = [(arr.label, arr.nbytes) for arr in self._live.values()]
        live += [(res.label, res.nbytes) for res in self._reservations.values()]
        return sorted(live, key=lambda pair: (-pair[1], pair[0]))

    @property
    def live_count(self) -> int:
        return len(self._live) + len(self._reservations)

    @property
    def reserved_bytes(self) -> int:
        """Bytes currently held by reservations (no backing arrays)."""
        return sum(res.nbytes for res in self._reservations.values())

    def reset_peak(self) -> None:
        """Forget peak history (current usage is kept)."""
        self.peak_bytes = self.current_bytes
        self._phase_peaks.clear()

    def assert_no_leaks(self, allowed_labels: Iterable[str] = ()) -> None:
        """Raise :class:`AllocationError` if unexpected arrays are live."""
        allowed = set(allowed_labels)
        leaked = [label for label in self.live_labels if label not in allowed]
        if leaked:
            raise AllocationError(f"leaked device arrays: {leaked}")
