"""Every join's host peak memory stays inside its budget.

The simulated device charges 4-byte tuple IDs.  The host holds its own
copies of those IDs (hash-table slots, layout orders, merge bounds) at
:func:`~repro.relational.types.id_dtype` width, prices its pricing-only
device buffers as bytes-only reservations, and materializes with one
side's row ids at a time.  These tests take each join's ``tracemalloc``
peak above its inputs, in bytes per row of ``|R| = |S|``, and hold it
under a budget: the value measured when the budgets were set, plus
about 3 B/row of headroom.  A return to 8-byte host IDs adds 4 B/row per
ID array held, so it shows.

The host work must not move the simulated accounting: each case also
runs the join untraced and compares phase peaks, peak bytes and the
``repr`` of the simulated seconds, and pins the phase peaks.

Sector analysis runs sampled, as it does from 2^20 indices up, so the
peak is the join's own and not the exact analysis of a 2^18-row map.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.joins.planner import make_algorithm
from repro.primitives.sector_analysis import set_sector_mode
from repro.relational.relation import Relation

ALGORITHMS = ("PHJ-OM", "SMJ-OM", "SMJ-UM", "PHJ-UM", "NPJ")

#: (log2 rows, payload columns per side) -> algorithm -> B/row budget.
#: Measured when the budgets were set (numpy 2.4.6), in ALGORITHMS
#: order: narrow 2^18 56.8/56.8/56.8/52.8/59.4, wide 2^18
#: 52.1/60.1/60.1/53.0/59.4, narrow 2^22 52.3/52.3/52.3/49.0/58.8.
#: With 8-byte host IDs and zeroed pricing buffers they were 64.8/64.8/
#: 64.8/52.8/110.3, 76.1/84.6/68.6/63.7/110.3 and 64.0/64.0/64.0/51.9/111.0.
#: Since the narrow joins move only keys on the host they are narrow
#: 2^18 44.8/52.8/52.8/49.0/59.4, wide 2^18 52.1/52.1/52.1/52.1/59.4 and
#: narrow 2^22 44.0/52.0/52.0/49.0/58.8; the budgets of the cases that
#: fell by 3 B/row or more followed them down.
BUDGETS = {
    (18, 1): {"PHJ-OM": 48, "SMJ-OM": 56, "SMJ-UM": 56, "PHJ-UM": 52, "NPJ": 63},
    (18, 4): {"PHJ-OM": 55, "SMJ-OM": 63, "SMJ-UM": 63, "PHJ-UM": 56, "NPJ": 63},
    (22, 1): {"PHJ-OM": 47, "SMJ-OM": 55, "SMJ-UM": 55, "PHJ-UM": 52, "NPJ": 62},
}

_MB = 1 << 20

#: (log2 rows, payload columns per side) -> algorithm -> simulated phase
#: peaks in bytes, pinned: host memory work must not move a simulated free.
PHASE_PEAKS = {
    (18, 1): {
        "PHJ-OM": {"transform": 4 * _MB, "match": 4 * _MB},
        "SMJ-OM": {"transform": 4 * _MB, "match": 4 * _MB},
        "SMJ-UM": {"transform": 4 * _MB, "match": 4 * _MB},
        "PHJ-UM": {"transform": 5 * _MB, "match": 5 * _MB},
        "NPJ": {"match": 6 * _MB, "materialize": 2 * _MB},
    },
    (18, 4): {
        "PHJ-OM": {"transform": 4 * _MB, "match": 6 * _MB, "materialize": 4 * _MB},
        "SMJ-OM": {"transform": 4 * _MB, "match": 6 * _MB, "materialize": 5 * _MB},
        "SMJ-UM": {"transform": 4 * _MB, "match": 6 * _MB, "materialize": 2 * _MB},
        "PHJ-UM": {"transform": 5144576, "match": 7241728, "materialize": 2 * _MB},
        "NPJ": {"match": 6 * _MB, "materialize": 2 * _MB},
    },
    (22, 1): {
        "PHJ-OM": {"transform": 64 * _MB, "match": 64 * _MB},
        "SMJ-OM": {"transform": 64 * _MB, "match": 64 * _MB},
        "SMJ-UM": {"transform": 64 * _MB, "match": 64 * _MB},
        "PHJ-UM": {"transform": 83427328, "match": 83427328},
        "NPJ": {"match": 96 * _MB, "materialize": 32 * _MB},
    },
}

SEED = 7


def _relations(log_rows: int, payloads: int):
    """A primary-key R and a uniform foreign-key S, all int32."""
    n = 1 << log_rows
    rng = np.random.default_rng(log_rows)

    def payload_columns(side):
        return [
            (f"{side}{i}", rng.integers(0, 1 << 30, n).astype(np.int32))
            for i in range(payloads)
        ]

    r = Relation(
        [("k", rng.permutation(n).astype(np.int32))] + payload_columns("r"),
        key="k", name="R",
    )
    s = Relation(
        [("k", rng.integers(0, n, n).astype(np.int32))] + payload_columns("s"),
        key="k", name="S",
    )
    return r, s


@pytest.fixture(autouse=True)
def _sampled_sectors():
    previous = set_sector_mode("sampled")
    yield
    set_sector_mode(previous)


def _traced_peak(run):
    """``run()``'s result and its tracemalloc peak above the start."""
    gc.collect()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        result = run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    return result, peak


def _check(name: str, log_rows: int, payloads: int) -> None:
    r, s = _relations(log_rows, payloads)
    algorithm = make_algorithm(name)
    plain = algorithm.join(r, s, seed=SEED)
    traced, peak = _traced_peak(lambda: algorithm.join(r, s, seed=SEED))

    assert traced.phase_aux_peaks == plain.phase_aux_peaks
    assert traced.peak_aux_bytes == plain.peak_aux_bytes
    assert repr(traced.total_seconds) == repr(plain.total_seconds)
    assert plain.phase_aux_peaks == PHASE_PEAKS[log_rows, payloads][name]
    for column, expected in plain.output.columns().items():
        assert np.array_equal(traced.output.column(column), expected)

    per_row = peak / r.num_rows
    budget = BUDGETS[log_rows, payloads][name]
    assert per_row <= budget, (
        f"{name} at 2^{log_rows} rows, {payloads} payload(s) per side: host "
        f"peak {per_row:.1f} B/row above the inputs, budget {budget}"
    )


@pytest.mark.parametrize("payloads", [1, 4], ids=["narrow", "wide"])
@pytest.mark.parametrize("name", ALGORITHMS)
def test_host_peak_within_budget(name, payloads):
    _check(name, 18, payloads)


@pytest.mark.perf
@pytest.mark.parametrize("name", ALGORITHMS)
def test_narrow_host_peak_within_budget_at_2_22(name):
    """The narrow join at 2^22 rows: 32 MB of inputs, about 200 MB of peak."""
    _check(name, 22, 1)
