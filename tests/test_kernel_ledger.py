"""The kernel ledger recomputed, and its self-checks.

See :mod:`tests.kernel_ledger` for what a cell hashes and how to
regenerate the record.
"""

from . import kernel_ledger as ledger


def test_every_cell_matches_the_record():
    changed = ledger.changed_cells()
    assert not changed, f"{len(changed)} ledger cells changed: {changed}"


def test_the_record_and_the_grid_name_the_same_cells():
    assert list(ledger.record()) == list(ledger.grid())


def test_every_boundary_cell_stores_its_capacity():
    record = ledger.record()
    for name, cell in ledger.grid().items():
        assert (cell.boundary is not None) == ("capacity_bytes" in record[name]), name


def test_every_fault_cell_injects():
    idle = [name for name, cell in ledger.grid().items()
            if cell.faults and not ledger.checked(name).kernel_faults]
    assert not idle


def test_every_cell_ends_as_its_name_says():
    """Fits at the peak, refuses one byte under, stages under pressure."""
    ends = {"refuses": lambda seen: seen.refused,
            "completes": lambda seen: not seen.refused,
            "staged": lambda seen: seen.staged}
    wrong = [name for name, cell in ledger.grid().items()
             if cell.expect and not ends[cell.expect](ledger.checked(name))]
    assert not wrong
