"""PART-AGG and SORT-AGG price what they do not perform exactly as
performing it did.

The kernel ledger (:mod:`tests.kernel_ledger`) was recorded where the
priced partitionings and re-sorts equalled frozen copies that performed
every one on the host; each case checks its ledger cells, for every
radix width a pass plan can take (1-16 bits), raw and hashed, GFTR and
GFUR, plain and under a fault plan at, and one byte under, the peak.
"""

import pytest

from ..kernel_ledger import PART_CAPACITIES, assert_cells


@pytest.mark.parametrize("pattern", ["gftr", "gfur"])
@pytest.mark.parametrize("hashed", ["hashed", "raw"])
@pytest.mark.parametrize("bits", range(1, 17), ids=lambda b: f"bits{b}")
def test_priced_partitions_equal_performed_ones(bits, hashed, pattern):
    assert_cells(f"part-agg/{pattern}/{hashed}/bits{bits}")


@pytest.mark.parametrize("capacity", sorted(PART_CAPACITIES), ids=str)
@pytest.mark.parametrize("bits", [1, 8, 9, 16], ids=lambda b: f"bits{b}")
def test_priced_partitions_equal_performed_ones_under_faults(bits, capacity):
    assert_cells(f"part-agg/faults/bits{bits}/{capacity}")


@pytest.mark.parametrize("capacity", ["unbounded", "fits", "oom"])
@pytest.mark.parametrize("key_dtype", ["int32", "int64"])
@pytest.mark.parametrize("pattern", ["gftr", "gfur"])
def test_sort_agg_prices_its_resorts_as_it_performed_them(pattern, key_dtype, capacity):
    assert_cells(f"sort-agg/{pattern}/{key_dtype}/resorts/{capacity}")
