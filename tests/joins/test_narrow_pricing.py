"""Every narrow join prices and answers exactly as its moving loops did.

The kernel ledger (:mod:`tests.kernel_ledger`) was recorded where the
live narrow SMJ-UM, SMJ-OM, PHJ-OM and PHJ-UM equalled frozen copies of
the paths that moved every transformed column on the host; each case
checks its ledger cells, for int32 and int64 keys, unique and
duplicated build keys, no payload or one, raw and hashed partitioning,
and under a fault plan with the device at the peak and one byte under.
"""

import pytest

from ..kernel_ledger import NARROW_JOINS, NARROW_PAYLOADS, assert_cells


@pytest.mark.parametrize("hashed", ["raw", "hashed"])
@pytest.mark.parametrize("duplicated", ["unique", "duplicated"])
@pytest.mark.parametrize("payloads", sorted(NARROW_PAYLOADS))
@pytest.mark.parametrize("key_dtype", ["int32", "int64"])
@pytest.mark.parametrize("name", sorted(NARROW_JOINS))
def test_narrow_join_equals_the_frozen_moving_loops(name, key_dtype, payloads, duplicated, hashed):
    assert_cells(f"narrow/{name}/{key_dtype}/{payloads}/{duplicated}/{hashed}")


@pytest.mark.parametrize("capacity", ["unbounded", "fits", "oom"])
@pytest.mark.parametrize("key_dtype", ["int32", "int64"])
@pytest.mark.parametrize("name", sorted(NARROW_JOINS))
def test_narrow_join_equals_the_frozen_moving_loops_under_faults(name, key_dtype, capacity):
    assert_cells(f"narrow/{name}/{key_dtype}/faults/{capacity}")
