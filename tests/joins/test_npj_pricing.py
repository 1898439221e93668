"""NPJ prices and answers exactly as it did with an int64 host table.

The kernel ledger (:mod:`tests.kernel_ledger`) was recorded where the
live join equalled its ``_execute`` over frozen copies of the int64
``build_table`` and ``probe_table``; each case checks its ledger cells,
for int32 and int64 relations, unique and duplicated, under a fault
plan, and ``_execute`` alone on int32, int64 and uint32 key arrays.
"""

import numpy as np
import pytest

from ..kernel_ledger import assert_cells, npj_join, npj_tiny_relations


@pytest.mark.parametrize("payloads", [1, 3])
@pytest.mark.parametrize("duplicated", ["unique", "duplicated"])
@pytest.mark.parametrize("key_dtype", ["int32", "int64"])
def test_npj_equals_the_frozen_int64_table(key_dtype, duplicated, payloads):
    assert_cells(f"npj/{key_dtype}/{duplicated}/{payloads}")


@pytest.mark.parametrize("key_dtype", ["int32", "int64"])
def test_npj_equals_the_frozen_int64_table_under_faults(key_dtype):
    assert_cells(f"npj/{key_dtype}/faults")


@pytest.mark.parametrize("r_rows", [0, 1])
def test_npj_empty_and_single_row_builds(r_rows):
    assert npj_join(*npj_tiny_relations(r_rows)).matches == 2 * r_rows
    assert_cells(f"npj/tiny/{r_rows}")


@pytest.mark.parametrize("duplicated", ["unique", "duplicated"])
@pytest.mark.parametrize("key_dtype", [np.int32, np.int64, np.uint32],
                         ids=lambda d: np.dtype(d).name)
def test_npj_execute_equals_the_frozen_int64_table(key_dtype, duplicated):
    assert_cells(f"npj/execute/{np.dtype(key_dtype).name}/{duplicated}")
