"""Every wide join materializes exactly as its own hand-written loop did.

The kernel ledger (:mod:`tests.kernel_ledger`) was recorded where the
shared materializer, :func:`repro.joins.base.materialize`, equalled
frozen copies of the loops that performed every transform and gather on
the host, for PHJ-OM (GFTR and GFUR), SMJ-UM, SMJ-OM, PHJ-UM and NPJ,
with int32 and int64 keys, plain and under a fault plan at, and one byte
under, the peak; each case checks its ledger cells.
"""

import pytest

from repro.gpusim import GPUContext
from repro.joins.base import MATERIALIZE, JoinConfig
from repro.joins.planner import make_algorithm
from repro.obs.session import KERNEL, TraceSession

from ..kernel_ledger import WIDE_CASES, WIDE_JOINS, assert_cells, wide_relations


@pytest.mark.parametrize("case", sorted(WIDE_CASES))
@pytest.mark.parametrize("key_dtype", ["int32", "int64"])
@pytest.mark.parametrize("name", sorted(WIDE_JOINS))
def test_shared_materializer_equals_the_frozen_loops(name, key_dtype, case):
    assert_cells(f"wide/{name}/{key_dtype}/{case}")


@pytest.mark.parametrize("capacity", ["unbounded", "fits", "oom"])
@pytest.mark.parametrize("key_dtype", ["int32", "int64"])
@pytest.mark.parametrize("name", sorted(WIDE_JOINS))
def test_shared_materializer_equals_the_frozen_loops_under_faults(name, key_dtype, capacity):
    assert_cells(f"wide/{name}/{key_dtype}/faults/{capacity}")


@pytest.mark.parametrize("name", ["PHJ-OM", "SMJ-OM"])
def test_lazy_transforms_charge_no_boundaries_and_hold_no_arrays(name):
    """Algorithm 1's lazy transforms reuse the transform phase's layout:
    no boundary pass, and the transformed columns are bytes-only."""
    r, s = wide_relations("int32", "match", 3)
    with TraceSession() as session:
        ctx = GPUContext(seed=5)
        make_algorithm(name, JoinConfig(**WIDE_CASES["mixed"][0])).join(r, s, ctx=ctx)
    lazy = [
        e.name for e in session.events
        if e.category == KERNEL and e.args["phase"] == MATERIALIZE
        and not e.name.startswith("gather:")
    ]
    boundaries = [e.name for e in session.events if e.name == "partition_boundaries"]
    # One lazy transform per payload after each side's first.
    transforms = {"PHJ-OM": "radix_partition:", "SMJ-OM": "sort_pairs:"}[name]
    assert {k.split(":")[1] for k in lazy} == {"b", "c", "key_s", "d"}
    assert all(k.startswith(transforms) for k in lazy)
    assert len(boundaries) == (2 if name == "PHJ-OM" else 0)
    assert ctx.mem.live_count == 0
