"""Layer microbenchmarks: random field generation, kernel blocks (compiled
and numpy replay), one staged slab, the blocked reference run, whole
staged-schedule runs, checksum.

pyproject.toml sets --benchmark-disable, so in the normal suite each runs
once as a plain test. Time them with:

    python -m pytest tests/test_bench_layers.py --benchmark-enable
"""

import numpy as np
import pytest

from pwadvect import kernel, schedules
from pwadvect.grid import GeneratorSpec, GridDims, checksum, fill_fields
from pwadvect.kernel import compute_block, default_coefficients, grid_roles, run_reference
from pwadvect.schedules import ScheduleSpec, compare_outputs, run_schedule

GRID = (128, 128, 64)


@pytest.fixture(scope="module")
def case():
    dims = GridDims(*GRID)
    return dims, fill_fields(dims, GeneratorSpec.random(1)), default_coefficients(dims.nz)


def test_bench_fill_fields(benchmark, case):
    # three fresh random fields, generated by the compiled generator when gcc
    # is found, else by lcg_fill's numpy path
    dims, fields, _ = case
    made = benchmark(fill_fields, dims, GeneratorSpec.random(1))
    assert checksum(made.w) == checksum(fields.w)


def test_bench_compute_block_one_block(benchmark, case):
    # the block each evaluator gets in run_reference: the compiled kernel
    # the whole grid, the numpy replay whole X planes of BLOCK_CELLS cells
    # (run_schedule's reference cuts the grid into X pieces across cores)
    dims, fields, coeffs = case
    planes = dims.nx
    if kernel.evaluator() == "numpy":
        planes = kernel.BLOCK_CELLS // (dims.ny * dims.nz)
        assert planes * dims.ny * dims.nz == kernel.BLOCK_CELLS
    roles = grid_roles(fields, 1, 1 + planes)
    out = tuple(np.zeros((planes, dims.ny, dims.nz)) for _ in range(3))
    # checked, addressed and run in one call, as run_reference does
    benchmark(compute_block, coeffs, [roles], out)
    assert all(a[..., 1:].any() and not a[..., 0].any() for a in out)


@pytest.mark.usefixtures("numpy_replay")
class TestNumpyReplay:
    """The random fill on lcg_fill's numpy path and the replay's block of the
    reference run; the tests above time the compiled generator and the
    compiled kernel's whole-grid call when gcc is found."""

    test_bench_fill_fields = staticmethod(test_bench_fill_fields)
    test_bench_compute_block_one_block = staticmethod(test_bench_compute_block_one_block)


def test_bench_compute_block_x_reordered_block(monkeypatch, benchmark, case):
    # the one call of the 1-engine x_reordered schedule, y_batch = 64: its
    # two Y batches, each over the three ring phases and all nx + 2 X steps,
    # each step three plane copies and then one row
    dims, fields, coeffs = case
    runs = []

    def running(*args):
        runs.append(args)
        return compute_block(*args)

    monkeypatch.setattr(schedules, "compute_block", running)
    ref = run_reference(fields, coeffs)
    out, _, _ = run_schedule(fields, coeffs, ScheduleSpec("x_reordered", 64))
    args = runs[0]
    _, phases, outs, _, lag = args
    assert (len(outs[0]), lag, len(phases)) == (dims.nx, 2, 3)
    for arr in outs:
        arr.fill(0.0)
    benchmark(compute_block, *args)
    assert compare_outputs(out, ref).bitwise_equal


@pytest.mark.parametrize("variant", ["column_buffered", "y_batched"])
def test_bench_run_schedule_staged(benchmark, case, variant):
    # one whole 1-engine run, y_batch = 64: one compute_block call over
    # every Y row (column_buffered) or Y batch, 17 role rows staged per X step
    dims, fields, coeffs = case
    out, _, _ = benchmark(run_schedule, fields, coeffs, ScheduleSpec(variant, 64))
    assert compare_outputs(out, run_reference(fields, coeffs)).bitwise_equal


def test_bench_run_reference(benchmark, case):
    dims, fields, coeffs = case
    out = benchmark(run_reference, fields, coeffs)
    assert out.dims == dims


def test_bench_checksum(benchmark, case):
    _, fields, _ = case
    digest = benchmark(checksum, fields.u)
    assert digest == checksum(fields.u.copy())
