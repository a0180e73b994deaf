"""Layer microbenchmarks: kernel blocks (compiled and numpy replay), the
blocked reference run, whole staged-schedule runs, checksum.

pyproject.toml sets --benchmark-disable, so in the normal suite each runs
once as a plain test. Time them with:

    python -m pytest tests/test_bench_layers.py --benchmark-enable
"""

import numpy as np
import pytest

from pwadvect import kernel
from pwadvect.grid import GeneratorSpec, GridDims, checksum, fill_fields
from pwadvect.kernel import (
    BoundBlock,
    compute_block,
    default_coefficients,
    grid_roles,
    run_reference,
)
from pwadvect.schedules import ScheduleSpec, compare_outputs, run_schedule

GRID = (128, 128, 64)


@pytest.fixture(scope="module")
def case():
    dims = GridDims(*GRID)
    return dims, fill_fields(dims, GeneratorSpec.random(1)), default_coefficients(dims.nz)


def test_bench_compute_block_one_block(benchmark, case):
    # the block each evaluator gets in the 1-engine reference run: the
    # compiled kernel the whole grid, the numpy replay whole X planes of
    # BLOCK_CELLS cells
    dims, fields, coeffs = case
    planes = dims.nx
    if kernel.evaluator() == "numpy":
        planes = kernel.BLOCK_CELLS // (dims.ny * dims.nz)
        assert planes * dims.ny * dims.nz == kernel.BLOCK_CELLS
    roles = grid_roles(fields, 1, 1 + planes, 1, dims.ny + 1)
    out = tuple(np.zeros((planes, dims.ny, dims.nz)) for _ in range(3))
    # bound and run once per call, as run_slab does
    benchmark(lambda: compute_block(BoundBlock(coeffs, roles, out, {}), 0, planes))
    assert all(a[..., 1:].any() and not a[..., 0].any() for a in out)


@pytest.mark.usefixtures("numpy_replay")
class TestNumpyReplay:
    """The replay's block of the reference run; the test above times the
    compiled kernel's whole-grid call when gcc is found."""

    test_bench_compute_block_one_block = staticmethod(test_bench_compute_block_one_block)


def test_bench_compute_block_x_reordered_block(benchmark, case):
    # one X step of the x_reordered schedule, y_batch = 64: the roles are
    # rows of one (3, 66, nz) ring of X planes 0..2 per field, repeated
    # along X, bound once; each step runs one row
    dims, fields, coeffs = case
    rings = {f: getattr(fields, f).data[0:3, 0:66].copy() for f in "uvw"}
    roles = {(f, dx, dy): np.broadcast_to(rings[f][1 + dx, 1 + dy : 65 + dy], (4, 64, dims.nz))
             for f, dx, dy in kernel.COMPUTE_ROLES}
    out = tuple(np.zeros((4, 64, dims.nz)) for _ in range(3))
    block = BoundBlock(coeffs, roles, out, {})
    benchmark(compute_block, block, 1, 2)
    assert all(a[1, :, 1:].any() and not a[1, :, 0].any() and not a[[0, 2, 3]].any()
               for a in out)


@pytest.mark.parametrize("variant", ["column_buffered", "y_batched"])
def test_bench_run_schedule_staged(benchmark, case, variant):
    # one whole 1-engine run, y_batch = 64: a block bound per Y row
    # (column_buffered) or Y batch, and 17 role rows staged per X step
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
