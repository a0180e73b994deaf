"""Layer microbenchmarks: kernel blocks (compiled and numpy replay), the
blocked reference run, checksum.

pyproject.toml sets --benchmark-disable, so in the normal suite each runs
once as a plain test. Time them with:

    python -m pytest tests/test_bench_layers.py --benchmark-enable
"""

import numpy as np
import pytest

from pwadvect import kernel
from pwadvect.grid import GeneratorSpec, checksum, fill_fields, make_grid
from pwadvect.kernel import compute_block, default_coefficients, grid_roles, run_reference

GRID = (128, 128, 64)


@pytest.fixture(scope="module")
def case():
    dims = make_grid(*GRID)
    return dims, fill_fields(dims, GeneratorSpec.random(1)), default_coefficients(dims.nz)


def test_bench_compute_block_one_block(benchmark, case):
    # the reference run's block: whole X planes of BLOCK_CELLS cells
    dims, fields, coeffs = case
    planes = kernel.BLOCK_CELLS // (dims.ny * dims.nz)
    roles = grid_roles(fields, 1, 1 + planes, 1, dims.ny + 1)
    out = tuple(np.zeros((planes, dims.ny, dims.nz)) for _ in range(3))
    benchmark(compute_block, coeffs, roles, out, {})
    assert out[0].size == kernel.BLOCK_CELLS
    assert all(a[..., 1:].any() and not a[..., 0].any() for a in out)


@pytest.mark.usefixtures("numpy_replay")
class TestNumpyReplay:
    """The reference run's block again, on the numpy replay; the test above
    times the compiled kernel when gcc is found."""

    test_bench_compute_block_one_block = staticmethod(test_bench_compute_block_one_block)


def test_bench_compute_block_x_reordered_block(benchmark, case):
    # the x_reordered schedule's block: one contiguous (y_batch, nz) buffer
    # per role, y_batch = 64
    dims, fields, coeffs = case
    roles = {role: view[0].copy() for role, view in grid_roles(fields, 1, 2, 1, 65).items()}
    out = tuple(np.zeros((64, dims.nz)) for _ in range(3))
    benchmark(compute_block, coeffs, roles, out, {})
    assert all(a[..., 1:].any() and not a[..., 0].any() for a in out)


def test_bench_run_reference(benchmark, case):
    dims, fields, coeffs = case
    out = benchmark(run_reference, fields, coeffs)
    assert out.dims == dims


def test_bench_checksum(benchmark, case):
    _, fields, _ = case
    digest = benchmark(checksum, fields.u)
    assert digest == checksum(fields.u.copy())
