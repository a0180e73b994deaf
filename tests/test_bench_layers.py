"""Layer microbenchmarks: one kernel block, the blocked reference run, checksum.

pyproject.toml sets --benchmark-disable, so in the normal suite each runs
once as a plain test. Time them with:

    python -m pytest tests/test_bench_layers.py --benchmark-enable
"""

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
    dims, fields, coeffs = case
    planes = kernel.BLOCK_CELLS // (dims.ny * dims.nz)
    roles = grid_roles(fields, 1, 1 + planes, 1, dims.ny + 1)
    su, sv, sw = benchmark(compute_block, coeffs, roles)
    assert su.shape == sv.shape == sw.shape == (planes, dims.ny, dims.nz)
    assert su.size == kernel.BLOCK_CELLS


def test_bench_run_reference(benchmark, case):
    dims, fields, coeffs = case
    out = benchmark(run_reference, fields, coeffs)
    assert out.dims == dims


def test_bench_checksum(benchmark, case):
    _, fields, _ = case
    digest = benchmark(checksum, fields.u)
    assert digest == checksum(fields.u.copy())
