import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pwadvect.dataflow import kernel_time
from pwadvect.grid import (
    Field3D,
    GeneratorSpec,
    GridDims,
    GridError,
    check_config,
    checksum,
    fill_fields,
    lcg_doubles,
)
from pwadvect.params import ModelParams
from naive_oracle import naive_lcg_doubles

GOLDENS = json.loads((Path(__file__).parent / "goldens.json").read_text())


def test_make_grid_cell_counts():
    assert GridDims(1012, 1024, 64).cells == 66_322_432  # the 67M-cell case
    assert GridDims(512, 512, 64).cells == 16_777_216    # the 16.7M-cell case
    assert GridDims(1, 1, 2).cells == 2                  # minimum legal grid


@pytest.mark.parametrize("bad", [(0, 4, 4), (4, 0, 4), (4, 4, 1), (4, 4, 0), (-1, 4, 4)])
def test_make_grid_rejects(bad):
    with pytest.raises(GridError):
        GridDims(*bad)


def test_uniform_fill_including_halos():
    dims = GridDims(3, 4, 5)
    fs = fill_fields(dims, GeneratorSpec.uniform(1.5, -2.0, 0.25))
    assert np.all(fs.u.data == 1.5)
    assert np.all(fs.v.data == -2.0)
    assert np.all(fs.w.data == 0.25)
    fs0 = fill_fields(dims, GeneratorSpec.uniform(0, 0, 0))
    assert np.all(fs0.u.data == 0.0)


@pytest.mark.parametrize("spec", [GeneratorSpec.trig(), GeneratorSpec.random(3)])
def test_halos_are_periodic_wrap(spec):
    dims = GridDims(5, 3, 4)
    for f in fill_fields(dims, spec).u, fill_fields(dims, spec).w:
        d = f.data
        assert np.array_equal(d[0, :, :], d[-2, :, :])
        assert np.array_equal(d[-1, :, :], d[1, :, :])
        assert np.array_equal(d[:, 0, :], d[:, -2, :])
        assert np.array_equal(d[:, -1, :], d[:, 1, :])


def test_generation_determinism():
    dims = GridDims(6, 7, 8)
    a = fill_fields(dims, GeneratorSpec.random(42))
    b = fill_fields(dims, GeneratorSpec.random(42))
    assert checksum(a.u) == checksum(b.u)
    assert checksum(a.v) == checksum(b.v)
    assert checksum(a.w) == checksum(b.w)
    c = fill_fields(dims, GeneratorSpec.random(43))
    assert checksum(a.u) != checksum(c.u)


def test_lcg_matches_documented_recurrence():
    # the last four counts end just before, on and after the edges of the
    # 65,536-value chunks the generator works in
    for seed, count in ((0, 1), (42, 1000), (2**63 + 5, 4097), (7, 65_535), (8, 65_536),
                        (9, 65_537), (2**64 - 1, 3 * 65_536 + 7)):
        assert np.array_equal(lcg_doubles(seed, count), naive_lcg_doubles(seed, count))
    assert lcg_doubles(1, 0).size == 0


def test_random_fill_streams_into_planes_with_bounded_peak():
    # 1,100 x 64 values per X plane: chunk edges fall inside planes
    dims = GridDims(3, 1100, 64)
    fields = fill_fields(dims, GeneratorSpec.random(5))
    stream = lcg_doubles(5, 3 * dims.cells).reshape(3, dims.nx, dims.ny, dims.nz)
    for n, f in enumerate((fields.u, fields.v, fields.w)):
        assert np.array_equal(f.interior, stream[n])
    # set-up holds the fields and one chunk, not a copy of the stream
    dims = GridDims(128, 128, 64)
    tracemalloc.start()
    try:
        fill_fields(dims, GeneratorSpec.random(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 3 * dims.padded_len * 8


def test_checksum_equality_and_bit_sensitivity():
    dims = GridDims(4, 4, 4)
    a = fill_fields(dims, GeneratorSpec.uniform(0, 0, 0)).u
    b = fill_fields(dims, GeneratorSpec.uniform(0, 0, 0)).u
    assert checksum(a) == checksum(b)
    # one-ULP perturbation at one interior cell changes the digest
    c = b.copy()
    c.data[2, 2, 1] = np.nextafter(c.data[2, 2, 1], 1.0)
    assert checksum(c) != checksum(b)
    # halo-only difference does not: digest covers the interior
    d = b.copy()
    d.data[0, 0, 0] = 99.0
    assert checksum(d) == checksum(b)


def test_checksum_is_digest_of_interior_byte_stream():
    # plane-by-plane hashing equals one digest of the whole interior stream,
    # whatever the memory order of the padded array
    dims = GridDims(5, 3, 4)
    u = fill_fields(dims, GeneratorSpec.random(8)).u
    whole = np.ascontiguousarray(u.interior, dtype="<f8").tobytes()
    want = hashlib.blake2b(whole, digest_size=8).hexdigest()
    assert checksum(u) == want
    assert checksum(Field3D(dims, np.asfortranarray(u.data))) == want


def test_checksum_golden():
    dims = GridDims(8, 8, 8)
    fs = fill_fields(dims, GeneratorSpec.random(42))
    assert checksum(fs.u) == GOLDENS["fields"]["u"]
    assert checksum(fs.v) == GOLDENS["fields"]["v"]
    assert checksum(fs.w) == GOLDENS["fields"]["w"]


def test_field_shape_validation():
    dims = GridDims(2, 2, 2)
    with pytest.raises(GridError):
        Field3D(dims, np.zeros((2, 2, 2)))
    with pytest.raises(GridError):
        Field3D(dims, np.zeros(dims.padded_shape, dtype=np.float32))


@settings(max_examples=200, deadline=None)
@given(st.integers(-2, 40), st.integers(-2, 80), st.integers(-2, 6),
       st.integers(-3, 45) | st.integers(), st.integers(-3, 90) | st.integers(), st.booleans())
@example(4, 4, 1, 1, 4, True)  # a grid the kernel rejects, which the model used to time
def test_check_config_accepts_exactly_the_configurations_that_fit(nx, ny, nz, engines, y_batch,
                                                                  batched):
    def accepts(check):
        try:
            check()
        except ValueError:
            return False
        return True

    accepted = accepts(lambda: check_config(GridDims(nx, ny, nz), engines, y_batch, batched))
    # whole extents, no idle engine, no empty batch, and a batch of Y never wider than ny
    assert accepted == (nx >= 1 and ny >= 1 and nz >= 2 and 1 <= engines <= nx
                        and y_batch >= 1 and (not batched or y_batch <= ny))
    if batched:  # the model batches Y and takes exactly the same configurations
        params = ModelParams()
        assert accepts(lambda: kernel_time(GridDims(nx, ny, nz), params.pipeline,
                                           params.memory, y_batch, engines)) == accepted
