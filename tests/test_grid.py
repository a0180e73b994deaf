import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from pwadvect.grid import (
    Field3D,
    GeneratorSpec,
    GridError,
    checksum,
    fill_fields,
    lcg_doubles,
    make_grid,
)
from naive_oracle import naive_lcg_doubles

GOLDENS = json.loads((Path(__file__).parent / "goldens.json").read_text())


def test_make_grid_cell_counts():
    assert make_grid(1012, 1024, 64).cells == 66_322_432  # the 67M-cell case
    assert make_grid(512, 512, 64).cells == 16_777_216    # the 16.7M-cell case
    assert make_grid(1, 1, 2).cells == 2                  # minimum legal grid


@pytest.mark.parametrize("bad", [(0, 4, 4), (4, 0, 4), (4, 4, 1), (4, 4, 0), (-1, 4, 4)])
def test_make_grid_rejects(bad):
    with pytest.raises(GridError):
        make_grid(*bad)


def test_uniform_fill_including_halos():
    dims = make_grid(3, 4, 5)
    fs = fill_fields(dims, GeneratorSpec.uniform(1.5, -2.0, 0.25))
    assert np.all(fs.u.data == 1.5)
    assert np.all(fs.v.data == -2.0)
    assert np.all(fs.w.data == 0.25)
    fs0 = fill_fields(dims, GeneratorSpec.uniform(0, 0, 0))
    assert np.all(fs0.u.data == 0.0)


@pytest.mark.parametrize("spec", [GeneratorSpec.trig(), GeneratorSpec.random(3)])
def test_halos_are_periodic_wrap(spec):
    dims = make_grid(5, 3, 4)
    for f in fill_fields(dims, spec).u, fill_fields(dims, spec).w:
        d = f.data
        assert np.array_equal(d[0, :, :], d[-2, :, :])
        assert np.array_equal(d[-1, :, :], d[1, :, :])
        assert np.array_equal(d[:, 0, :], d[:, -2, :])
        assert np.array_equal(d[:, -1, :], d[:, 1, :])


def test_generation_determinism():
    dims = make_grid(6, 7, 8)
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


def test_checksum_equality_and_bit_sensitivity():
    dims = make_grid(4, 4, 4)
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
    dims = make_grid(5, 3, 4)
    u = fill_fields(dims, GeneratorSpec.random(8)).u
    whole = np.ascontiguousarray(u.interior, dtype="<f8").tobytes()
    want = hashlib.blake2b(whole, digest_size=8).hexdigest()
    assert checksum(u) == want
    assert checksum(Field3D(dims, np.asfortranarray(u.data))) == want


def test_checksum_golden():
    dims = make_grid(8, 8, 8)
    fs = fill_fields(dims, GeneratorSpec.random(42))
    assert checksum(fs.u) == GOLDENS["fields"]["u"]
    assert checksum(fs.v) == GOLDENS["fields"]["v"]
    assert checksum(fs.w) == GOLDENS["fields"]["w"]


def test_field_shape_validation():
    dims = make_grid(2, 2, 2)
    with pytest.raises(GridError):
        Field3D(dims, np.zeros((2, 2, 2)))
    with pytest.raises(GridError):
        Field3D(dims, np.zeros(dims.padded_shape, dtype=np.float32))
