"""Halo-padded 3D wind-field grids: layout, generation, checksums, I/O.

Interior cells are 1-based (i in 1..nx, j in 1..ny, k in 1..nz) with a
periodic halo of width 1 in X and Y. Storage is k-fastest: a Field3D wraps
a C-order float64 array of shape (nx+2, ny+2, nz), so a vertical column is
contiguous and ``array[i, j, k-1]`` is cell (i, j, k).
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

HALO = 1

# Knuth MMIX multiplicative congruential generator, 64-bit state.
_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


class GridError(ValueError):
    """Invalid grid dimensions or mismatched fields."""


@dataclass(frozen=True)
class GridDims:
    """Interior extents of the grid; halo width is fixed at 1 in X and Y."""

    nx: int
    ny: int
    nz: int
    halo: int = HALO

    @property
    def cells(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def padded_shape(self) -> tuple[int, int, int]:
        return (self.nx + 2, self.ny + 2, self.nz)

    @property
    def padded_len(self) -> int:
        return (self.nx + 2) * (self.ny + 2) * self.nz


def make_grid(nx: int, ny: int, nz: int) -> GridDims:
    """Validate extents and build GridDims. The stencil needs nz >= 2."""
    if nx < 1 or ny < 1:
        raise GridError(f"horizontal extents must be >= 1, got {nx}x{ny}")
    if nz < 2:
        raise GridError(f"nz must be >= 2 (column stencil starts at k=2), got {nz}")
    return GridDims(nx, ny, nz)


def linear_index(i: int, j: int, k: int, dims: GridDims) -> int:
    """Flat offset of padded cell (i, j, k); i, j include halos, k is 1-based."""
    assert 0 <= i <= dims.nx + 1 and 0 <= j <= dims.ny + 1 and 1 <= k <= dims.nz
    return (i * (dims.ny + 2) + j) * dims.nz + (k - 1)


@dataclass
class Field3D:
    """One double-precision field on the padded grid."""

    dims: GridDims
    data: np.ndarray  # shape dims.padded_shape, float64, C-order

    def __post_init__(self):
        if self.data.shape != self.dims.padded_shape:
            raise GridError(
                f"field shape {self.data.shape} != padded {self.dims.padded_shape}"
            )
        if self.data.dtype != np.float64:
            raise GridError(f"fields are float64, got {self.data.dtype}")

    @property
    def interior(self) -> np.ndarray:
        """View of the interior box, shape (nx, ny, nz)."""
        return self.data[1:-1, 1:-1, :]

    def copy(self) -> "Field3D":
        return Field3D(self.dims, self.data.copy())


def zeros_field(dims: GridDims) -> Field3D:
    return Field3D(dims, np.zeros(dims.padded_shape))


@dataclass
class FieldSet:
    """The three prognostic wind fields on one grid."""

    u: Field3D
    v: Field3D
    w: Field3D

    def __post_init__(self):
        if not (self.u.dims == self.v.dims == self.w.dims):
            raise GridError("u, v, w must share one GridDims")

    @property
    def dims(self) -> GridDims:
        return self.u.dims


@dataclass
class SourceSet:
    """Advection source terms; level k=1 is identically zero after a run."""

    su: Field3D
    sv: Field3D
    sw: Field3D

    def __post_init__(self):
        if not (self.su.dims == self.sv.dims == self.sw.dims):
            raise GridError("su, sv, sw must share one GridDims")

    @property
    def dims(self) -> GridDims:
        return self.su.dims


def zeros_sources(dims: GridDims) -> SourceSet:
    return SourceSet(zeros_field(dims), zeros_field(dims), zeros_field(dims))


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic field generation: same spec + dims => bit-identical fields.

    Modes: "uniform" (u=a, v=b, w=c everywhere), "trig" (smooth periodic
    pattern), "random" (64-bit LCG stream, see lcg_doubles).
    """

    mode: str = "uniform"
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("uniform", "trig", "random"):
            raise GridError(f"unknown generator mode {self.mode!r}")

    @classmethod
    def uniform(cls, a: float, b: float, c: float) -> "GeneratorSpec":
        return cls("uniform", a=a, b=b, c=c)

    @classmethod
    def trig(cls) -> "GeneratorSpec":
        return cls("trig")

    @classmethod
    def random(cls, seed: int) -> "GeneratorSpec":
        return cls("random", seed=seed)


def lcg_doubles(seed: int, count: int) -> np.ndarray:
    """`count` doubles in [0, 1) from the Knuth MMIX 64-bit LCG.

    state' = 6364136223846793005*state + 1442695040888963407 mod 2^64,
    value = (state' >> 11) * 2^-53. The first value uses one step from the
    seed. Evaluated blockwise with the LCG skip-ahead so large fields do not
    need a Python-level loop per element.
    """
    if count == 0:
        return np.zeros(0)
    stride = max(1, math.isqrt(count))
    nblocks = (count + stride - 1) // stride
    # block-stride jump: state_{n+stride} = A*state_n + C mod 2^64
    a_s, c_s = 1, 0
    a_step, c_step = _LCG_MULT, _LCG_INC
    n = stride
    while n:
        if n & 1:
            a_s, c_s = (a_s * a_step) & _LCG_MASK, (c_s * a_step + c_step) & _LCG_MASK
        c_step = (c_step * a_step + c_step) & _LCG_MASK
        a_step = (a_step * a_step) & _LCG_MASK
        n >>= 1
    starts = np.empty(nblocks, dtype=np.uint64)
    s = seed & _LCG_MASK
    for b in range(nblocks):  # nblocks ~ sqrt(count) scalar steps
        starts[b] = s
        s = (a_s * s + c_s) & _LCG_MASK
    out = np.empty((nblocks, stride), dtype=np.uint64)
    state = starts
    mult = np.uint64(_LCG_MULT)
    inc = np.uint64(_LCG_INC)
    with np.errstate(over="ignore"):
        for col in range(stride):
            state = state * mult + inc  # uint64 wraps mod 2^64
            out[:, col] = state
    vals = (out.reshape(-1)[:count] >> np.uint64(11)).astype(np.float64)
    return vals * 2.0**-53


def wrap_halos(data: np.ndarray) -> None:
    """Fill X then Y halos with the periodic wrap of the interior, in place."""
    data[0, :, :] = data[-2, :, :]
    data[-1, :, :] = data[1, :, :]
    data[:, 0, :] = data[:, -2, :]
    data[:, -1, :] = data[:, 1, :]


def _trig_interior(dims: GridDims) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x = np.sin(2.0 * np.pi * np.arange(dims.nx) / dims.nx)[:, None, None]
    cx = np.cos(2.0 * np.pi * np.arange(dims.nx) / dims.nx)[:, None, None]
    y = np.sin(2.0 * np.pi * np.arange(dims.ny) / dims.ny)[None, :, None]
    cy = np.cos(2.0 * np.pi * np.arange(dims.ny) / dims.ny)[None, :, None]
    z = (np.arange(dims.nz) / dims.nz)[None, None, :]
    u = x * cy * (1.0 + z)
    v = cx * y * (1.0 + z)
    w = x * y * z
    return u, v, w


def fill_fields(dims: GridDims, spec: GeneratorSpec) -> FieldSet:
    """Populate interior per the spec, then wrap halos periodically."""
    fields = [np.empty(dims.padded_shape) for _ in range(3)]
    if spec.mode == "uniform":
        for arr, val in zip(fields, (spec.a, spec.b, spec.c)):
            arr.fill(val)
    elif spec.mode == "trig":
        for arr, interior in zip(fields, _trig_interior(dims)):
            arr[1:-1, 1:-1, :] = interior
    else:  # one LCG stream: u interior, then v, then w, in layout order
        vals = lcg_doubles(spec.seed, 3 * dims.cells)
        shape = (dims.nx, dims.ny, dims.nz)
        for n, arr in enumerate(fields):
            arr[1:-1, 1:-1, :] = vals[n * dims.cells : (n + 1) * dims.cells].reshape(shape)
    for arr in fields:
        wrap_halos(arr)
    return FieldSet(*(Field3D(dims, arr) for arr in fields))


def checksum(f: Field3D) -> str:
    """Order-stable digest of the interior cells' exact bit patterns.

    blake2b-64 over the little-endian float64 byte stream in index order
    (i outer, j, then k fastest); equal digests <=> equal interiors. Each
    interior X plane is contiguous, so it is hashed in place, one at a time.
    """
    digest = hashlib.blake2b(digest_size=8)
    for plane in f.interior:
        digest.update(np.ascontiguousarray(plane, dtype="<f8"))
    return digest.hexdigest()


_HEADER = struct.Struct("<qqq")  # nx, ny, nz


def write_field(f: Field3D, path) -> None:
    """24-byte header (nx, ny, nz as little-endian int64) + padded data."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(f.dims.nx, f.dims.ny, f.dims.nz))
        fh.write(np.ascontiguousarray(f.data, dtype="<f8").tobytes())


def read_field(path) -> Field3D:
    with open(path, "rb") as fh:
        nx, ny, nz = _HEADER.unpack(fh.read(_HEADER.size))
        dims = make_grid(nx, ny, nz)
        raw = fh.read(dims.padded_len * 8)
    if len(raw) != dims.padded_len * 8:
        raise GridError(f"truncated field file {path}")
    data = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(dims.padded_shape)
    return Field3D(dims, data)
