"""Halo-padded 3D wind-field grids: layout, generation, checksums.

Interior cells are 1-based (i in 1..nx, j in 1..ny, k in 1..nz) with a
periodic halo of width 1 in X and Y. Storage is k-fastest: a Field3D wraps
a C-order float64 array of shape (nx+2, ny+2, nz), so a vertical column is
contiguous and ``array[i, j, k-1]`` is cell (i, j, k).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

# Knuth MMIX multiplicative congruential generator, 64-bit state.
_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


class GridError(ValueError):
    """Invalid grid dimensions or mismatched fields."""


@dataclass(frozen=True)
class GridDims:
    """Interior extents, nx, ny >= 1 and nz >= 2 (else GridError); the halo is 1 wide."""

    nx: int
    ny: int
    nz: int

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise GridError(f"horizontal extents must be >= 1, got {self.nx}x{self.ny}")
        if self.nz < 2:
            raise GridError(f"nz must be >= 2 (column stencil starts at k=2), got {self.nz}")

    @property
    def cells(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def padded_shape(self) -> tuple[int, int, int]:
        return (self.nx + 2, self.ny + 2, self.nz)

    @property
    def padded_len(self) -> int:
        return (self.nx + 2) * (self.ny + 2) * self.nz


# The old name of the constructor, which the benchmark scripts under
# perfbench/ still import.
make_grid = GridDims


def check_config(dims: GridDims, engines: int, y_batch: int, batched: bool = True) -> None:
    """The legality rule of the schedules and the model; raises ValueError.

    Every engine owns at least one X column, and a Y batch holds 1..ny rows
    (any count >= 1 when `batched` is False: a schedule that never splits Y).
    """
    if not 1 <= engines <= dims.nx:
        raise ValueError(f"engines must be in 1..nx={dims.nx}, got {engines}")
    if y_batch < 1:
        raise ValueError(f"y_batch must be >= 1, got {y_batch}")
    if batched and y_batch > dims.ny:
        raise ValueError(f"y_batch must be in 1..ny={dims.ny}, got {y_batch}")


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
    pattern), "random" (64-bit LCG stream, see lcg_fill).
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


# Values generated per vectorised step of lcg_fill.
_LCG_CHUNK = 1 << 16


def _lcg_jump_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """A[m], C[m] with state_{s+m+1} = A[m]*state_s + C[m] mod 2^64, m < n.

    Built by doubling: once the first L entries are known, entry L+m is
    entry m composed with entry L-1.
    """
    mult = np.array([_LCG_MULT], dtype=np.uint64)
    inc = np.array([_LCG_INC], dtype=np.uint64)
    while len(mult) < n:
        mult, inc = (np.concatenate((mult, mult * mult[-1])),
                     np.concatenate((inc, mult * inc[-1] + inc)))
    return mult[:n], inc[:n]


def lcg_fill(seed: int, arrays) -> None:
    """Fill C-contiguous float64 `arrays` in turn, each in index order, from
    one stream of doubles in [0, 1) of the Knuth MMIX 64-bit LCG.

    state' = 6364136223846793005*state + 1442695040888963407 mod 2^64,
    value = (state' >> 11) * 2^-53. The first value uses one step from the
    seed, and each array continues the stream where the previous one ended.
    Evaluated in chunks of at most _LCG_CHUNK values with jump tables built
    once per call (uint64 arithmetic wraps mod 2^64), so large fields need
    neither a Python-level loop per element nor a stream-sized array.
    """
    flats = [a.reshape(-1) for a in arrays]
    mult, inc = _lcg_jump_tables(min(max(a.size for a in flats), _LCG_CHUNK))
    state = np.empty_like(mult)
    s = seed & _LCG_MASK
    for flat in flats:
        for lo in range(0, flat.size, _LCG_CHUNK):
            n = min(_LCG_CHUNK, flat.size - lo)
            chunk = state[:n]
            np.multiply(mult[:n], np.uint64(s), out=chunk)
            np.add(chunk, inc[:n], out=chunk)
            s = int(chunk[-1])
            np.right_shift(chunk, np.uint64(11), out=chunk)
            np.multiply(chunk, 2.0**-53, out=flat[lo : lo + n])


def lcg_doubles(seed: int, count: int) -> np.ndarray:
    """The first `count` values of lcg_fill's stream from `seed`."""
    out = np.empty(count)
    lcg_fill(seed, [out])
    return out


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
        # each interior X plane arr[i, 1:-1, :] is contiguous
        lcg_fill(spec.seed, [plane for arr in fields for plane in arr[1:-1, 1:-1, :]])
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
