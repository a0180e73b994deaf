"""Halo-padded 3D wind-field grids: layout, generation, checksums, and the shared value rules.

Interior cells are 1-based (i in 1..nx, j in 1..ny, k in 1..nz) with a
periodic halo of width 1 in X and Y. Storage is k-fastest: a Field3D wraps
a C-order float64 array of shape (nx+2, ny+2, nz), so a vertical column is
contiguous and ``array[i, j, k-1]`` is cell (i, j, k).
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# Knuth MMIX multiplicative congruential generator, 64-bit state.
_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class GridDims:
    """Interior extents: counts (check_count), nz >= 2, else ValueError; the halo is 1 wide."""

    nx: int
    ny: int
    nz: int

    def __post_init__(self):
        if not (type(self.nx) is type(self.ny) is type(self.nz) is int
                and self.nx >= 1 and self.ny >= 1 and self.nz >= 2):
            check_count("nx", self.nx)
            check_count("ny", self.ny)
            if type(self.nz) is not int:
                check_count("nz", self.nz)
            raise ValueError(f"nz must be >= 2 (column stencil starts at k=2), got {self.nz}")

    @property
    def cells(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def padded_shape(self) -> tuple[int, int, int]:
        return (self.nx + 2, self.ny + 2, self.nz)

    @property
    def padded_len(self) -> int:
        return (self.nx + 2) * (self.ny + 2) * self.nz


# The constructor's old name, which the benchmark scripts under perfbench/ still import.
make_grid = GridDims


def check_count(name: str, value) -> None:
    """A count field: an int >= 1. ValueError "<name> = <value> <rule>"."""
    if type(value) is not int or value < 1:
        rule = "must be >= 1" if type(value) is int else "must be an integer"
        raise ValueError(f"{name} = {value} {rule}")


def check_positive(name: str, value, top: float | None = None) -> None:
    """A float field: finite and > 0, and at most `top` if one is given.
    ValueError "<name> = <value> <rule>"."""
    if not 0 < value < math.inf or (top is not None and value > top):
        rule = ("must be finite" if not math.isfinite(value)
                else "must be > 0" if top is None else f"must be in (0, {top:g}]")
        raise ValueError(f"{name} = {value} {rule}")


def check_config(dims: GridDims, engines: int, y_batch: int, batched: bool = True) -> None:
    """The legality rule of the schedules and the model; raises ValueError.

    `engines` and `y_batch` are counts (check_count). Every engine owns at least one
    X column, and a Y batch holds 1..ny rows (any count if Y is never split: not `batched`).
    """
    if type(engines) is not int:
        check_count("engines", engines)
    if not 1 <= engines <= dims.nx:
        raise ValueError(f"engines must be in 1..nx={dims.nx}, got {engines}")
    if type(y_batch) is not int or y_batch < 1 or batched and y_batch > dims.ny:
        check_count("y_batch", y_batch)
        raise ValueError(f"y_batch must be in 1..ny={dims.ny}, got {y_batch}")


@dataclass
class Field3D:
    """One double-precision field on the padded grid."""

    dims: GridDims
    data: np.ndarray  # shape dims.padded_shape, float64, C-order

    def __post_init__(self):
        if self.data.shape != self.dims.padded_shape:
            raise ValueError(
                f"field shape {self.data.shape} != padded {self.dims.padded_shape}"
            )
        if self.data.dtype != np.float64:
            raise ValueError(f"fields are float64, got {self.data.dtype}")

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
            raise ValueError("u, v, w must share one GridDims")

    @property
    def dims(self) -> GridDims:
        return self.u.dims


@dataclass
class SourceSet:
    """Advection source terms. After a run the halos and level k = 1 hold +0.0.

    A run writes into fresh zeros or into the arrays of an earlier run's set
    that nothing references any more (see _run_outputs); the bits are the same.
    """

    su: Field3D
    sv: Field3D
    sw: Field3D

    def __post_init__(self):
        if not (self.su.dims == self.sv.dims == self.sw.dims):
            raise ValueError("su, sv, sw must share one GridDims")

    @property
    def dims(self) -> GridDims:
        return self.su.dims


def zeros_sources(dims: GridDims) -> SourceSet:
    return SourceSet(zeros_field(dims), zeros_field(dims), zeros_field(dims))


# A control array, then the three arrays of the last set _run_outputs handed
# out, if any; the lock guards the tuple and every check against it.
_outputs: tuple = (np.empty(0),)
_outputs_lock = threading.Lock()


def _released(dims: GridDims):
    """The kept arrays if they are shaped for `dims`, writeable, and held by
    nothing but the kept tuple: each counts as many references as the
    control, which the tuple holds the same way. Else None."""
    refs = {sys.getrefcount(a) for a in _outputs}
    arrays = _outputs[1:]
    if (len(refs) == 1 and arrays and arrays[0].shape == dims.padded_shape
            and all(a.flags.writeable for a in arrays)):
        return arrays
    return None


def _run_outputs(dims: GridDims) -> SourceSet:
    """The SourceSet that one run writes: every interior cell, level k = 1
    included (kernel.compute_block), so only its halos must be zero.

    The process keeps the arrays of the last set this handed out, at most one
    set of three padded fields. It hands the same arrays back, with their X
    halo planes and Y halo rows zeroed, when `_released` finds them free for
    `dims`; else it lets them go and hands out three fresh zeros fields. A
    held SourceSet, Field3D, view or memoryview keeps them from reuse. The
    check, the take and the set's construction run under one lock, so two
    runs never get the same arrays.
    """
    global _outputs
    with _outputs_lock:
        arrays = _released(dims)
        if arrays is None:
            _outputs = _outputs[:1]  # frees a kept set that nothing else holds
            arrays = tuple(np.zeros(dims.padded_shape) for _ in range(3))
        else:
            for a in arrays:
                a[0] = a[-1] = 0.0
                a[:, 0] = a[:, -1] = 0.0
        _outputs = (_outputs[0], *arrays)
        return SourceSet(*(Field3D(dims, a) for a in arrays))


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic field generation: same spec + dims => bit-identical fields.

    Modes: "uniform" (u=a, v=b, w=c everywhere), "random" (64-bit LCG
    stream, see lcg_fill).
    """

    mode: str = "uniform"
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("uniform", "random"):
            raise ValueError(f"unknown generator mode {self.mode!r}")

    @classmethod
    def uniform(cls, a: float, b: float, c: float) -> "GeneratorSpec":
        return cls("uniform", a=a, b=b, c=c)

    @classmethod
    def random(cls, seed: int) -> "GeneratorSpec":
        return cls("random", seed=seed)


# Values generated per vectorised step of lcg_fill's numpy path.
_LCG_CHUNK = 1 << 16


def _lcg_jump_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """A[m], C[m] with state_{s+m+1} = A[m]*state_s + C[m] mod 2^64, m < n:
    A[m] = MULT^(m+1) and C[m] = INC * (1 + MULT + ... + MULT^m), in uint64
    arithmetic, which wraps mod 2^64."""
    mult = np.cumprod(np.full(n, _LCG_MULT, dtype=np.uint64))
    inc = np.cumsum(np.concatenate(([np.uint64(1)], mult[:-1]))) * np.uint64(_LCG_INC)
    return mult, inc


def _lcg_jump(n: int) -> tuple[int, int]:
    """(A, C) with state_{s+n} = A*state_s + C mod 2^64, by square-and-multiply
    of the one-step map (_LCG_MULT, _LCG_INC)."""
    a, c, mult, inc = 1, 0, _LCG_MULT, _LCG_INC
    while n:
        if n & 1:
            a, c = a * mult & _LCG_MASK, (c * mult + inc) & _LCG_MASK
        mult, inc = mult * mult & _LCG_MASK, (inc * mult + inc) & _LCG_MASK
        n >>= 1
    return a, c


# Values or cells each thread gets at least (2 MiB of doubles), so that its
# share of the work outweighs handing it to the thread.
_THREAD_MIN = 1 << 18


def cut(span: range, parts: int) -> list[range]:
    """`span` cut into `parts` contiguous ranges, in order, their lengths
    differing by at most one, longer first."""
    base, rem = divmod(len(span), parts)
    bounds = [p * base + min(p, rem) for p in range(parts + 1)]
    return [span[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _pieces(span: range, work: int, sharers: int = 1) -> list[range]:
    """`span`, a run of whole rows that holds `work` values or cells, cut for
    `sharers` such cuts running at once: one piece per _THREAD_MIN of work,
    at most one per row and ceil(cores / sharers), at least one."""
    cores = os.cpu_count() or 1
    return cut(span, max(1, min(-(-cores // sharers), len(span), work // _THREAD_MIN)))


def _on_threads(fn, jobs: list) -> list:
    """[fn(job) for job in jobs], on min(len(jobs), cores) threads, or on the
    calling thread when that is one."""
    workers = min(len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def _fill_rows(n: int, a) -> np.ndarray:
    """`a` as a (rows, values) view of contiguous rows, or ValueError naming
    arrays[n]: one row if `a` is C-contiguous, else one per index of axis 0
    of a 3-D array whose last two axes are C-contiguous."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.aligned
            and a.flags.writeable
            and (a.flags.c_contiguous or a.ndim == 3 and a[0].flags.c_contiguous)):
        got = (f"{a.dtype} array of shape {a.shape}" if isinstance(a, np.ndarray)
               else type(a).__name__)
        raise ValueError(f"arrays[{n}]: need a writeable, aligned float64 ndarray, C-contiguous "
                         f"or 3-D with C-contiguous planes, got {got}")
    return a.reshape(1 if a.flags.c_contiguous else len(a), -1)  # a view, never a copy


def _segments(views: list[np.ndarray], owners: list[int]) -> np.ndarray:
    """The (address, count) int64 table of the rows of `views`, in stream
    order; ValueError if any two rows overlap in memory."""
    table = np.concatenate([
        np.stack([v.ctypes.data + v.strides[0] * np.arange(len(v), dtype=np.int64),
                  np.full(len(v), v.shape[1], dtype=np.int64)], axis=1) for v in views])
    owner = np.repeat(owners, [len(v) for v in views])
    order = np.argsort(table[:, 0], kind="stable")
    start = table[order, 0]
    clash = np.flatnonzero(start[1:] < start[:-1] + 8 * table[order[:-1], 1])
    if clash.size:
        m, n = sorted(owner[order[clash[0] : clash[0] + 2]])
        raise ValueError(f"arrays[{n}] overlaps itself" if m == n
                         else f"arrays[{m}] and arrays[{n}] overlap")
    return table


def lcg_fill(seed: int, arrays) -> None:
    """Fill float64 `arrays` in turn, each in index order, from one stream of
    doubles in [0, 1) of the Knuth MMIX 64-bit LCG.

    state' = 6364136223846793005*state + 1442695040888963407 mod 2^64,
    value = (state' >> 11) * 2^-53. The first value uses one step from the
    seed, and each array continues the stream where the previous one ended.
    Each array must be a writeable, aligned float64 ndarray that is
    C-contiguous, or 3-D with C-contiguous planes a[i] at any axis-0 stride
    (a field's interior), and no two arrays may share memory, nor one array
    write a cell twice; else ValueError naming the array, raised before any
    array is filled. An empty list and zero-size arrays are no-ops.

    The stream is generated by `pwadvect_lcg` in the library that holds the
    compiled kernel (see kernel.kernel_source), loaded or built on the first
    call that has values to make. A fill of n values is cut into
    _pieces(rows, n) runs of whole rows, each generated by one job of
    _on_threads from the state jumped ahead to its start (_lcg_jump).
    Without that library it is evaluated in numpy on the calling thread, in
    chunks of at most _LCG_CHUNK values with jump tables built once per call
    (uint64 arithmetic wraps mod 2^64), so large fields need neither a
    Python-level loop per element nor a stream-sized array. Both give the
    same bits.
    """
    views = [_fill_rows(n, a) for n, a in enumerate(arrays)]
    owners = [n for n, v in enumerate(views) if v.size]
    views = [views[n] for n in owners]
    if not views:
        return
    table = _segments(views, owners)
    from . import kernel  # kernel imports this module, so look it up per call

    lib, s = kernel._compiled(), seed & _LCG_MASK
    if lib is not None:
        starts = np.cumsum(table[:, 1]) - table[:, 1]  # each row's offset in the stream

        def fill(rows):
            a, c = _lcg_jump(int(starts[rows.start]))
            lib.pwadvect_lcg((a * s + c) & _LCG_MASK, len(rows), table[rows.start :].ctypes.data)

        _on_threads(fill, _pieces(range(len(table)), int(table[:, 1].sum())))
        return
    mult, inc = _lcg_jump_tables(min(int(table[:, 1].max()), _LCG_CHUNK))
    state = np.empty_like(mult)
    for flat in (row for v in views for row in v):
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


def fill_fields(dims: GridDims, spec: GeneratorSpec) -> FieldSet:
    """Populate interior per the spec, then wrap halos periodically."""
    fields = [np.empty(dims.padded_shape) for _ in range(3)]
    if spec.mode == "uniform":
        for arr, val in zip(fields, (spec.a, spec.b, spec.c)):
            arr.fill(val)
    else:  # one LCG stream: u interior, then v, then w, in layout order
        lcg_fill(spec.seed, [arr[1:-1, 1:-1, :] for arr in fields])
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


def checksums(fields) -> list[str]:
    """`checksum` of each field, in order, one field per job of _on_threads
    (hashlib releases the GIL while it hashes)."""
    return _on_threads(checksum, list(fields))
