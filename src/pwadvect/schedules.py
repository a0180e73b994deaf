"""Interchangeable execution schedules for the advection kernel.

Every schedule produces a SourceSet bitwise-equal to `kernel.run_reference`
(they all evaluate the shared formulas in the canonical order) and differs
only in how operands move between the full-grid arrays and per-engine
scratch buffers. Traffic counters record that movement exactly, in units of
double-precision elements; conventions are in docs/model-notes.md section 3.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .grid import FieldSet, GridDims, SourceSet, check_config, zeros_sources
from .kernel import (
    COMPUTE_ROLES,
    AdvectionCoefficients,
    BoundBlock,
    compute_block,
    reads_per_point,
    run_slab,
)

VARIANTS = ("reference", "column_buffered", "y_batched", "x_reordered")


@dataclass(frozen=True)
class Slab:
    """One engine's interior X range, 1-based, begin inclusive, end exclusive."""

    x_begin: int
    x_end: int

    @property
    def width(self) -> int:
        return self.x_end - self.x_begin


def partition_domain(dims: GridDims, engines: int) -> list[Slab]:
    """Balanced contiguous X slabs; widths differ by at most one."""
    check_config(dims, engines, y_batch=1)
    base, rem = divmod(dims.nx, engines)
    slabs, x = [], 1
    for e in range(engines):
        w = base + (1 if e < rem else 0)
        slabs.append(Slab(x, x + w))
        x += w
    return slabs


@dataclass(frozen=True)
class ScheduleSpec:
    variant: str = "reference"
    y_batch: int = 64
    engines: int = 1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; one of {VARIANTS}")

    def validate(self, dims: GridDims) -> None:
        check_config(dims, self.engines, self.y_batch,
                     batched=self.variant in ("y_batched", "x_reordered"))


@dataclass
class TrafficReport:
    """Element loads/stores per memory class; scratch peak is per engine."""

    external_reads: int = 0
    external_writes: int = 0
    local_reads: int = 0
    local_writes: int = 0
    scratch_bytes_peak: int = 0

    def merge(self, other: "TrafficReport") -> None:
        self.external_reads += other.external_reads
        self.external_writes += other.external_writes
        self.local_reads += other.local_reads
        self.local_writes += other.local_writes
        self.scratch_bytes_peak = max(self.scratch_bytes_peak, other.scratch_bytes_peak)


def _column_reads(nz: int) -> int:
    # operand touches per output column: 54 per mid level, 45 at the top
    return reads_per_point(False) * (nz - 2) + reads_per_point(True)


def _out_rows(out: SourceSet, i: int, j0: int, bw: int):
    return tuple(f.data[i, j0 : j0 + bw] for f in (out.su, out.sv, out.sw))


def _count_writes(tc: TrafficReport, columns: int, nz: int):
    # outputs are stored at levels k >= 2 only
    tc.external_writes += 3 * columns * (nz - 1)


def _run_reference_slab(fields, coeffs, out, slab, spec, tc):
    dims = fields.dims
    run_slab(fields, coeffs, out, slab.x_begin, slab.x_end)
    tc.external_reads += slab.width * dims.ny * _column_reads(dims.nz)
    _count_writes(tc, slab.width * dims.ny, dims.nz)


def _run_buffered_slab(fields, coeffs, out, slab, spec, tc, batch):
    """column_buffered (batch=1) and y_batched: copy role blocks, then compute."""
    dims = fields.dims
    nz, ny = dims.nz, dims.ny
    arrs = {"u": fields.u.data, "v": fields.v.data, "w": fields.w.data}
    col_reads = _column_reads(nz)
    peak = 0
    scratch = {}
    for i in range(slab.x_begin, slab.x_end):
        for j0 in range(1, ny + 1, batch):
            bw = min(batch, ny + 1 - j0)
            buf = {}
            for f, dx, dy in COMPUTE_ROLES:
                buf[(f, dx, dy)] = arrs[f][i + dx, j0 + dy : j0 + dy + bw, :].copy()
            tc.external_reads += len(COMPUTE_ROLES) * bw * nz
            tc.local_writes += len(COMPUTE_ROLES) * bw * nz
            peak = max(peak, len(COMPUTE_ROLES) * bw * nz * 8)
            compute_block(BoundBlock(coeffs, buf, _out_rows(out, i, j0, bw), scratch), 0, 1)
            tc.local_reads += bw * col_reads
            _count_writes(tc, bw, nz)
    tc.scratch_bytes_peak = max(tc.scratch_bytes_peak, peak)


def _run_x_reordered_slab(fields, coeffs, out, slab, spec, tc):
    """X loop inside the Y batch: a 3-plane ring per field, one new plane per X step."""
    dims = fields.dims
    nz, ny = dims.nz, dims.ny
    arrs = {"u": fields.u.data, "v": fields.v.data, "w": fields.w.data}
    col_reads = _column_reads(nz)
    scratch = {}
    for j0 in range(1, ny + 1, spec.y_batch):
        bw = min(spec.y_batch, ny + 1 - j0)
        # slot i % 3 of a field's ring holds rows j0-1 .. j0+bw of X plane i
        rings = {f: np.empty((3, bw + 2, nz)) for f in arrs}
        tc.scratch_bytes_peak = max(tc.scratch_bytes_peak, 9 * (bw + 2) * nz * 8)
        # block r writes the slab's rows; its roles repeat the ring rows of
        # phase r along X (stride 0), so plane x runs row x - x_begin of block x % 3
        outs = [f.data[slab.x_begin : slab.x_end, j0 : j0 + bw] for f in (out.su, out.sv, out.sw)]
        blocks = [BoundBlock(coeffs, {(f, dx, dy): np.broadcast_to(
                      rings[f][(r + dx) % 3, 1 + dy : 1 + dy + bw], (slab.width, bw, nz))
                      for f, dx, dy in COMPUTE_ROLES}, outs, scratch) for r in range(3)]
        for i in range(slab.x_begin - 1, slab.x_end + 1):
            for f, ring in rings.items():
                np.copyto(ring[i % 3], arrs[f][i, j0 - 1 : j0 + bw + 1])
            # the ring now holds planes i-2 .. i, the X window of plane i-1
            if i > slab.x_begin:
                a = i - 1 - slab.x_begin
                compute_block(blocks[(i - 1) % 3], a, a + 1)
        tc.external_reads += 3 * (slab.width + 2) * (bw + 2) * nz
        tc.local_writes += 3 * (slab.width + 2) * (bw + 2) * nz
        tc.local_reads += slab.width * bw * col_reads
        _count_writes(tc, slab.width * bw, nz)


def _run_slab(fields, coeffs, out, slab, spec) -> TrafficReport:
    tc = TrafficReport()
    if spec.variant == "reference":
        _run_reference_slab(fields, coeffs, out, slab, spec, tc)
    elif spec.variant == "column_buffered":
        _run_buffered_slab(fields, coeffs, out, slab, spec, tc, batch=1)
    elif spec.variant == "y_batched":
        _run_buffered_slab(fields, coeffs, out, slab, spec, tc, batch=spec.y_batch)
    else:
        _run_x_reordered_slab(fields, coeffs, out, slab, spec, tc)
    return tc


def run_schedule(fields: FieldSet, coeffs: AdvectionCoefficients,
                 spec: ScheduleSpec) -> tuple[SourceSet, TrafficReport, float]:
    """Execute one schedule; returns (sources, traffic, wall seconds).

    Inputs are shared read-only across engines; each engine writes only its
    X slab of the output, so results are independent of worker interleaving.
    """
    dims = fields.dims
    if coeffs.nz != dims.nz:
        raise ValueError(f"coefficient length {coeffs.nz} != nz {dims.nz}")
    spec.validate(dims)
    slabs = partition_domain(dims, spec.engines)
    out = zeros_sources(dims)
    t0 = time.perf_counter()
    if len(slabs) == 1:
        counters = [_run_slab(fields, coeffs, out, slabs[0], spec)]
    else:
        # engines are logical: the pool never has more threads than cores
        with ThreadPoolExecutor(max_workers=min(len(slabs), os.cpu_count() or 1)) as pool:
            futures = [pool.submit(_run_slab, fields, coeffs, out, slab, spec)
                       for slab in slabs]
            counters = [f.result() for f in futures]
    wall = time.perf_counter() - t0
    traffic = TrafficReport()
    for tc in counters:
        traffic.merge(tc)
    return out, traffic, wall


@dataclass(frozen=True)
class OutputComparison:
    bitwise_equal: bool
    max_abs_diff: float
    max_ulp_diff: int


def _ordered_bits(arr: np.ndarray) -> np.ndarray:
    # monotone int64 image of the float64 bit patterns
    bits = arr.reshape(-1).view(np.int64)
    return np.where(bits >= 0, bits, np.int64(-(2**63)) - bits)


def _max_ulp(a: np.ndarray, b: np.ndarray) -> int:
    oa, ob = _ordered_bits(a), _ordered_bits(b)
    same_side = (oa >= 0) == (ob >= 0)
    worst = 0
    if same_side.any():
        worst = int(np.abs(oa[same_side] - ob[same_side]).max())
    if (~same_side).any():
        ua = np.abs(oa[~same_side]).astype(np.uint64)
        ub = np.abs(ob[~same_side]).astype(np.uint64)
        worst = max(worst, int((ua + ub).max()))
    return worst


def _bits_equal(pairs) -> bool:
    return all(np.array_equal(x.view(np.int64), y.view(np.int64)) for x, y in pairs)


def _unless_both_nan(x: np.ndarray, y: np.ndarray):
    keep = ~(np.isnan(x) & np.isnan(y))
    return x[keep], y[keep]


def compare_outputs(a: SourceSet, b: SourceSet) -> OutputComparison:
    """Exact comparison over the full padded arrays of both source sets.

    Every bit counts, except that a NaN matches any NaN at the same
    position: which NaN operand's sign and payload an operation passes on
    is up to the evaluator (numpy's inner loops, or the compiled kernel),
    not the formulas.
    """
    if a.dims != b.dims:
        raise ValueError(f"dims mismatch: {a.dims} vs {b.dims}")
    pairs = [(a.su.data, b.su.data), (a.sv.data, b.sv.data), (a.sw.data, b.sw.data)]
    if _bits_equal(pairs):
        return OutputComparison(True, 0.0, 0)
    pairs = [_unless_both_nan(x, y) for x, y in pairs]
    if _bits_equal(pairs):
        return OutputComparison(True, 0.0, 0)
    max_abs = max(float(np.abs(x - y).max()) for x, y in pairs)
    max_ulp = max(_max_ulp(x, y) for x, y in pairs)
    # signed zeros compare equal under the ordered mapping but differ bitwise
    return OutputComparison(False, max_abs, max(max_ulp, 1))
