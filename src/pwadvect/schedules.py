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


# A staging rule lays out the scratch buffers of one Y batch. It returns,
# per staging phase, the copies that stage X plane i, as (destination,
# source rows of every X plane, dx) reading source plane i + dx, and the
# role rows that the phase's block reads; and the lag, in X steps, from
# staging a plane to computing it. X step i stages with phase i % phases
# and computes plane i - lag with the block of phase (i - lag) % phases.


def _role_rows(arrs, j0, bw, nz):
    """column_buffered, y_batched: the 17 role rows of a plane, staged fresh."""
    rows = {role: np.empty((bw, nz)) for role in COMPUTE_ROLES}
    copies = [(rows[(f, dx, dy)], arrs[f][:, j0 + dy : j0 + dy + bw], dx)
              for f, dx, dy in COMPUTE_ROLES]
    return [copies], [rows], 0


def _plane_ring(arrs, j0, bw, nz):
    """x_reordered: one new plane per field into a 3-slot ring, computed a step later."""
    # slot i % 3 of a field's ring holds rows j0-1 .. j0+bw of X plane i
    rings = {f: np.empty((3, bw + 2, nz)) for f in arrs}
    copies = [[(ring[p], arrs[f][:, j0 - 1 : j0 + bw + 1], 0) for f, ring in rings.items()]
              for p in range(3)]
    # plane x, run by phase x % 3, finds plane x + dx in slot (x + dx) % 3
    roles = [{(f, dx, dy): rings[f][(r + dx) % 3, 1 + dy : 1 + dy + bw]
              for f, dx, dy in COMPUTE_ROLES} for r in range(3)]
    return copies, roles, 1


def _run_staged_slab(fields, coeffs, out, slab, tc, stage, batch):
    """Per Y batch, bind one block per staging phase; per X step, stage, then run one row."""
    nz, ny = fields.dims.nz, fields.dims.ny
    arrs = {"u": fields.u.data, "v": fields.v.data, "w": fields.w.data}
    scratch = {}
    for j0 in range(1, ny + 1, batch):
        bw = min(batch, ny + 1 - j0)
        copies, phases, lag = stage(arrs, j0, bw, nz)
        # each block writes the slab's rows and reads its roles' staged rows
        # repeated along X (stride 0), so plane x runs row x - x_begin
        outs = [f.data[slab.x_begin : slab.x_end, j0 : j0 + bw] for f in (out.su, out.sv, out.sw)]
        blocks = [BoundBlock(coeffs, {role: np.broadcast_to(rows, (slab.width, bw, nz))
                                      for role, rows in roles.items()}, outs, scratch)
                  for roles in phases]
        for i in range(slab.x_begin - lag, slab.x_end + lag):
            for dst, src, dx in copies[i % len(copies)]:
                np.copyto(dst, src[i + dx])
            a = i - lag - slab.x_begin
            if a >= 0:
                compute_block(blocks[(i - lag) % len(blocks)], a, a + 1)
        staged = (slab.width + 2 * lag) * sum(dst.size for dst, _, _ in copies[0])
        tc.external_reads += staged
        tc.local_writes += staged
        tc.scratch_bytes_peak = max(tc.scratch_bytes_peak,
                                    sum(dst.nbytes for phase in copies for dst, _, _ in phase))


def _run_slab(fields, coeffs, out, slab, spec) -> TrafficReport:
    dims = fields.dims
    columns = slab.width * dims.ny
    # every schedule computes each column once: 54 operand touches per mid
    # level and 45 at the top, and 3 outputs stored at levels k >= 2 only
    touches = columns * (reads_per_point(False) * (dims.nz - 2) + reads_per_point(True))
    tc = TrafficReport(external_writes=3 * columns * (dims.nz - 1))
    if spec.variant == "reference":
        run_slab(fields, coeffs, out, slab.x_begin, slab.x_end)
        tc.external_reads = touches
    else:
        _run_staged_slab(fields, coeffs, out, slab, tc,
                         _plane_ring if spec.variant == "x_reordered" else _role_rows,
                         1 if spec.variant == "column_buffered" else spec.y_batch)
        tc.local_reads = touches
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
