"""Interchangeable execution schedules for the advection kernel.

Every schedule produces a SourceSet bitwise-equal to `kernel.run_reference`
(they all evaluate the shared formulas in the canonical order) and differs
only in how operands move between the full-grid arrays and per-engine
scratch buffers. Traffic counters record that movement exactly, in units of
double-precision elements; conventions are in docs/model-notes.md section 3.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .grid import (FieldSet, GridDims, SourceSet, _on_threads, _pieces, _run_outputs,
                   check_config, cut)
from .kernel import (
    COMPUTE_ROLES,
    AdvectionCoefficients,
    compute_block,
    grid_roles,
    reads_per_point,
)

VARIANTS = ("reference", "column_buffered", "y_batched", "x_reordered")
# the variants that stage Y batches of y_batch rows; column_buffered's are one row
Y_BATCHED = ("y_batched", "x_reordered")


def partition_domain(dims: GridDims, engines: int) -> list[range]:
    """The engines' interior X ranges, 1-based: balanced and contiguous,
    widths differing by at most one, wider first (grid.cut)."""
    check_config(dims, engines, y_batch=1)
    return cut(range(1, dims.nx + 1), engines)


@dataclass(frozen=True)
class ScheduleSpec:
    variant: str = "reference"
    y_batch: int = 64
    engines: int = 1

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; one of {VARIANTS}")

    def validate(self, dims: GridDims) -> None:
        check_config(dims, self.engines, self.y_batch, batched=self.variant in Y_BATCHED)


@dataclass(frozen=True)
class TrafficReport:
    """Element loads/stores per memory class; scratch peak is per engine."""

    external_reads: int = 0
    external_writes: int = 0
    local_reads: int = 0
    local_writes: int = 0
    scratch_bytes_peak: int = 0


# A staging rule lays out the scratch buffers of a slab's Y batches of `bw`
# rows. Its sources hold the slab's X planes, full height, and one halo
# plane on each side, so source plane p is X plane slab.start - 1 + p and
# output row a is source plane a + 1. It returns, per staging phase, the
# copies that an X step makes, as (destination, source, dx), and the role
# rows that the phase's rows read; and the lag, in X steps, from step to
# row. The slab's one compute_block call runs every batch, and in the batch
# at row y each copy starts at source row y (see compute_block's loop nest).


def _role_rows(arrs, bw, nz):
    """column_buffered, y_batched: the 17 role rows of a plane, staged fresh."""
    rows = {role: np.empty((bw, nz)) for role in COMPUTE_ROLES}
    # step i computes row i, which reads source plane i + 1 + dx
    copies = [(rows[(f, dx, dy)], arrs[f][:, 1 + dy :], dx + 1) for f, dx, dy in COMPUTE_ROLES]
    return [copies], [rows], 0


def _plane_ring(arrs, bw, nz):
    """x_reordered: one new plane per field into a 3-slot ring, computed two steps later."""
    # slot i % 3 of a field's ring holds the batch's rows y .. y+bw+1 of
    # source plane i, the batch and a halo row on each side
    rings = {f: np.empty((3, bw + 2, nz)) for f in arrs}
    copies = [[(ring[p], arrs[f], 0) for f, ring in rings.items()] for p in range(3)]
    # row a, run by phase a % 3 at step a + 2, finds source plane a + 1 + dx
    # in slot (a + 1 + dx) % 3
    roles = [{(f, dx, dy): rings[f][(r + 1 + dx) % 3, 1 + dy : 1 + dy + bw]
              for f, dx, dy in COMPUTE_ROLES} for r in range(3)]
    return copies, roles, 2


def _run_slab(fields, coeffs, out, slab, spec) -> tuple[int, int]:
    """One compute_block call over X range `slab`; returns (elements its copies
    staged, bytes of its staging buffers), (0, 0) for the reference."""
    nz, ny = fields.dims.nz, fields.dims.ny
    outs = tuple(f.data[slab.start : slab.stop, 1 : ny + 1] for f in (out.su, out.sv, out.sw))
    if spec.variant == "reference":
        return compute_block(coeffs, [grid_roles(fields, slab.start, slab.stop)], outs), 0
    batch = spec.y_batch if spec.variant in Y_BATCHED else 1
    arrs = {f: getattr(fields, f).data[slab.start - 1 : slab.stop + 1] for f in "uvw"}
    stage = _plane_ring if spec.variant == "x_reordered" else _role_rows
    copies, phases, lag = stage(arrs, batch, nz)
    # the call reads each role's staged rows repeated along X (stride 0)
    staged = compute_block(
        coeffs, [{role: np.broadcast_to(rows, (len(slab), batch, nz))
                  for role, rows in roles.items()} for roles in phases], outs, copies, lag)
    return staged, sum(dst.nbytes for phase in copies for dst, _, _ in phase)


def run_schedule(fields: FieldSet, coeffs: AdvectionCoefficients,
                 spec: ScheduleSpec) -> tuple[SourceSet, TrafficReport, float]:
    """Execute one schedule; returns (sources, traffic, wall seconds).

    Inputs are shared read-only across engines; each engine writes only its
    X slab of the output, so results are independent of worker interleaving.
    The reference cuts each of its `engines` slabs further into the X
    pieces of grid._pieces(slab, cells, engines), each run as its own slab,
    so a 1-engine run uses every core for the kernel and for the first
    touch of fresh outputs. The outputs come from grid._run_outputs, which
    hands back a released earlier set. Engines are logical: the jobs run on
    grid._on_threads. A job returns only what its kernel call staged; the
    traffic is derived once, over the whole grid, so no cut can change it.
    """
    dims = fields.dims
    spec.validate(dims)
    jobs = partition_domain(dims, spec.engines)
    if spec.variant == "reference":
        jobs = [piece for slab in jobs
                for piece in _pieces(slab, len(slab) * dims.ny * dims.nz, spec.engines)]
    out = _run_outputs(dims)
    t0 = time.perf_counter()
    measured = _on_threads(lambda slab: _run_slab(fields, coeffs, out, slab, spec), jobs)
    wall = time.perf_counter() - t0
    # every schedule computes each column once: 54 operand touches per mid
    # level and 45 at the top, and 3 outputs stored at levels k >= 2 (the
    # zero that restores level k = 1 of a reused output is not counted)
    columns = dims.nx * dims.ny
    touches = columns * (reads_per_point(False) * (dims.nz - 2) + reads_per_point(True))
    # compute reads the grid in the reference, else the staging buffers;
    # every element the copies staged is one external read and one local write
    grid_touches, local_reads = (touches, 0) if spec.variant == "reference" else (0, touches)
    staged = sum(n for n, _ in measured)
    traffic = TrafficReport(external_reads=staged + grid_touches,
                            external_writes=3 * columns * (dims.nz - 1), local_reads=local_reads,
                            local_writes=staged, scratch_bytes_peak=max(b for _, b in measured))
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
    ua, ub = oa.view(np.uint64), ob.view(np.uint64)
    # |oa - ob| can exceed int64 but not uint64, where the smaller is
    # subtracted from the larger mod 2^64
    return int(np.where(oa >= ob, ua - ub, ub - ua).max(initial=0))


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
