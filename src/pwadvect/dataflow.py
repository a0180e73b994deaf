"""Analytic model of the pipelined accelerator kernel.

Pipeline fill/drain arithmetic, clock retiming, batched compute cycles and a
two-parameter SDRAM phase model (effective bandwidth + per-engine contention
on a shared controller), serialized with compute. Forms and calibration are
derived in docs/model-notes.md section 4. Checks run per configuration
test their `grid` rule's condition inline and call the rule only to raise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import GridDims, check_config, check_count, check_positive
from .kernel import FlopProfile


@dataclass(frozen=True)
class PipelineSpec:
    """Pipeline depth (cycles), initiation interval (cycles/element), clock."""

    depth: int
    ii: int
    clock_hz: float

    def __post_init__(self):
        check_count("depth", self.depth)
        check_count("ii", self.ii)
        check_positive("clock_hz", self.clock_hz)


@dataclass(frozen=True)
class MemoryModel:
    """External-memory phase parameters of the modeled kernel.

    arrays_per_xstep counts external plane moves per X step (3 field planes
    read + 3 source planes written by default; role multiplicities are folded
    into eff_bandwidth_1). contention is the multiplicative bandwidth
    derating per extra engine sharing one controller. Every field enters the
    timing formula.
    """

    eff_bandwidth_1: float
    contention: float = 1.0
    arrays_per_xstep: int = 6

    def __post_init__(self):
        check_positive("eff_bandwidth_1", self.eff_bandwidth_1)
        # bandwidth with g engines on a controller is eff_bandwidth_1 * contention**(g-1):
        # a derating, so it may not grow with g nor reach zero
        check_positive("contention", self.contention, top=1)
        check_count("arrays_per_xstep", self.arrays_per_xstep)


@dataclass(frozen=True)
class CycleReport:
    total_cycles: int
    fill_cycles: int
    drain_cycles: int
    full_cycles: int
    utilization: float


def pipeline_cycles(spec: PipelineSpec, n_elements: int) -> CycleReport:
    """Cycles to stream n_elements through the pipeline, one run.

    total = depth + ii*n; the pipeline is counted fully utilised outside one
    fill and one drain interval: full = max(0, total - 2*depth).
    """
    if type(n_elements) is not int or n_elements < 1:
        check_count("n_elements", n_elements)
    total = spec.depth + spec.ii * n_elements
    full = max(0, total - 2 * spec.depth)
    return CycleReport(total, spec.depth, spec.depth, full, full / total)


def pipeline_latency(spec: PipelineSpec) -> float:
    """Seconds for one element to traverse the pipeline."""
    return spec.depth / spec.clock_hz


def kernel_compute_cycles(dims: GridDims, spec: PipelineSpec, y_batch: int) -> int:
    """Pipeline cycles over the grid, processed in Y batches of whole columns.

    Nominal accounting: every batch is charged at the full y_batch*nz element
    count (the functional kernel's inner trip count is nz-1; see notes).
    """
    if type(y_batch) is not int or not 1 <= y_batch <= dims.ny:
        check_config(dims, 1, y_batch)
    runs = dims.nx * math.ceil(dims.ny / y_batch)
    return runs * pipeline_cycles(spec, y_batch * dims.nz).total_cycles


def kernel_memory_bytes(dims: GridDims, mem: MemoryModel, y_batch: int) -> int:
    """External bytes moved by the memory phases of one kernel run."""
    return dims.nx * math.ceil(dims.ny / y_batch) * mem.arrays_per_xstep * (y_batch * dims.nz * 8)


def kernel_memory_seconds(dims: GridDims, mem: MemoryModel, y_batch: int,
                          engines_on_controller: int = 1) -> float:
    """Serialized SDRAM phase time for one engine's share of the grid."""
    bw = mem.eff_bandwidth_1 * mem.contention ** (engines_on_controller - 1)
    return kernel_memory_bytes(dims, mem, y_batch) / bw


def _slowest_engine(dims: GridDims, spec: PipelineSpec, y_batch: int, engines: int,
                    controllers: int) -> tuple[GridDims, int, float]:
    """The slowest engine: its share of the grid, the widest X slab of
    ceil(nx / engines) columns as schedules.partition_domain cuts; its
    controller group, the most crowded of ceil(engines / controllers)
    engines; and its compute seconds. ValueError for an illegal configuration."""
    check_config(dims, engines, y_batch)
    if type(controllers) is not int or controllers < 1:
        check_count("controllers", controllers)
    share = GridDims(math.ceil(dims.nx / engines), dims.ny, dims.nz)
    compute = kernel_compute_cycles(share, spec, y_batch) / spec.clock_hz
    return share, math.ceil(engines / controllers), compute


def kernel_time(dims: GridDims, spec: PipelineSpec, mem: MemoryModel,
                y_batch: int, engines: int = 1, controllers: int = 2) -> float:
    """Modeled wall seconds for the kernel phase (no host transfers).

    Engines are spread as evenly as possible over the memory controllers;
    the reported time is the slowest engine: widest X slab, most crowded
    controller group.
    """
    share, group, compute = _slowest_engine(dims, spec, y_batch, engines, controllers)
    return compute + kernel_memory_seconds(share, mem, y_batch, group)


def gflops(cells: float, profile: FlopProfile, seconds: float) -> float:
    """Accounted GFLOP/s: cells x per-cell credit / seconds."""
    if not 0 < seconds < math.inf:
        check_positive("seconds", seconds)
    return cells * profile.total_per_cell / seconds / 1e9


def check_observation(dims: GridDims, engines, seconds) -> None:
    """One calibration observation's rule: check_config's engines, check_positive's seconds."""
    check_positive("seconds", seconds)
    check_config(dims, engines, 1)


@dataclass(frozen=True)
class CalibrationResult:
    model: MemoryModel
    relative_residuals: tuple[float, ...]  # (modeled - observed)/observed per point


def calibrate(observations, spec: PipelineSpec, y_batch: int,
              controllers: int = 2, base: MemoryModel | None = None) -> CalibrationResult:
    """Fit (eff_bandwidth_1, contention) to observed kernel times.

    observations: iterable of (dims, engines, seconds), each held to
    check_observation. Each observation pins the memory-phase rate
    bw * contention^(g-1) once the modeled compute time is subtracted;
    the fit is least squares in log space (first-order relative error).
    Needs observations spanning at least two controller group sizes,
    otherwise the system is singular, and a fitted contention of at most 1.
    """
    base = base or MemoryModel(eff_bandwidth_1=1.0)
    obs = list(observations)
    if len(obs) < 2:
        raise ValueError("need at least two observations")
    rows, rhs = [], []
    for dims, engines, seconds in obs:
        check_observation(dims, engines, seconds)
        share, group, compute = _slowest_engine(dims, spec, y_batch, engines, controllers)
        mem_seconds = seconds - compute
        if mem_seconds <= 0:
            raise ValueError(
                f"observation {dims} x{engines} is faster than modeled compute alone")
        rate = kernel_memory_bytes(share, base, y_batch) / mem_seconds
        rows.append([1.0, group - 1])
        rhs.append(math.log(rate))
    a = np.array(rows)
    if np.linalg.matrix_rank(a) < 2:
        raise ValueError("degenerate observation set: controller group sizes coincide")
    (ln_bw, ln_c), *_ = np.linalg.lstsq(a, np.array(rhs), rcond=None)
    if ln_c > 1e-9:  # beyond rounding: the model derates bandwidth, never raises it
        raise ValueError("observations need contention > 1: engines sharing a "
                         "controller cannot each run faster than one alone")
    model = replace(base, eff_bandwidth_1=math.exp(ln_bw), contention=min(1.0, math.exp(ln_c)))
    residuals = []
    for dims, engines, seconds in obs:
        modeled = kernel_time(dims, spec, model, y_batch, engines, controllers)
        residuals.append((modeled - seconds) / seconds)
    return CalibrationResult(model, tuple(residuals))
