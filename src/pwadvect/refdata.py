"""Published reference measurements the models are validated against.

Static, read-only tables from the FPGA port study of the MONC PW advection
kernel that this toolkit models (ADM8K5 card, KU115 FPGA, dual-socket
Sandybridge host). Every row carries a citation string naming the table or
result it came from; rows are reference data for reports and plots, and the
subset used as acceptance anchors is exercised by `pwadvect.cli` validate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

from .dataflow import MemoryModel, PipelineSpec, kernel_time
from .grid import GridDims

DATA_SOURCE = "published PW-advection HLS port study (ADM8K5 / KU115-2)"

# Benchmark grids used throughout the study (interior extents).
GRID_LADDER = GridDims(512, 512, 64)     # 16.7M cells, kernel optimisation table
GRID_STRATUS = GridDims(1012, 1024, 64)  # 67M cells, stratus cloud test case
GRID_LARGEST = GridDims(2047, 2048, 64)  # 268.3M cells, largest scaling point

# Pipeline regimes of the measured kernel's optimisation history, checked by
# validate and run by the ladder: per-column mode (71 deep, II 2, one
# 64-element column per run), 64 columns batched at II 1, the depth after
# variable extraction, all at the 250 MHz base clock, and the retimed 72-deep
# cores at the exact 3.2 ns latency clock. The tuned kernel sustains those
# cores at 310 MHz, the ladder's final regime and the default pipeline.
COLUMN_PIPE = PipelineSpec(71, 2, 250e6)
COLUMN_LENGTH = 64
BATCHED_PIPE = PipelineSpec(71, 1, 250e6)
BATCH_ELEMENTS = 4096
EXTRACTED_PIPE = PipelineSpec(65, 1, 250e6)
RETIMED_PIPE = PipelineSpec(72, 1, 312.5e6)
TUNED_PIPE = PipelineSpec(72, 1, 310e6)


@dataclass(frozen=True)
class LadderRow:
    """One row of the kernel optimisation ladder.

    measured_ms is the published kernel-only runtime on GRID_LADDER. Rows
    with a pipeline regime are modeled: (pipe, y_batch) plus two traffic
    knobs, planes per X step and an access-efficiency multiplier on the
    calibrated bandwidth (docs/model-notes.md section 4).
    """

    label: str
    citation: str
    measured_ms: float
    pipe: PipelineSpec | None = None
    y_batch: int = 0
    planes: int = 0
    access_efficiency: float = 0.0

    @property
    def modeled(self) -> bool:
        return self.pipe is not None


def _ladder(*steps) -> tuple[LadderRow, ...]:
    """Rows from (label, measured_ms, changes) steps: each row's regime is
    the one before with that step's `changes` applied."""
    rows, regime = [], {}
    for label, measured_ms, changes in steps:
        regime = {**regime, **changes}
        rows.append(LadderRow(label, f"kernel optimisation ladder row: {label!r}",
                              measured_ms, **regime))
    return tuple(rows)


# Each row states only what its optimisation changes. The pre-pipeline rows
# (CPU reference, initial port) have no dataflow regime to model; they are
# shipped for display only.
OPTIMISATION_LADDER = _ladder(
    ("Reference on CPU (1 core)", 676.4, {}),
    ("Initial port", 51498.0, {}),
    ("Pipeline directive on inner loop", 14130.0,
     dict(pipe=COLUMN_PIPE, y_batch=1, planes=57, access_efficiency=0.31)),
    ("Local BRAM for column data", 3213.2, dict(planes=12)),
    ("Local BRAM batches columns in Y", 1513.2,
     dict(pipe=BATCHED_PIPE, y_batch=64, access_efficiency=0.50)),
    ("Extract all variables", 1301.6, dict(pipe=EXTRACTED_PIPE)),
    ("Burst mode on port", 1097.2, dict(access_efficiency=0.90)),
    ("Re-order X and Y loops", 621.3, dict(planes=6)),
    ("Replace memcpy with explicit loops", 568.1, dict(access_efficiency=1.0)),
    ("Tune double precision cores and clock to 310Mhz", 514.9, dict(pipe=TUNED_PIPE)),
)


def ladder_model_ms(mem: MemoryModel) -> list[tuple[LadderRow, float]]:
    """Modeled kernel time (ms) on GRID_LADDER, the grid of the measured
    times, on one engine (so one controller group), per regime-bearing row."""
    out = []
    for row in OPTIMISATION_LADDER:
        if not row.modeled:
            continue
        row_mem = replace(mem, eff_bandwidth_1=mem.eff_bandwidth_1 * row.access_efficiency,
                          arrays_per_xstep=row.planes)
        out.append((row, kernel_time(GRID_LADDER, row.pipe, row_mem, row.y_batch, 1, 1) * 1e3))
    return out


@dataclass(frozen=True)
class FlopProfile:
    """The published per-cell op credit behind GFLOP/s; a fact, so it has no fields."""

    adds_per_cell: ClassVar[int] = 21
    muls_per_cell: ClassVar[int] = 32
    total_per_cell: ClassVar[int] = adds_per_cell + muls_per_cell


@dataclass(frozen=True)
class ReferenceValue:
    """One published number with its anchor and the checking tolerance."""

    value: float
    rel_tol: float
    citation: str

    def matches(self, got: float) -> bool:
        """Within rel_tol x value; rel_tol 0 makes this an exact comparison."""
        return abs(got - self.value) <= self.rel_tol * self.value


# Headline measurements used as validation anchors. Tolerances are the
# acceptance tolerances; exact integers carry rel_tol 0.
HEADLINE = {
    "column_run_total_cycles": ReferenceValue(
        199, 0.0, "pipeline report: 71-deep, II=2, 64-element column"),
    "column_run_full_cycles": ReferenceValue(
        57, 0.0, "pipeline report: 57 of 199 cycles full (28%)"),
    "column_run_utilization": ReferenceValue(
        0.286, 0.005 / 0.286, "pipeline report: 28% full"),
    "batched_run_total_cycles": ReferenceValue(
        4167, 0.0, "pipeline report: 64-column batch, II=1"),
    "batched_run_utilization": ReferenceValue(
        0.966, 0.005 / 0.966, "pipeline report: 97% full"),
    "latency_extracted": ReferenceValue(
        2.6e-7, 0.0, "retiming note: 2.6e-7 s before clock tuning"),
    "latency_retimed": ReferenceValue(
        2.304e-7, 0.0, "retiming note: 2.3e-7 s after clock tuning"),
    "volume_both_gb": ReferenceValue(
        12.88e9, 0.01, "largest-case note: 12.88 GB transferred"),
    "volume_one_way_gb": ReferenceValue(
        6.44e9, 0.01, "grid-size note: 6.44 GB of field data"),
    "dma_round_trip_seconds": ReferenceValue(
        2.2, 0.02, "largest-case note: 12.88 GB takes 2.2 s (5.85 GB/s)"),
    "ladder_final_ms": ReferenceValue(
        OPTIMISATION_LADDER[-1].measured_ms, 0.05, OPTIMISATION_LADDER[-1].citation),
    "gflops_kernel": ReferenceValue(
        14.36, 0.05, "scaling note: HLS kernel provides 14.36 GFLOP/s"),
    "gflops_total": ReferenceValue(
        4.2, 0.10, "scaling note: drops to 4.2 GFLOP/s with DMA included"),
    "dma_fraction_12": ReferenceValue(
        0.70, 0.0, "breakdown note: 70% of total time in DMA transfer; checked as >= 0.65"),
    # the 12-core Broadwell CPU rate at 268.3M cells
    "cpu_broadwell_gflops": ReferenceValue(
        17.75, 0.0, "scaling note: CPU comparison point, display only"),
}

# The two published kernel times `calibrate` fits by default (model-notes section 4).
CALIBRATION_OBSERVATIONS = (
    (GRID_LADDER, 1, HEADLINE["ladder_final_ms"].value / 1e3),
    (GRID_LARGEST, 12,
     GRID_LARGEST.cells * FlopProfile.total_per_cell / (HEADLINE["gflops_kernel"].value * 1e9)),
)

# The published 70% DMA share is checked as a floor, not within a tolerance.
DMA_FRACTION_FLOOR = 0.65

# Measured DMA microbenchmark: seconds to copy DMA_TABLE_BYTES host -> card
# for each interconnect wiring of the card.
DMA_TABLE_BYTES = 1.6e9
DMA_TABLE = {
    "split_banks_4ch": ReferenceValue(
        0.232, 0.0, "DMA configuration table: 'Design described here'"),
    "one_controller_4ch": ReferenceValue(
        0.280, 0.0, "DMA configuration table: 'One memory controller only'"),
    "connected_controllers_4ch": ReferenceValue(
        0.239, 0.0, "DMA configuration table: 'Two memory controllers connected'"),
    "one_ch_per_controller": ReferenceValue(
        0.342, 0.0, "DMA configuration table: 'One DMA channel per memory controller'"),
}
