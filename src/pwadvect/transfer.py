"""Host <-> card transfer volumes, DMA timing, and end-to-end composition.

Volumes are computed from interior cells (3 fields x 8 bytes each way) in
decimal GB. Round trips run at the end-to-end rate, the one DMA parameter;
the per-topology rates follow from the measured times in `refdata.DMA_TABLE`.
Kernel and transfer phases are serialized (no overlap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .grid import GridDims, check_positive
from .dataflow import MemoryModel, PipelineSpec, gflops, kernel_time
from .refdata import DMA_TABLE, DMA_TABLE_BYTES, FlopProfile

# Bytes/s of each interconnect wiring of the measured card, from its
# measured time for a DMA_TABLE_BYTES host-to-card copy.
_TOPOLOGY_RATES = {topo: DMA_TABLE_BYTES / ref.value for topo, ref in DMA_TABLE.items()}
TOPOLOGIES = tuple(_TOPOLOGY_RATES)

_DIRECTIONS = ("to_card", "both")


@dataclass(frozen=True)
class DmaConfig:
    """The end-to-end host <-> card rate in bytes/s."""

    end_to_end_bandwidth: float = 5.85e9  # decimal GB convention

    def __post_init__(self):
        check_positive("end_to_end_bandwidth", self.end_to_end_bandwidth)


def transfer_volume(dims: GridDims, direction: str = "both") -> int:
    """Bytes moved between host and card for one kernel invocation: "to_card"
    one way (the results return as many bytes), "both" the round trip."""
    if direction not in _DIRECTIONS:
        raise ValueError(f"direction must be one of {_DIRECTIONS}")
    one_way = 3 * dims.cells * 8
    return 2 * one_way if direction == "both" else one_way


def dma_time(nbytes: float, config: DmaConfig, topology: str) -> float:
    """Seconds to move nbytes, finite and >= 0; topology may also be "end_to_end"."""
    if not 0 <= nbytes < math.inf:
        raise ValueError(f"nbytes = {nbytes} must be finite and >= 0")
    if topology == "end_to_end":
        return nbytes / config.end_to_end_bandwidth
    if topology not in _TOPOLOGY_RATES:
        raise ValueError(f"unknown topology {topology!r}; one of {TOPOLOGIES}")
    return nbytes / _TOPOLOGY_RATES[topology]


@dataclass(frozen=True)
class ModelReport:
    """Predicted breakdown of one offloaded kernel invocation."""

    cells: int
    engines: int
    kernel_seconds: float
    dma_seconds: float
    total_seconds: float
    gflops_kernel: float
    gflops_total: float
    dma_fraction: float


def end_to_end(dims: GridDims, engines: int, pipeline: PipelineSpec,
               mem: MemoryModel, dma: DmaConfig, y_batch: int,
               profile: FlopProfile, controllers: int) -> ModelReport:
    """Compose kernel-time and DMA models into one predicted breakdown."""
    kern = kernel_time(dims, pipeline, mem, y_batch, engines, controllers)
    xfer = dma_time(transfer_volume(dims, "both"), dma, "end_to_end")
    total = kern + xfer
    return ModelReport(
        cells=dims.cells,
        engines=engines,
        kernel_seconds=kern,
        dma_seconds=xfer,
        total_seconds=total,
        gflops_kernel=gflops(dims.cells, profile, kern),
        gflops_total=gflops(dims.cells, profile, total),
        dma_fraction=xfer / total,
    )


def scaling_table(dims: GridDims, engine_list, pipeline: PipelineSpec,
                  mem: MemoryModel, dma: DmaConfig, y_batch: int,
                  profile: FlopProfile, controllers: int) -> list[ModelReport]:
    """One ModelReport per engine count; DMA time is constant across rows."""
    engine_list = list(engine_list)
    if not engine_list:
        raise ValueError("engine list must be non-empty")
    return [end_to_end(dims, e, pipeline, mem, dma, y_batch, profile, controllers)
            for e in engine_list]


def factor_cells(cells: float) -> GridDims:
    """Cube-ish dims for a requested cell count: nz = 64, the study's column
    height, ny a power of two near sqrt(cells/64), nx rounded to match. Used
    by sweep's --cells option."""
    nz = 64
    if not nz <= cells < math.inf:  # also rejects nan
        raise ValueError(f"cell count {cells} must be finite and at least one column of nz={nz}")
    columns = cells / nz
    ny = 2 ** round(math.log2(math.sqrt(columns)))
    nx = max(1, round(columns / ny))
    return GridDims(nx, ny, nz)
