"""Benchmark and cost-model toolkit for the PW advection stencil.

Functional layer: `grid` (halo-padded fields), `kernel` (the stencil and a
reference execution), `schedules` (data-movement variants with traffic
instrumentation, all bitwise-equal in output). Modeling layer: `dataflow`
(pipeline and SDRAM-phase kernel model), `transfer` (DMA volumes/times and
end-to-end composition), calibrated by `params` defaults against the
published measurements in `refdata`. `cli` wires it all to a command line.
"""

from .grid import (
    Field3D,
    FieldSet,
    GeneratorSpec,
    GridDims,
    SourceSet,
    checksum,
    checksums,
    fill_fields,
    make_grid,
)
from .kernel import (
    AdvectionCoefficients,
    advect_point_u,
    advect_point_v,
    advect_point_w,
    default_coefficients,
    operation_census,
    run_reference,
)
from .schedules import (
    ScheduleSpec,
    TrafficReport,
    compare_outputs,
    partition_domain,
    run_schedule,
)
from .dataflow import (
    CycleReport,
    MemoryModel,
    PipelineSpec,
    calibrate,
    gflops,
    kernel_compute_cycles,
    kernel_memory_seconds,
    kernel_time,
    pipeline_cycles,
    pipeline_latency,
)
from .transfer import (
    DmaConfig,
    ModelReport,
    dma_time,
    end_to_end,
    factor_cells,
    scaling_table,
    transfer_volume,
)
from .params import ModelParams, load_params
from .refdata import FlopProfile

__version__ = "0.1.0"
