"""The accelerator cost model: pipeline arithmetic and the ladder, modeled.

Shows why batching matters (fill/drain amortisation), what clock retiming
buys, and how the calibrated two-parameter SDRAM model reproduces the
published kernel times.
"""

from pwadvect import MemoryModel, load_params, pipeline_cycles, pipeline_latency
from pwadvect.dataflow import kernel_time
from pwadvect.refdata import (
    BATCHED_PIPE, COLUMN_PIPE, EXTRACTED_PIPE, GRID_LADDER, OPTIMISATION_LADDER, RETIMED_PIPE,
    ladder_model_ms,
)

params = load_params()

# One 64-element column through a 71-deep pipeline at II=2: mostly fill/drain.
col = pipeline_cycles(COLUMN_PIPE, 64)
print(f"per-column run:  {col.total_cycles} cycles, {col.full_cycles} full "
      f"({col.utilization:.0%} utilised)")

# Batch 64 columns and reach II=1: the pipeline stays full almost throughout.
batch = pipeline_cycles(BATCHED_PIPE, 64 * 64)
print(f"batched run:     {batch.total_cycles} cycles ({batch.utilization:.0%} utilised)")

print("\nutilisation vs batch size (depth 71, II=1, 64-level columns):")
for columns in (1, 2, 4, 16, 64, 256):
    r = pipeline_cycles(BATCHED_PIPE, columns * 64)
    print(f"  {columns:>3} columns: {r.utilization:7.2%}")

# Retiming: deeper pipeline, faster clock, lower latency overall.
print("\nlatency:", pipeline_latency(EXTRACTED_PIPE), "s at 250 MHz;",
      pipeline_latency(RETIMED_PIPE), "s retimed (3.2 ns period)")

# The ladder, modeled with each row's regime against the measured times.
print(f"\noptimisation ladder on {GRID_LADDER.nx}x{GRID_LADDER.ny}x{GRID_LADDER.nz}:")
print(f"{'row':52} {'modeled ms':>11} {'measured ms':>12}")
for row in OPTIMISATION_LADDER[:2]:
    print(f"{row.label:52} {'-':>11} {row.measured_ms:>12.1f}")
for row, ms in ladder_model_ms(params.memory):
    print(f"{row.label:52} {ms:>11.1f} {row.measured_ms:>12.1f}")

# Where the time goes at the final row: the SDRAM phase dominates.
compute_only = kernel_time(GRID_LADDER, params.pipeline,
                           MemoryModel(eff_bandwidth_1=1e30), params.y_batch, 1,
                           params.controllers)
total = kernel_time(GRID_LADDER, params.pipeline, params.memory, params.y_batch, 1,
                    params.controllers)
print(f"\nfinal row split: compute {compute_only*1e3:.1f} ms, "
      f"memory {1e3*(total-compute_only):.1f} ms of {total*1e3:.1f} ms total")
