"""End-to-end offload predictions: where PCIe transfer eats the speedup.

Composes the kernel model with the DMA model over engine counts and grid
sizes. Kernel time scales down with engines while the transfer time is
fixed, so the DMA share climbs toward ~70% at twelve engines on the
67M-cell case; per-direction microbenchmark rates for the four card wiring
options are reproduced from the measured table in `refdata.DMA_TABLE`.
"""

from pwadvect import dma_time, factor_cells, load_params, scaling_table
from pwadvect.refdata import DMA_TABLE, GRID_LARGEST, GRID_STRATUS
from pwadvect.transfer import TOPOLOGIES

params = load_params()

print("DMA microbenchmark (1.6 GB) by card wiring:")
for topo in TOPOLOGIES:
    t = dma_time(1.6e9, params.dma, topo)
    print(f"  {topo:28} {t*1e3:6.0f} ms   [{DMA_TABLE[topo].citation}]")

print(f"\nscaling engines on {GRID_STRATUS.nx}x{GRID_STRATUS.ny}x{GRID_STRATUS.nz}"
      f" ({GRID_STRATUS.cells/1e6:.0f}M cells):")
print(f"{'engines':>7} {'kernel s':>9} {'dma s':>7} {'total s':>8} {'dma share':>10} {'GF/s total':>11}")
for rep in scaling_table(GRID_STRATUS, range(1, 13), params.pipeline, params.memory,
                         params.dma, params.y_batch, params.flops, params.controllers):
    print(f"{rep.engines:>7} {rep.kernel_seconds:>9.3f} {rep.dma_seconds:>7.3f}"
          f" {rep.total_seconds:>8.3f} {rep.dma_fraction:>10.1%} {rep.gflops_total:>11.2f}")

print("\ngrid-size sweep at twelve engines (log-scale friendly):")
print(f"{'cells':>12} {'grid':>14} {'kernel s':>9} {'dma s':>8} {'GF/s kernel':>12} {'GF/s total':>11}")
for cells in (1e6, 4e6, 16e6, 67e6, 268e6):
    dims = factor_cells(cells)
    rep = scaling_table(dims, [12], params.pipeline, params.memory, params.dma,
                        params.y_batch, params.flops, params.controllers)[0]
    grid = f"{dims.nx}x{dims.ny}x{dims.nz}"
    print(f"{rep.cells:>12} {grid:>14} {rep.kernel_seconds:>9.3f} {rep.dma_seconds:>8.3f}"
          f" {rep.gflops_kernel:>12.2f} {rep.gflops_total:>11.2f}")

rep = scaling_table(GRID_LARGEST, [12], params.pipeline, params.memory, params.dma,
                    params.y_batch, params.flops, params.controllers)[0]
print(f"\nlargest case: {rep.cells/1e6:.1f}M cells -> kernel {rep.kernel_seconds:.3f} s"
      f" ({rep.gflops_kernel:.2f} GFLOP/s), transfers {rep.dma_seconds:.2f} s,"
      f" end-to-end {rep.gflops_total:.2f} GFLOP/s")
