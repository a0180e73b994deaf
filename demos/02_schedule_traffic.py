"""The optimisation ladder as data movement, measured on the host.

Every schedule computes the identical source terms (checksums prove it);
what changes is where operands live. Traffic counters make the ladder's
memory story quantitative: buffering a column's working set, batching
columns in Y, then reordering X and Y so only the leading plane is fetched
per X step.
"""

from pwadvect import (
    GeneratorSpec,
    GridDims,
    ScheduleSpec,
    checksum,
    compare_outputs,
    default_coefficients,
    fill_fields,
    run_reference,
    run_schedule,
)

dims = GridDims(48, 48, 32)
fields = fill_fields(dims, GeneratorSpec.random(7))
coeffs = default_coefficients(dims.nz)
reference = run_reference(fields, coeffs)

print(f"grid {dims.nx}x{dims.ny}x{dims.nz}, y_batch=16, one engine\n")
header = f"{'schedule':16} {'ext reads':>12} {'ext writes':>11} {'local r/w':>22} {'scratch B':>10} {'wall s':>8}"
print(header)
print("-" * len(header))
for variant in ("reference", "column_buffered", "y_batched", "x_reordered"):
    out, tc, wall = run_schedule(fields, coeffs, ScheduleSpec(variant, y_batch=16))
    assert compare_outputs(reference, out).bitwise_equal
    print(f"{variant:16} {tc.external_reads:>12} {tc.external_writes:>11}"
          f" {tc.local_reads:>11}/{tc.local_writes:>10} {tc.scratch_bytes_peak:>10}"
          f" {wall:8.4f}")

print("\nall variants bitwise-equal; su checksum:", checksum(reference.su))

# Engine decomposition: disjoint X slabs, still bitwise identical, but
# x_reordered fetches two halo planes per slab, so its reads grow with engines.
print("\nx_reordered external reads by engine count:")
for engines in (1, 2, 4, 8):
    _, tc, _ = run_schedule(fields, coeffs, ScheduleSpec("x_reordered", 16, engines))
    print(f"  engines={engines}: {tc.external_reads}")
