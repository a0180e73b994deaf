"""Tour of the functional layer: grids, field generation, the stencil.

Builds a small halo-padded grid, runs the reference kernel, and shows the
exact identities the test suite leans on: the zero bottom level, the
symmetry cancellation for uniform inputs, and reproducible checksums.
"""

import numpy as np

from pwadvect import (
    GeneratorSpec,
    GridDims,
    advect_point_u,
    checksum,
    default_coefficients,
    fill_fields,
    run_reference,
)

dims = GridDims(16, 16, 12)
print(f"grid: {dims.nx}x{dims.ny}x{dims.nz} = {dims.cells} interior cells,"
      f" padded storage {dims.padded_shape}")

# Deterministic pseudo-random winds: same seed -> bit-identical fields.
fields = fill_fields(dims, GeneratorSpec.random(seed=42))
print("u checksum:", checksum(fields.u))
print("u checksum again:", checksum(fill_fields(dims, GeneratorSpec.random(42)).u))

# Halos hold the periodic wrap of the interior.
assert np.array_equal(fields.u.data[0], fields.u.data[-2])

coeffs = default_coefficients(dims.nz)
sources = run_reference(fields, coeffs)
print("su checksum:", checksum(sources.su))

# The column loop starts at the second level, so level k=1 is always zero.
print("bottom level zero:", bool(np.all(sources.su.data[:, :, 0] == 0.0)))

# One point, evaluated scalar-wise, matches the vectorised run bit for bit.
point = advect_point_u(fields, coeffs, i=3, j=5, k=7)
print("point (3,5,7):", point, "== grid value:", point == sources.su.data[3, 5, 6])

# Uniform winds with tzc1 == tzc2 cancel exactly below the top of the column,
# and the top level collapses to the closed form 2*tzc1*a*c.
uniform = fill_fields(dims, GeneratorSpec.uniform(1.5, -2.0, 3.0))
symmetric = run_reference(uniform, coeffs)
print("uniform case, below top all zero:",
      bool(np.all(symmetric.su.data[1:-1, 1:-1, :-1] == 0.0)))
print("uniform case, top level:", symmetric.su.data[1, 1, -1],
      "closed form:", 2 * 0.25 * 1.5 * 3.0)
