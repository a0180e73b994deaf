import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pwadvect import kernel
from pwadvect.grid import GeneratorSpec, checksum, fill_fields, make_grid, wrap_halos
from pwadvect.kernel import (
    COMPUTE_ROLES,
    AdvectionCoefficients,
    FlopProfile,
    advect_point_u,
    advect_point_v,
    advect_point_w,
    compute_block,
    default_coefficients,
    flops,
    operation_census,
    reads_per_point,
    run_reference,
)
from pwadvect.schedules import ScheduleSpec, compare_outputs, run_schedule
from naive_oracle import naive_sources

GOLDENS = json.loads((Path(__file__).parent / "goldens.json").read_text())
POINT_OPS = (advect_point_u, advect_point_v, advect_point_w)


def random_coeffs(nz, seed=11):
    rng = np.random.default_rng(seed)
    return AdvectionCoefficients(float(rng.random()), float(rng.random()),
                                 rng.random(nz), rng.random(nz))


def test_zero_fields_zero_everywhere():
    dims = make_grid(4, 3, 5)
    fields = fill_fields(dims, GeneratorSpec.uniform(0, 0, 0))
    coeffs = random_coeffs(dims.nz)
    for op in POINT_OPS:
        assert op(fields, coeffs, 2, 2, 3) == 0.0
    src = run_reference(fields, coeffs)
    assert all(np.all(s.data == 0.0) for s in (src.su, src.sv, src.sw))


def test_uniform_symmetry_cancellation_below_top():
    # tzc1 == tzc2: every term is a difference of identical products
    dims = make_grid(5, 5, 6)
    fields = fill_fields(dims, GeneratorSpec.uniform(1.7, -0.3, 2.4))
    coeffs = default_coefficients(dims.nz, 0.25)
    for op in POINT_OPS:
        for k in range(2, dims.nz):
            assert op(fields, coeffs, 3, 3, k) == 0.0
    src = run_reference(fields, coeffs)
    for s in (src.su, src.sv, src.sw):
        assert np.all(s.data[1:-1, 1:-1, : dims.nz - 1] == 0.0)


def test_top_of_column_hand_value():
    # uniform u=v=w=1, tzc1(nz)=0.25: X and Y cancel, Z = 0.25*1*(1+1) = 0.5
    dims = make_grid(3, 3, 4)
    fields = fill_fields(dims, GeneratorSpec.uniform(1, 1, 1))
    coeffs = default_coefficients(dims.nz, 0.25)
    assert advect_point_u(fields, coeffs, 1, 1, dims.nz) == 0.5
    assert advect_point_v(fields, coeffs, 2, 3, dims.nz) == 0.5
    assert advect_point_w(fields, coeffs, 3, 2, dims.nz) == 0.5


def test_top_of_column_closed_forms():
    a, b, c = 1.25, -0.75, 2.5
    dims = make_grid(4, 4, 5)
    fields = fill_fields(dims, GeneratorSpec.uniform(a, b, c))
    coeffs = default_coefficients(dims.nz, 0.25)
    t1 = float(coeffs.tzc1[-1])
    expect = {advect_point_u: 2 * t1 * a * c,
              advect_point_v: 2 * t1 * b * c,
              advect_point_w: 2 * t1 * c * c}
    for op, val in expect.items():
        got = op(fields, coeffs, 2, 2, dims.nz)
        assert got == pytest.approx(val, abs=2 * np.spacing(val))


def test_uniform_sources_nonzero_only_at_top():
    dims = make_grid(6, 4, 5)
    fields = fill_fields(dims, GeneratorSpec.uniform(1.0, 2.0, 3.0))
    src = run_reference(fields, default_coefficients(dims.nz))
    for s in (src.su, src.sv, src.sw):
        assert np.all(s.data[1:-1, 1:-1, :-1] == 0.0)
        assert np.all(s.data[1:-1, 1:-1, -1] != 0.0)


def test_point_ops_match_run_reference_bitwise():
    dims = make_grid(5, 4, 6)
    fields = fill_fields(dims, GeneratorSpec.random(7))
    coeffs = random_coeffs(dims.nz)
    src = run_reference(fields, coeffs)
    arrs = {advect_point_u: src.su, advect_point_v: src.sv, advect_point_w: src.sw}
    for op, out in arrs.items():
        for i in range(1, dims.nx + 1):
            for j in range(1, dims.ny + 1):
                for k in range(2, dims.nz + 1):
                    assert op(fields, coeffs, i, j, k) == out.data[i, j, k - 1]


def test_dual_implementation_oracle_bitwise():
    rng = np.random.default_rng(5)
    for _ in range(5):
        dims = make_grid(int(rng.integers(1, 10)), int(rng.integers(1, 10)),
                         int(rng.integers(2, 10)))
        fields = fill_fields(dims, GeneratorSpec.random(int(rng.integers(0, 10_000))))
        coeffs = random_coeffs(dims.nz, seed=int(rng.integers(0, 10_000)))
        ref = run_reference(fields, coeffs)
        oracle = naive_sources(fields, coeffs)
        for x, y in ((ref.su, oracle.su), (ref.sv, oracle.sv), (ref.sw, oracle.sw)):
            assert x.data.tobytes() == y.data.tobytes()


def test_reference_golden_checksums():
    # golden digests were produced by the naive transcription (tests/goldens.json)
    dims = make_grid(8, 8, 8)
    fields = fill_fields(dims, GeneratorSpec.random(42))
    src = run_reference(fields, default_coefficients(dims.nz))
    assert checksum(src.su) == GOLDENS["sources"]["su"]
    assert checksum(src.sv) == GOLDENS["sources"]["sv"]
    assert checksum(src.sw) == GOLDENS["sources"]["sw"]


def test_bottom_level_zero():
    dims = make_grid(6, 6, 3)
    fields = fill_fields(dims, GeneratorSpec.random(9))
    src = run_reference(fields, random_coeffs(dims.nz))
    for s in (src.su, src.sv, src.sw):
        assert np.all(s.data[:, :, 0] == 0.0)


def _shift_fields(fields, sx, sy):
    shifted = []
    for f in (fields.u, fields.v, fields.w):
        g = f.copy()
        g.data[1:-1, 1:-1, :] = np.roll(f.data[1:-1, 1:-1, :], (sx, sy), axis=(0, 1))
        wrap_halos(g.data)
        shifted.append(g)
    from pwadvect.grid import FieldSet
    return FieldSet(*shifted)


@pytest.mark.parametrize("sx,sy", [(1, 0), (0, 1), (3, 2)])
def test_translation_equivariance(sx, sy):
    dims = make_grid(6, 5, 4)
    fields = fill_fields(dims, GeneratorSpec.random(13))
    coeffs = random_coeffs(dims.nz)
    base = run_reference(fields, coeffs)
    moved = run_reference(_shift_fields(fields, sx, sy), coeffs)
    for a, b in ((base.su, moved.su), (base.sv, moved.sv), (base.sw, moved.sw)):
        rolled = np.roll(a.data[1:-1, 1:-1, :], (sx, sy), axis=(0, 1))
        assert np.array_equal(rolled, b.data[1:-1, 1:-1, :])


def test_operation_census():
    census = operation_census(top=False)
    for counts in census.values():
        assert counts == {"muls": 10, "adds": 11, "loads": 18}
    census_top = operation_census(top=True)
    for counts in census_top.values():
        assert counts == {"muls": 8, "adds": 9, "loads": 15}
    assert reads_per_point(False) == 54
    assert reads_per_point(True) == 45


def test_flop_profile_and_flops():
    default = FlopProfile()
    assert default.total_per_cell == 53
    assert default.adds_per_cell == 21 and default.muls_per_cell == 32
    assert flops(make_grid(1, 1, 2)) == 2 * 53
    assert flops(make_grid(4, 4, 4), FlopProfile(0, 0)) == 0
    # 268.3M cells at 53 ops/cell is consistent with 14.36 GFLOP/s over 0.990 s
    total = make_grid(2047, 2048, 64).cells * 53
    assert total == pytest.approx(1.422e10, rel=1e-3)
    assert total / 14.36e9 == pytest.approx(0.990, rel=1e-3)


def test_run_reference_rejects_mismatched_coefficients():
    dims = make_grid(3, 3, 4)
    fields = fill_fields(dims, GeneratorSpec.uniform(1, 1, 1))
    with pytest.raises(ValueError):
        run_reference(fields, default_coefficients(dims.nz + 1))


def test_nz2_grid_only_top_branch():
    dims = make_grid(3, 3, 2)
    fields = fill_fields(dims, GeneratorSpec.random(3))
    coeffs = random_coeffs(dims.nz)
    ref = run_reference(fields, coeffs)
    oracle = naive_sources(fields, coeffs)
    assert ref.su.data.tobytes() == oracle.su.data.tobytes()
    assert np.all(ref.su.data[:, :, 0] == 0.0)


def _block_shapes(monkeypatch, block_cells):
    """Shrink the block constant; return the list of (planes, rows) evaluated."""
    monkeypatch.setattr(kernel, "BLOCK_CELLS", block_cells)
    shapes = []
    real = kernel.compute_block

    def recording(coeffs, roles, out, scratch):
        shapes.append(roles[("u", 0, 0)].shape[:2])
        return real(coeffs, roles, out, scratch)

    monkeypatch.setattr(kernel, "compute_block", recording)
    return shapes


# (grid, block cells, expected block shapes): ragged X blocks of whole planes,
# ragged Y blocks of a plane larger than a block, single columns, nz = 2
BLOCK_CASES = [
    ((7, 5, 6), 60, [(2, 5)] * 3 + [(1, 5)]),
    ((5, 7, 6), 18, [(1, 3), (1, 3), (1, 1)] * 5),
    ((2, 3, 4), 1, [(1, 1)] * 6),
    ((3, 5, 2), 6, [(1, 3), (1, 2)] * 3),
]


@pytest.mark.parametrize("grid,block_cells,expected", BLOCK_CASES)
def test_block_edges_bitwise_equal_to_oracle(monkeypatch, grid, block_cells, expected):
    dims = make_grid(*grid)
    fields = fill_fields(dims, GeneratorSpec.random(17))
    coeffs = random_coeffs(dims.nz)
    shapes = _block_shapes(monkeypatch, block_cells)
    ref = run_reference(fields, coeffs)
    assert shapes == expected
    oracle = naive_sources(fields, coeffs)
    for x, y in ((ref.su, oracle.su), (ref.sv, oracle.sv), (ref.sw, oracle.sw)):
        assert x.data.tobytes() == y.data.tobytes()


@pytest.mark.parametrize("block_cells,expected", [(3 * 64, [(3, 8)] * 2 + [(2, 8)]),
                                                  (3 * 8, [(1, 3), (1, 3), (1, 2)] * 8)])
def test_block_edges_reproduce_goldens(monkeypatch, block_cells, expected):
    dims = make_grid(8, 8, 8)
    fields = fill_fields(dims, GeneratorSpec.random(42))
    shapes = _block_shapes(monkeypatch, block_cells)
    src = run_reference(fields, default_coefficients(dims.nz))
    assert shapes == expected
    for name, f in (("su", src.su), ("sv", src.sv), ("sw", src.sw)):
        assert checksum(f) == GOLDENS["sources"][name]


def test_reference_schedule_blocks_each_slab(monkeypatch):
    # nx = 10 over 3 engines gives slabs of 4, 3, 3 columns; 2-plane blocks
    # leave a ragged last block in two of them
    dims = make_grid(10, 4, 5)
    fields = fill_fields(dims, GeneratorSpec.random(23))
    coeffs = random_coeffs(dims.nz)
    shapes = _block_shapes(monkeypatch, 2 * 4 * 5)
    ref = run_reference(fields, coeffs)
    shapes.clear()
    out, tc, _ = run_schedule(fields, coeffs, ScheduleSpec("reference", engines=3))
    assert sorted(shapes) == sorted([(2, 4)] * 4 + [(1, 4)] * 2)
    assert compare_outputs(ref, out).bitwise_equal
    assert tc.external_reads == dims.nx * dims.ny * (54 * (dims.nz - 2) + 45)
    assert tc.external_writes == 3 * dims.nx * dims.ny * (dims.nz - 1)


@pytest.mark.parametrize("grid", [(128, 128, 64), (192, 96, 80),
                                  (16, 1100, 64)])  # one X plane exceeds a block
def test_reference_extra_memory_within_one_field(grid):
    dims = make_grid(*grid)
    fields = fill_fields(dims, GeneratorSpec.random(3))
    coeffs = default_coefficients(dims.nz)
    field_bytes = dims.padded_len * 8
    tracemalloc.start()
    try:
        out = run_reference(fields, coeffs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.su.data.shape == dims.padded_shape
    assert peak - 3 * field_bytes <= field_bytes


# Values where a reordered or fused evaluation would show: non-finite values,
# signed zeros, subnormals and the largest finite value.
SPECIAL = (np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310, 1.7976931348623157e308)


@st.composite
def replay_cases(draw):
    nz = draw(st.sampled_from((2, 3, 8)))
    lead = draw(st.sampled_from(((), (1,), (3, 5))))
    values = st.floats(width=64) | st.sampled_from(SPECIAL)
    roles = {role: draw(hnp.arrays(np.float64, (*lead, nz), elements=values))
             for role in COMPUTE_ROLES}
    finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from((-0.0, 5e-324))
    coeffs = AdvectionCoefficients(draw(finite), draw(finite),
                                   draw(hnp.arrays(np.float64, nz, elements=finite)),
                                   draw(hnp.arrays(np.float64, nz, elements=finite)))
    return coeffs, roles


def _same_bits(got, want):
    """Bitwise equal, except that a NaN matches any NaN.

    When both operands of one operation are NaN, which one numpy returns
    depends on the inner loop it picks: (-nan) + (+nan) gives -nan into a
    fresh one-element array and +nan in place. So the sign and payload of
    a NaN result are no property of the formulas.
    """
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    nan = np.isnan(want)
    return (np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64)))


@settings(max_examples=60, deadline=None)
@given(replay_cases())
def test_replay_bitwise_equals_formulas(case):
    """compute_block's recorded tapes equal the formulas called on the same operands."""
    coeffs, roles = case
    nz = roles[("u", 0, 0)].shape[-1]
    t = nz - 1
    sentinel = -1.25e-300
    out = tuple(np.full(roles[("u", 0, 0)].shape, sentinel) for _ in range(3))
    with np.errstate(all="ignore"):
        compute_block(coeffs, roles, out, {})
        for (formula, spec), got in zip(kernel._FORMULAS, out):
            if nz > 2:
                ops = [roles[(f, dx, dy)][..., 1 + dk : t + dk] for f, dx, dy, dk in spec]
                want = formula(coeffs.tcx, coeffs.tcy, coeffs.tzc1[1:t], coeffs.tzc2[1:t], *ops)
                assert _same_bits(got[..., 1:t], want)
            ops = [roles[(f, dx, dy)][..., t - 1 if dk == -1 else t] for f, dx, dy, dk in spec]
            want = formula(coeffs.tcx, coeffs.tcy, float(coeffs.tzc1[t]),
                           float(coeffs.tzc2[t]), *ops, top=True)
            assert _same_bits(got[..., t], want)
            assert np.all(got[..., 0].view(np.int64) == np.float64(sentinel).view(np.int64))


def _count_scratch(monkeypatch):
    """Record the role shape of every new_scratch call."""
    shapes = []
    real = kernel.new_scratch

    def counting(shape):
        shapes.append(shape)
        return real(shape)

    monkeypatch.setattr(kernel, "new_scratch", counting)
    return shapes


@pytest.mark.parametrize("grid,expected", [
    ((128, 128, 64), [(8, 128, 64)]),
    ((130, 128, 64), [(8, 128, 64), (2, 128, 64)]),  # ragged last block
])
def test_reference_reuses_scratch(monkeypatch, grid, expected):
    dims = make_grid(*grid)
    fields = fill_fields(dims, GeneratorSpec.uniform(1.0, 2.0, 3.0))
    shapes = _count_scratch(monkeypatch)
    run_reference(fields, default_coefficients(dims.nz))
    assert shapes == expected
