from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pwadvect import kernel, schedules
from pwadvect.grid import GeneratorSpec, GridDims, fill_fields, wrap_halos
from pwadvect.kernel import AdvectionCoefficients, default_coefficients, run_reference
from pwadvect.refdata import OPTIMISATION_LADDER
from pwadvect.schedules import (
    VARIANTS,
    OutputComparison,
    ScheduleSpec,
    Slab,
    compare_outputs,
    partition_domain,
    run_schedule,
)


def case(nx=6, ny=5, nz=7, seed=42):
    dims = GridDims(nx, ny, nz)
    fields = fill_fields(dims, GeneratorSpec.random(seed))
    rng = np.random.default_rng(seed + 1)
    coeffs = AdvectionCoefficients(0.25, 0.3, rng.random(nz), rng.random(nz))
    return dims, fields, coeffs


def test_partition_examples():
    assert partition_domain(GridDims(512, 4, 2), 1) == [Slab(1, 513)]
    slabs = partition_domain(GridDims(512, 4, 2), 4)
    assert [s.width for s in slabs] == [128, 128, 128, 128]
    assert sorted(s.width for s in partition_domain(GridDims(10, 4, 2), 3)) == [3, 3, 4]


def test_partition_covers_disjointly():
    for nx in (1, 2, 7, 13):
        dims = GridDims(nx, 2, 2)
        for engines in range(1, nx + 1):
            slabs = partition_domain(dims, engines)
            cells = [i for s in slabs for i in range(s.x_begin, s.x_end)]
            assert cells == list(range(1, nx + 1))
            assert max(s.width for s in slabs) - min(s.width for s in slabs) <= 1


def test_partition_rejects_bad_engine_counts():
    dims = GridDims(4, 4, 4)
    for engines in (0, 5, -1):
        with pytest.raises(ValueError):
            partition_domain(dims, engines)


def test_spec_validation():
    with pytest.raises(ValueError):
        ScheduleSpec("nonsense")
    dims = GridDims(4, 4, 4)
    with pytest.raises(ValueError):
        ScheduleSpec("reference", y_batch=0).validate(dims)
    with pytest.raises(ValueError):
        ScheduleSpec("y_batched", y_batch=5).validate(dims)
    with pytest.raises(ValueError):
        ScheduleSpec("reference", engines=5).validate(dims)
    ScheduleSpec("x_reordered", y_batch=4, engines=4).validate(dims)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("engines", [1, 2, 4])
def test_bitwise_equivalence_to_reference(variant, engines):
    dims, fields, coeffs = case()
    ref = run_reference(fields, coeffs)
    out, _, _ = run_schedule(fields, coeffs, ScheduleSpec(variant, y_batch=3, engines=engines))
    assert compare_outputs(ref, out) == OutputComparison(True, 0.0, 0)


def test_engine_count_independence():
    dims, fields, coeffs = case(nx=12)
    outputs = [run_schedule(fields, coeffs, ScheduleSpec("x_reordered", 2, engines=e))[0]
               for e in (1, 2, 4, 8, 12)]
    for other in outputs[1:]:
        assert compare_outputs(outputs[0], other).bitwise_equal


@pytest.mark.parametrize("variant,widths", [("column_buffered", {1}),
                                            ("y_batched", {4, 3}),
                                            ("x_reordered", {4, 3})])
def test_slab_engines_reuse_scratch(monkeypatch, numpy_replay, variant, widths):
    # only the numpy replay evaluates into scratch slots
    # ny = 11, y_batch = 4: Y batches of 4, 4 and 3 rows in every slab, so
    # one scratch per batch width and slab; every call evaluates one X row
    dims, fields, coeffs = case(nx=6, ny=11, nz=5)
    real = kernel.new_scratch
    calls = []

    def counting(shape):
        calls.append(shape)
        return real(shape)

    monkeypatch.setattr(kernel, "new_scratch", counting)
    out, _, _ = run_schedule(fields, coeffs, ScheduleSpec(variant, 4, engines=3))
    assert sorted(calls) == sorted([(1, w, dims.nz) for w in widths] * 3)
    assert compare_outputs(out, run_reference(fields, coeffs)).bitwise_equal


@pytest.mark.parametrize("evaluator", ["compiled", "numpy"])
@pytest.mark.parametrize("variant,batch,phases", [("column_buffered", 1, 1),
                                                  ("y_batched", 4, 1),
                                                  ("x_reordered", 4, 3)],
                         ids=["column_buffered", "y_batched", "x_reordered"])
def test_staged_schedules_bind_each_phase_once(monkeypatch, variant, batch, phases, evaluator):
    # 6 x 11 over 3 engines: slabs of 2 columns; Y batches of 4, 4 and 3
    # rows, or 11 batches of one row for column_buffered
    if evaluator == "numpy":
        monkeypatch.setattr(kernel, "_lib", None)
    dims, fields, coeffs = case(nx=6, ny=11, nz=5)
    ref = run_reference(fields, coeffs)
    binds, runs, checks = [], [], []
    bind, run, check = schedules.BoundBlock, schedules.compute_block, kernel._checked_arrays

    def binding(*args):
        block = bind(*args)
        binds.append(block)
        return block

    def running(block, a0, a1):
        runs.append((block, a0, a1))
        return run(block, a0, a1)

    def checking(*args):
        checks.append(args)
        return check(*args)

    monkeypatch.setattr(schedules, "BoundBlock", binding)
    monkeypatch.setattr(schedules, "compute_block", running)
    monkeypatch.setattr(kernel, "_checked_arrays", checking)
    out, _, _ = run_schedule(fields, coeffs, ScheduleSpec(variant, batch, engines=3))
    assert compare_outputs(out, ref) == OutputComparison(True, 0.0, 0)
    # per (engine, Y batch), keyed by the su rows it writes: one block per
    # staging phase, checked only at bind, and one single-row run per X
    # column of the slab
    batches = {}
    for block in binds:
        batches.setdefault(block.arrays[-3].ctypes.data, []).append(block)
    n_batches = 3 * -(-dims.ny // batch)
    assert len(batches) == n_batches and len(checks) == len(binds) == n_batches * phases
    assert all(a1 - a0 == 1 for _, a0, a1 in runs)
    for blocks in batches.values():
        rows = sorted((a0, a1) for block, a0, a1 in runs if any(block is b for b in blocks))
        assert rows == [(0, 1), (1, 2)]


def test_engine_threads_capped_by_cores(monkeypatch):
    dims, fields, coeffs = case(nx=16, ny=5, nz=6)
    sizes = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(schedules.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(schedules, "ThreadPoolExecutor", RecordingPool)
    out, _, _ = run_schedule(fields, coeffs, ScheduleSpec("x_reordered", 2, engines=16))
    assert sizes == [2]
    assert compare_outputs(out, run_reference(fields, coeffs)).bitwise_equal


def test_traffic_closed_forms_single_engine():
    # the second grid is the x_reordered/y_batched crossover nx = 2, b = 1
    for nx, ny, nz, b in ((7, 5, 6, 5), (2, 5, 6, 1)):
        dims, fields, coeffs = case(nx=nx, ny=ny, nz=nz)
        col_reads = 54 * (nz - 2) + 45
        writes = 3 * nx * ny * (nz - 1)

        _, ref, _ = run_schedule(fields, coeffs, ScheduleSpec("reference"))
        assert ref.external_reads == nx * ny * col_reads
        assert ref.external_writes == writes
        assert ref.local_reads == ref.local_writes == ref.scratch_bytes_peak == 0

        _, cb, _ = run_schedule(fields, coeffs, ScheduleSpec("column_buffered"))
        assert cb.external_reads == 17 * nx * ny * nz
        assert cb.external_writes == writes
        assert cb.local_writes == cb.external_reads      # scratch fills
        assert cb.local_reads == nx * ny * col_reads     # compute operand touches
        assert cb.scratch_bytes_peak == 17 * nz * 8

        for y_batch in (1, 2, 5):
            _, yb, _ = run_schedule(fields, coeffs, ScheduleSpec("y_batched", y_batch))
            assert yb.external_reads == cb.external_reads  # batch-wise traversal, same total
            assert yb.scratch_bytes_peak == 17 * min(y_batch, ny) * nz * 8

        _, xr, _ = run_schedule(fields, coeffs, ScheduleSpec("x_reordered", b))
        # one 3-plane ring per field and batch: two halo planes, then one
        # plane per X step, each b'+2 rows of the batch's actual width b'
        rows = sum(min(b, ny + 1 - j0) + 2 for j0 in range(1, ny + 1, b))
        assert xr.external_reads == 3 * nz * (nx + 2) * rows
        assert xr.external_writes == writes
        assert xr.local_writes == xr.external_reads      # ring fills, no shifts
        assert xr.local_reads == nx * ny * col_reads     # compute operand touches
        assert xr.scratch_bytes_peak == 9 * (b + 2) * nz * 8
        # 36 against y_batched's 34 reads per Y row and level at the crossover
        assert (xr.external_reads < yb.external_reads) == (nx > 2 or b > 1)


def test_ladder_traffic_ordering():
    for nx in (2, 3, 8, 16):
        dims, fields, coeffs = case(nx=nx, ny=4, nz=4)
        _, yb, _ = run_schedule(fields, coeffs, ScheduleSpec("y_batched", 2))
        _, xr, _ = run_schedule(fields, coeffs, ScheduleSpec("x_reordered", 2))
        assert xr.external_reads < yb.external_reads


def test_scratch_bound_per_variant():
    dims, fields, coeffs = case(nx=4, ny=6, nz=5)
    b = 3
    for variant, bound in (("column_buffered", 17 * dims.nz * 8),
                           ("y_batched", 17 * b * dims.nz * 8),
                           ("x_reordered", 9 * (b + 2) * dims.nz * 8)):
        _, tc, _ = run_schedule(fields, coeffs, ScheduleSpec(variant, b))
        assert tc.scratch_bytes_peak <= bound


def test_traffic_depends_only_on_dims_and_spec():
    dims, fields, coeffs = case(seed=1)
    _, other_fields, _ = case(seed=99)
    for variant in VARIANTS:
        spec = ScheduleSpec(variant, y_batch=2, engines=2)
        _, a, _ = run_schedule(fields, coeffs, spec)
        _, b, _ = run_schedule(fields, coeffs, spec)
        _, c, _ = run_schedule(other_fields, coeffs, spec)
        assert a == b == c


def test_multi_engine_traffic_totals():
    # reference/buffered totals are engine-independent; x_reordered fetches
    # two halo planes per slab
    dims, fields, coeffs = case(nx=8, ny=4, nz=5)
    for variant in ("reference", "column_buffered", "y_batched"):
        reads = {e: run_schedule(fields, coeffs, ScheduleSpec(variant, 2, e))[1].external_reads
                 for e in (1, 2, 4)}
        assert reads[1] == reads[2] == reads[4]
    for engines in (1, 2, 4):
        _, tc, _ = run_schedule(fields, coeffs, ScheduleSpec("x_reordered", 2, engines))
        # sum(b'+2) over the batches is (2+2) + (2+2)
        assert tc.external_reads == 3 * dims.nz * (dims.nx + 2 * engines) * 8
        assert tc.local_writes == tc.external_reads


def test_x_reordered_plane_moves_match_reorder_row():
    # the model's reorder rows move `planes` field and source planes per
    # cell; the ring schedule's fetches plus stores come within 3 % of it
    row = next(r for r in OPTIMISATION_LADDER if r.label == "Re-order X and Y loops")
    dims, fields, coeffs = case(nx=64, ny=128, nz=64)
    _, tc, _ = run_schedule(fields, coeffs, ScheduleSpec("x_reordered", 64, 1))
    planes = (tc.external_reads + tc.external_writes) / dims.cells
    assert planes == pytest.approx(row.planes, rel=0.03)


def test_external_write_floor():
    dims, fields, coeffs = case(nx=3, ny=3, nz=4)
    for variant in VARIANTS:
        _, tc, _ = run_schedule(fields, coeffs, ScheduleSpec(variant, 2))
        assert tc.external_writes >= 3 * dims.nx * dims.ny * (dims.nz - 1)


def test_compare_outputs_identical_and_perturbed():
    dims, fields, coeffs = case()
    a = run_reference(fields, coeffs)
    b = run_reference(fields, coeffs)
    assert compare_outputs(a, b) == OutputComparison(True, 0.0, 0)
    b.sv.data[2, 2, 3] = np.nextafter(b.sv.data[2, 2, 3], np.inf)
    cmp = compare_outputs(a, b)
    assert not cmp.bitwise_equal
    assert cmp.max_ulp_diff == 1
    assert cmp.max_abs_diff == abs(a.sv.data[2, 2, 3] - b.sv.data[2, 2, 3])


def test_compare_outputs_signed_zero_and_dims_mismatch():
    dims, fields, coeffs = case(nx=2, ny=2, nz=3)
    a = run_reference(fields, coeffs)
    b = run_reference(fields, coeffs)
    b.su.data[1, 1, 1] = -0.0 if b.su.data[1, 1, 1] == 0.0 else b.su.data[1, 1, 1]
    a.su.data[1, 1, 1] = 0.0
    b.su.data[1, 1, 1] = -0.0
    cmp = compare_outputs(a, b)
    assert not cmp.bitwise_equal and cmp.max_ulp_diff == 1
    _, other, _ = case(nx=3, ny=2, nz=3)
    c = run_reference(other, default_coefficients(3))
    with pytest.raises(ValueError):
        compare_outputs(a, c)


def test_compare_outputs_nan_matches_any_nan():
    dims, fields, coeffs = case(nx=3, ny=2, nz=4)
    a = run_reference(fields, coeffs)
    b = run_reference(fields, coeffs)
    nan = np.float64(np.nan)
    a.sw.data[2, 1, 3] = nan
    b.sw.data[2, 1, 3] = -nan  # opposite sign, same position
    assert np.signbit(a.sw.data[2, 1, 3]) != np.signbit(b.sw.data[2, 1, 3])
    assert compare_outputs(a, b) == OutputComparison(True, 0.0, 0)
    b.su.data[1, 2, 2] = np.nextafter(b.su.data[1, 2, 2], np.inf)
    cmp = compare_outputs(a, b)
    assert not cmp.bitwise_equal and cmp.max_ulp_diff == 1
    # a NaN against a number is a difference
    c = run_reference(fields, coeffs)
    c.sv.data[1, 1, 1] = nan
    assert not compare_outputs(a, c).bitwise_equal


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_schedules_equal_reference_on_nonfinite_inputs(numpy_replay):
    # numpy's 1-column blocks pass on another NaN than the reference's
    # blocks do; the positions agree, so the comparison must call them equal
    dims, fields, coeffs = case(nx=6, ny=70, nz=8, seed=3)
    rng = np.random.default_rng(0)
    for f in (fields.u, fields.v, fields.w):
        for value in (np.nan, -np.nan, np.inf, -np.inf):
            f.interior[tuple(rng.integers(0, n, 40) for n in f.interior.shape)] = value
        wrap_halos(f.data)
    ref = run_reference(fields, coeffs)
    for variant in VARIANTS:
        for engines in (1, 3):
            out, _, _ = run_schedule(fields, coeffs, ScheduleSpec(variant, 8, engines))
            assert compare_outputs(ref, out).bitwise_equal, (variant, engines)


def test_wall_time_reported():
    dims, fields, coeffs = case(nx=2, ny=2, nz=2)
    _, _, wall = run_schedule(fields, coeffs, ScheduleSpec("reference"))
    assert wall > 0.0
