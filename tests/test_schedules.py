import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwadvect import grid, kernel, schedules
from pwadvect.grid import GeneratorSpec, GridDims, fill_fields, wrap_halos
from pwadvect.kernel import AdvectionCoefficients, default_coefficients, run_reference
from pwadvect.refdata import OPTIMISATION_LADDER
from pwadvect.schedules import (
    VARIANTS,
    OutputComparison,
    ScheduleSpec,
    TrafficReport,
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
    assert partition_domain(GridDims(512, 4, 2), 1) == [range(1, 513)]
    slabs = partition_domain(GridDims(512, 4, 2), 4)
    assert [len(s) for s in slabs] == [128, 128, 128, 128]
    assert [len(s) for s in partition_domain(GridDims(10, 4, 2), 3)] == [4, 3, 3]


def test_partition_covers_disjointly():
    for nx in (1, 2, 7, 13):
        dims = GridDims(nx, 2, 2)
        for engines in range(1, nx + 1):
            slabs = partition_domain(dims, engines)
            cells = [i for s in slabs for i in s]
            assert cells == list(range(1, nx + 1))
            assert max(map(len, slabs)) - min(map(len, slabs)) <= 1


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
    # ny = 11, y_batch = 4: Y batches of 4, 4 and 3 rows in every slab, all
    # run by the slab's one call; a call makes one scratch per shape it
    # replays, shared by its staging phases and batches, and every X step
    # evaluates one row of its batch, so each call makes one per batch width
    dims, fields, coeffs = case(nx=6, ny=11, nz=5)
    ref = run_reference(fields, coeffs)
    real_scratch, real_run = kernel.new_scratch, kernel.compute_block
    made, runs = threading.local(), []

    def counting(shape):
        made.shapes.append(shape)
        return real_scratch(shape)

    def running(coeffs, phases, out, *staging):
        made.shapes = []
        moved = real_run(coeffs, phases, out, *staging)
        runs.append((len(phases), out[0].shape[1], made.shapes))
        return moved  # the elements the slab staged

    monkeypatch.setattr(kernel, "new_scratch", counting)
    monkeypatch.setattr(schedules, "compute_block", running)
    out, _, _ = run_schedule(fields, coeffs, ScheduleSpec(variant, 4, engines=3))
    assert len(runs) == 3
    assert {phases for phases, _, _ in runs} == {3 if variant == "x_reordered" else 1}
    assert all(rows == dims.ny for _, rows, _ in runs)
    assert all(shapes == [(1, w, dims.nz) for w in sorted(widths, reverse=True)]
               for _, _, shapes in runs)
    assert compare_outputs(out, ref).bitwise_equal


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("engines", [1, 3])
def test_run_schedule_rejects_mismatched_coefficients(variant, engines):
    dims, fields, _ = case()
    for nz in (dims.nz - 1, dims.nz + 1):
        with pytest.raises(ValueError):
            run_schedule(fields, default_coefficients(nz), ScheduleSpec(variant, 5, engines))


@pytest.mark.parametrize("evaluator", ["compiled", "numpy"])
@pytest.mark.parametrize("variant,batch,phases,lag", [("column_buffered", 1, 1, 0),
                                                      ("y_batched", 4, 1, 0),
                                                      ("x_reordered", 4, 3, 2)],
                         ids=["column_buffered", "y_batched", "x_reordered"])
def test_staged_schedules_bind_each_phase_once(monkeypatch, variant, batch, phases, lag,
                                               evaluator):
    # 6 x 11 over 3 engines: slabs of 2 columns; Y batches of 4, 4 and 3
    # rows, or 11 batches of one row for column_buffered, all in one call
    if evaluator == "numpy":
        monkeypatch.setattr(kernel, "_lib", None)
    dims, fields, coeffs = case(nx=6, ny=11, nz=5)
    ref = run_reference(fields, coeffs)
    runs, checks = [], []
    run, check = schedules.compute_block, kernel._checked_arrays

    def running(*args):
        runs.append(args)
        return run(*args)

    def checking(*args):
        checks.append(args)
        return check(*args)

    monkeypatch.setattr(schedules, "compute_block", running)
    monkeypatch.setattr(kernel, "_checked_arrays", checking)
    out, _, _ = run_schedule(fields, coeffs, ScheduleSpec(variant, batch, engines=3))
    assert compare_outputs(out, ref) == OutputComparison(True, 0.0, 0)
    # per engine, keyed by the su rows it writes: one call over every
    # staging phase, each phase checked once, running all its Y batches
    # and in each all its X steps, the slab's 2 columns plus the lag; its
    # roles hold one batch and its outputs all ny rows
    assert len({outs[0].ctypes.data for _, _, outs, _, _ in runs}) == 3
    assert len(runs) == 3 and len(checks) == 3 * phases
    assert all(len(roles) == len(copies) == phases and got == lag
               and outs[0].shape == (2, dims.ny, dims.nz)
               and all(r[("u", 0, 0)].shape == (2, batch, dims.nz) for r in roles)
               for _, roles, outs, copies, got in runs)


# y_batched and column_buffered copies whose source at step i + 1 the copy
# of the same field at (dx + 1, same dy) read at step i
PREFETCH_SKIPPED = {("u", 0, 0), ("u", -1, 0), ("u", -1, 1), ("v", 0, 0), ("v", 0, -1),
                    ("v", -1, 0), ("w", 0, 0), ("w", -1, 0)}


@pytest.mark.parametrize("variant", VARIANTS)
def test_prefetch_skips_sources_the_step_before_read(monkeypatch, variant):
    # 6 x 11 over 3 engines, Y batches of 4, 4 and 3 rows: the prefetch field
    # of the copy table that compute_block builds from each slab's copies
    dims, fields, coeffs = case(nx=6, ny=11, nz=5)
    tables, run = [], schedules.compute_block

    def running(coeffs, phases, out, copies=(), lag=0):
        tables.append(kernel._copy_table(copies) if copies else None)
        return run(coeffs, phases, out, copies, lag)

    monkeypatch.setattr(schedules, "compute_block", running)
    run_schedule(fields, coeffs, ScheduleSpec(variant, 4, engines=3))
    if variant == "reference":  # no copies, so nothing to prefetch
        assert tables and all(table is None for table in tables)
        return
    assert len(tables) == 3
    for table in tables:
        if variant == "x_reordered":  # each step fetches a new plane per field
            assert table.shape == (3, 3, 6) and (table[..., 5] == 1).all()
        else:  # one phase, the 17 role copies in COMPUTE_ROLES order
            assert table.shape == (1, 17, 6)
            assert {role for role, flag in zip(kernel.COMPUTE_ROLES, table[0, :, 5])
                    if not flag} == PREFETCH_SKIPPED


def test_no_copies_prefetch_nothing():
    for phases in (1, 3):
        table = kernel._copy_table(((),) * phases)
        assert table.shape == (phases, 0, 6) and not table[..., 5].any()


def test_engine_threads_capped_by_cores(monkeypatch):
    dims, fields, coeffs = case(nx=16, ny=5, nz=6)
    sizes = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(grid.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(grid, "ThreadPoolExecutor", RecordingPool)
    out, _, _ = run_schedule(fields, coeffs, ScheduleSpec("x_reordered", 2, engines=16))
    assert sizes == [2]
    assert compare_outputs(out, run_reference(fields, coeffs)).bitwise_equal


def _record_pieces(monkeypatch, cores):
    """Patch the core count to `cores`; record the reference run's pools and
    kernel calls, as (phases, copies, lag, out, thread)."""
    pools, runs = [], []
    run = schedules.compute_block

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    def running(coeffs, phases, out, copies=(), lag=0):
        runs.append((len(phases), copies, lag, out, threading.get_ident()))
        return run(coeffs, phases, out, copies, lag)

    monkeypatch.setattr(grid.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(grid, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(schedules, "compute_block", running)
    return pools, runs


def _piece_widths(out, runs):
    """The X widths of the pieces the calls write, in X order; they must tile 1..nx."""
    su, stride = out.su.data, out.su.data.strides[0]
    pieces = sorted((outs[0].ctypes.data, len(outs[0])) for _, _, _, outs, _ in runs)
    starts = [(ptr - su.ctypes.data) // stride for ptr, _ in pieces]
    widths = [n for _, n in pieces]
    assert starts == [1 + sum(widths[:p]) for p in range(len(widths))]
    assert sum(widths) == out.dims.nx
    return widths


# nx = 25 columns of ny x 256 cells: a slab is cut into ceil(cores / engines)
# pieces, at most one per grid._THREAD_MIN cells. With ny = 128 (3.125 of them)
# the cap cuts 2-engine slabs into one piece; with ny = 256 (6.25) it does not.
PIECES = {
    128: {(1, 1): [25], (1, 2): [13, 12], (1, 3): [9, 8, 8],
          (2, 1): [13, 12], (2, 2): [13, 12], (2, 3): [9, 8, 8],
          (3, 1): [9, 8, 8], (3, 2): [13, 12], (3, 3): [9, 8, 8]},
    256: {(1, 1): [25], (1, 2): [13, 12], (1, 3): [9, 8, 8],
          (2, 1): [13, 12], (2, 2): [13, 12], (2, 3): [9, 8, 8],
          (3, 1): [9, 8, 8], (3, 2): [7, 6, 6, 6], (3, 3): [9, 8, 8]},
}


@pytest.mark.parametrize("ny", sorted(PIECES))
def test_reference_pieces_use_every_core(monkeypatch, ny):
    dims, fields, coeffs = case(nx=25, ny=ny, nz=256)
    assert grid._THREAD_MIN == 1 << 18  # the cell cap PIECES is worked out for
    ref = run_reference(fields, coeffs)
    one_core = {}
    for (cores, engines), widths in PIECES[ny].items():
        with monkeypatch.context() as m:
            pools, runs = _record_pieces(m, cores)
            out, tc, _ = run_schedule(fields, coeffs, ScheduleSpec("reference", engines=engines))
        assert compare_outputs(ref, out) == OutputComparison(True, 0.0, 0), (cores, engines)
        assert tc == one_core.setdefault(engines, tc)
        # each piece is run by one compute_block call: one phase, no copies, lag 0
        assert _piece_widths(out, runs) == widths
        assert all(r[:3] == (1, (), 0) for r in runs)
        workers = min(len(widths), cores)
        assert pools == ([workers] if workers > 1 else [])
        assert len({r[-1] for r in runs}) <= cores


def test_reference_below_piece_cells_is_not_cut(monkeypatch):
    # the golden grid and a 200-cell grid run as one block per slab on 3 cores
    for nx, ny, nz in ((8, 8, 8), (10, 4, 5)):
        dims, fields, coeffs = case(nx=nx, ny=ny, nz=nz)
        with monkeypatch.context() as m:
            pools, runs = _record_pieces(m, 3)
            out, _, _ = run_schedule(fields, coeffs, ScheduleSpec("reference"))
        assert pools == [] and len(runs) == 1
        assert _piece_widths(out, runs) == [nx]
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
            assert yb.local_writes == yb.external_reads
            assert yb.scratch_bytes_peak == 17 * min(y_batch, ny) * nz * 8

        # b = 2 leaves a ragged last batch: its rings fill 1 + 2 rows
        for b in (b, 2):
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


def test_reference_plane_moves_match_pipeline_row():
    # the unbuffered row moves 54 operand reads and 3 writes per mid-level
    # cell; the reference's external moves per cell, 3582 / 64 = 55.97 at
    # nz = 64, come within 3 % of it
    rows = {r.label: r for r in OPTIMISATION_LADDER}
    dims, fields, coeffs = case(nx=4, ny=3, nz=64)

    def planes(variant):
        _, tc, _ = run_schedule(fields, coeffs, ScheduleSpec(variant, 1))
        return (tc.external_reads + tc.external_writes) / dims.cells

    assert planes("reference") == pytest.approx(
        rows["Pipeline directive on inner loop"].planes, rel=0.03)
    # a known residual: column_buffered stages 17 role columns and stores 3
    # outputs above level 1, 17 + 3 * 63 / 64 = 19.95 planes, against the
    # column BRAM row's 12
    assert planes("column_buffered") == 17 + 3 * 63 / 64
    assert rows["Local BRAM for column data"].planes == 12


@st.composite
def schedule_cases(draw):
    """A small grid (ragged ny, nz down to 2), any schedule on it, a seed and 1-3 cores."""
    dims = GridDims(draw(st.integers(1, 8)), draw(st.integers(1, 9)), draw(st.integers(2, 6)))
    spec = ScheduleSpec(draw(st.sampled_from(VARIANTS)), y_batch=draw(st.integers(1, dims.ny)),
                        engines=draw(st.integers(1, dims.nx)))
    return dims, spec, draw(st.integers(0, 2**31)), draw(st.integers(1, 3))


def closed_form_traffic(dims: GridDims, spec: ScheduleSpec) -> TrafficReport:
    """The five counters of docs/model-notes.md section 3, for the whole run."""
    nx, ny, nz, b = dims.nx, dims.ny, dims.nz, spec.y_batch
    touches = nx * ny * (54 * (nz - 2) + 45)
    writes = 3 * nx * ny * (nz - 1)
    if spec.variant == "reference":
        return TrafficReport(touches, writes, 0, 0, 0)
    if spec.variant == "x_reordered":
        staged = 3 * nz * (nx + 2 * spec.engines) * (ny + 2 * -(-ny // b))
        return TrafficReport(staged, writes, touches, staged, 9 * (b + 2) * nz * 8)
    b = 1 if spec.variant == "column_buffered" else b
    staged = 17 * nx * ny * nz
    return TrafficReport(staged, writes, touches, staged, 17 * min(b, ny) * nz * 8)


@pytest.mark.parametrize("evaluator", ["compiled", "numpy"])
@settings(max_examples=150, deadline=None)
@given(schedule_cases())
def test_every_schedule_equals_reference_and_closed_forms(evaluator, drawn):
    dims, spec, seed, cores = drawn
    _, fields, coeffs = case(dims.nx, dims.ny, dims.nz, seed)
    with pytest.MonkeyPatch.context() as m:
        if evaluator == "numpy":
            m.setattr(kernel, "_lib", None)
        m.setattr(grid.os, "cpu_count", lambda: cores)
        m.setattr(grid, "_THREAD_MIN", 1)  # so that these small grids are cut into pieces
        ref = run_reference(fields, coeffs)
        out, traffic, _ = run_schedule(fields, coeffs, spec)
    assert compare_outputs(ref, out) == OutputComparison(True, 0.0, 0)
    assert traffic == closed_form_traffic(dims, spec)


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


# values of opposite sign: their ULP distance passes through both zeros,
# which the ordered image counts as one point
OPPOSITE_SIGNS = [(5e-324, -5e-324, 2),
                  (np.inf, -np.inf, 2 * 0x7FF0000000000000),
                  (1.0, -1.0, 2 * 0x3FF0000000000000)]


@pytest.mark.parametrize("x, y, ulps", OPPOSITE_SIGNS)
def test_compare_outputs_counts_ulps_across_zero(x, y, ulps):
    dims, fields, coeffs = case(nx=2, ny=2, nz=3)
    a = run_reference(fields, coeffs)
    b = run_reference(fields, coeffs)
    a.sw.data[2, 1, 2], b.sw.data[2, 1, 2] = x, y
    assert compare_outputs(a, b).max_ulp_diff == ulps
    assert compare_outputs(b, a).max_ulp_diff == ulps


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


@pytest.mark.usefixtures("numpy_replay")
class TestNumpyReplay:
    """The reference's pieces on the numpy replay, which makes scratch per
    call, and the traffic counters, which both evaluators count as they copy."""

    test_reference_pieces_use_every_core = staticmethod(test_reference_pieces_use_every_core)
    test_reference_below_piece_cells_is_not_cut = staticmethod(
        test_reference_below_piece_cells_is_not_cut)
    test_traffic_closed_forms_single_engine = staticmethod(
        test_traffic_closed_forms_single_engine)
    test_multi_engine_traffic_totals = staticmethod(test_multi_engine_traffic_totals)
