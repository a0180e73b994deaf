import ctypes
import gc
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pwadvect import kernel
from pwadvect.grid import GeneratorSpec, GridDims, checksum, fill_fields, wrap_halos, zeros_sources
from pwadvect.kernel import (
    COMPUTE_ROLES,
    AdvectionCoefficients,
    BoundBlock,
    FlopProfile,
    advect_point_u,
    advect_point_v,
    advect_point_w,
    compute_block,
    default_coefficients,
    grid_roles,
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


def evaluate(coeffs, roles, out):
    """Bind a block and run all of it, as the reference run does."""
    block = BoundBlock(coeffs, roles, out, {})
    compute_block(block, 0, block.arrays[0].shape[0])


def test_zero_fields_zero_everywhere():
    dims = GridDims(4, 3, 5)
    fields = fill_fields(dims, GeneratorSpec.uniform(0, 0, 0))
    coeffs = random_coeffs(dims.nz)
    for op in POINT_OPS:
        assert op(fields, coeffs, 2, 2, 3) == 0.0
    src = run_reference(fields, coeffs)
    assert all(np.all(s.data == 0.0) for s in (src.su, src.sv, src.sw))


def test_uniform_symmetry_cancellation_below_top():
    # tzc1 == tzc2: every term is a difference of identical products
    dims = GridDims(5, 5, 6)
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
    dims = GridDims(3, 3, 4)
    fields = fill_fields(dims, GeneratorSpec.uniform(1, 1, 1))
    coeffs = default_coefficients(dims.nz, 0.25)
    assert advect_point_u(fields, coeffs, 1, 1, dims.nz) == 0.5
    assert advect_point_v(fields, coeffs, 2, 3, dims.nz) == 0.5
    assert advect_point_w(fields, coeffs, 3, 2, dims.nz) == 0.5


def test_top_of_column_closed_forms():
    a, b, c = 1.25, -0.75, 2.5
    dims = GridDims(4, 4, 5)
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
    dims = GridDims(6, 4, 5)
    fields = fill_fields(dims, GeneratorSpec.uniform(1.0, 2.0, 3.0))
    src = run_reference(fields, default_coefficients(dims.nz))
    for s in (src.su, src.sv, src.sw):
        assert np.all(s.data[1:-1, 1:-1, :-1] == 0.0)
        assert np.all(s.data[1:-1, 1:-1, -1] != 0.0)


def test_point_ops_match_run_reference_bitwise():
    dims = GridDims(5, 4, 6)
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
        dims = GridDims(int(rng.integers(1, 10)), int(rng.integers(1, 10)),
                         int(rng.integers(2, 10)))
        fields = fill_fields(dims, GeneratorSpec.random(int(rng.integers(0, 10_000))))
        coeffs = random_coeffs(dims.nz, seed=int(rng.integers(0, 10_000)))
        ref = run_reference(fields, coeffs)
        oracle = naive_sources(fields, coeffs)
        for x, y in ((ref.su, oracle.su), (ref.sv, oracle.sv), (ref.sw, oracle.sw)):
            assert x.data.tobytes() == y.data.tobytes()


def test_reference_golden_checksums():
    # golden digests were produced by the naive transcription (tests/goldens.json)
    dims = GridDims(8, 8, 8)
    fields = fill_fields(dims, GeneratorSpec.random(42))
    src = run_reference(fields, default_coefficients(dims.nz))
    assert checksum(src.su) == GOLDENS["sources"]["su"]
    assert checksum(src.sv) == GOLDENS["sources"]["sv"]
    assert checksum(src.sw) == GOLDENS["sources"]["sw"]


def test_bottom_level_zero():
    dims = GridDims(6, 6, 3)
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
    dims = GridDims(6, 5, 4)
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
    # 268.3M cells at 53 ops/cell is consistent with 14.36 GFLOP/s over 0.990 s
    total = GridDims(2047, 2048, 64).cells * 53
    assert total == pytest.approx(1.422e10, rel=1e-3)
    assert total / 14.36e9 == pytest.approx(0.990, rel=1e-3)


def test_run_reference_rejects_mismatched_coefficients():
    dims = GridDims(3, 3, 4)
    fields = fill_fields(dims, GeneratorSpec.uniform(1, 1, 1))
    with pytest.raises(ValueError):
        run_reference(fields, default_coefficients(dims.nz + 1))


def test_nz2_grid_only_top_branch():
    dims = GridDims(3, 3, 2)
    fields = fill_fields(dims, GeneratorSpec.random(3))
    coeffs = random_coeffs(dims.nz)
    ref = run_reference(fields, coeffs)
    oracle = naive_sources(fields, coeffs)
    assert ref.su.data.tobytes() == oracle.su.data.tobytes()
    assert np.all(ref.su.data[:, :, 0] == 0.0)


def _block_shapes(monkeypatch, block_cells):
    """Shrink the block constant; return the (planes, rows) of every
    compute_block call and of every block the numpy replay evaluates."""
    monkeypatch.setattr(kernel, "BLOCK_CELLS", block_cells)
    calls, blocks = [], []
    run, replay = kernel.compute_block, kernel._replay_block

    def running(block, a0, a1):
        calls.append((a1 - a0, block.arrays[0].shape[1]))
        return run(block, a0, a1)

    def replaying(coeffs, roles, out, scratch):
        blocks.append(roles[("u", 0, 0)].shape[:2])
        return replay(coeffs, roles, out, scratch)

    monkeypatch.setattr(kernel, "compute_block", running)
    monkeypatch.setattr(kernel, "_replay_block", replaying)
    return calls, blocks


def _replay_blocks(expected):
    # the compiled kernel takes every call whole and makes no blocks
    return expected if kernel.evaluator() == "numpy" else []


# (grid, block cells, replay block shapes): ragged X blocks of whole planes,
# ragged Y blocks of a plane larger than a block, single columns, nz = 2
BLOCK_CASES = [
    ((7, 5, 6), 60, [(2, 5)] * 3 + [(1, 5)]),
    ((5, 7, 6), 18, [(1, 3), (1, 3), (1, 1)] * 5),
    ((2, 3, 4), 1, [(1, 1)] * 6),
    ((3, 5, 2), 6, [(1, 3), (1, 2)] * 3),
]


@pytest.mark.parametrize("grid,block_cells,expected", BLOCK_CASES)
def test_block_edges_bitwise_equal_to_oracle(monkeypatch, grid, block_cells, expected):
    dims = GridDims(*grid)
    fields = fill_fields(dims, GeneratorSpec.random(17))
    coeffs = random_coeffs(dims.nz)
    calls, blocks = _block_shapes(monkeypatch, block_cells)
    ref = run_reference(fields, coeffs)
    assert calls == [grid[:2]]
    assert blocks == _replay_blocks(expected)
    oracle = naive_sources(fields, coeffs)
    for x, y in ((ref.su, oracle.su), (ref.sv, oracle.sv), (ref.sw, oracle.sw)):
        assert x.data.tobytes() == y.data.tobytes()


@pytest.mark.parametrize("block_cells,expected", [(3 * 64, [(3, 8)] * 2 + [(2, 8)]),
                                                  (3 * 8, [(1, 3), (1, 3), (1, 2)] * 8)])
def test_block_edges_reproduce_goldens(monkeypatch, block_cells, expected):
    dims = GridDims(8, 8, 8)
    fields = fill_fields(dims, GeneratorSpec.random(42))
    calls, blocks = _block_shapes(monkeypatch, block_cells)
    src = run_reference(fields, default_coefficients(dims.nz))
    assert calls == [(8, 8)]
    assert blocks == _replay_blocks(expected)
    for name, f in (("su", src.su), ("sv", src.sv), ("sw", src.sw)):
        assert checksum(f) == GOLDENS["sources"][name]


def test_reference_schedule_blocks_each_slab(monkeypatch):
    # nx = 10 over 3 engines gives slabs of 4, 3, 3 columns, one compute_block
    # call each; the replay's 2-plane blocks leave a ragged last block in two
    dims = GridDims(10, 4, 5)
    fields = fill_fields(dims, GeneratorSpec.random(23))
    coeffs = random_coeffs(dims.nz)
    calls, blocks = _block_shapes(monkeypatch, 2 * 4 * 5)
    ref = run_reference(fields, coeffs)
    calls.clear()
    blocks.clear()
    out, tc, _ = run_schedule(fields, coeffs, ScheduleSpec("reference", engines=3))
    assert sorted(calls) == [(3, 4), (3, 4), (4, 4)]
    assert sorted(blocks) == sorted(_replay_blocks([(2, 4)] * 4 + [(1, 4)] * 2))
    assert compare_outputs(ref, out).bitwise_equal
    assert tc.external_reads == dims.nx * dims.ny * (54 * (dims.nz - 2) + 45)
    assert tc.external_writes == 3 * dims.nx * dims.ny * (dims.nz - 1)


@pytest.mark.parametrize("grid", [(128, 128, 64), (192, 96, 80),
                                  (16, 1100, 64)])  # one X plane exceeds a block
def test_reference_extra_memory_within_one_field(grid):
    dims = GridDims(*grid)
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
    # 19 and 37: nz - 2 mid levels fill two or four 8-lane vectors and a remainder
    nz = draw(st.sampled_from((2, 3, 8, 19, 37)))
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
        evaluate(coeffs, roles, out)
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
def test_reference_reuses_scratch(monkeypatch, numpy_replay, grid, expected):
    # only the numpy replay evaluates into scratch slots
    dims = GridDims(*grid)
    fields = fill_fields(dims, GeneratorSpec.uniform(1.0, 2.0, 3.0))
    shapes = _count_scratch(monkeypatch)
    run_reference(fields, default_coefficients(dims.nz))
    assert shapes == expected


needs_gcc = pytest.mark.skipif(shutil.which("gcc") is None, reason="no gcc on PATH")


@needs_gcc
def test_first_use_compiles_once_with_exact_flags(monkeypatch, tmp_path):
    # a cold cache in tmp_path; four threads make the first call together
    monkeypatch.setattr(kernel, "_CACHE_DIR", tmp_path)
    monkeypatch.setattr(kernel, "_lib", kernel._UNBUILT)
    real_run, compiles = subprocess.run, []

    def recording(cmd, **kwargs):
        if "-shared" in cmd:
            compiles.append(cmd)
        return real_run(cmd, **kwargs)

    monkeypatch.setattr(kernel.subprocess, "run", recording)
    threads = [threading.Thread(target=kernel._compiled) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert kernel.evaluator() == "compiled"
    assert len(compiles) == 1
    flags = compiles[0][1:]
    assert "-ffp-contract=off" in flags and "-O2" in flags
    assert not {"-ffast-math", "-Ofast", "-O3", "-march=native"} & set(flags)
    assert [p.suffix for p in tmp_path.iterdir()] == [".so"]  # no temp file left
    # with the state reset, the cached library loads without a compile
    monkeypatch.setattr(kernel, "_lib", kernel._UNBUILT)
    assert kernel.evaluator() == "compiled" and len(compiles) == 1


@needs_gcc
def test_build_removes_superseded_libraries(monkeypatch, tmp_path):
    # a stale library and another builder's unfinished temporary file; the
    # listing also names a library that a concurrent build already deleted
    monkeypatch.setattr(kernel, "_CACHE_DIR", tmp_path)
    stale = tmp_path / "pwadvect_kernel-0123456789abcdef.so"
    pending = tmp_path / "tmpbuilder.so.tmp"
    stale.write_bytes(b"superseded")
    pending.write_bytes(b"partial")
    real_glob = Path.glob
    monkeypatch.setattr(type(tmp_path), "glob", lambda self, pattern: [
        *real_glob(self, pattern), self / "pwadvect_kernel-fedcba9876543210.so"])
    assert kernel._build() is not None
    left = sorted(p.name for p in tmp_path.iterdir())
    assert len(left) == 2 and left[1] == pending.name and pending.read_bytes() == b"partial"
    assert left[0].startswith("pwadvect_kernel-") and left[0] != stale.name


def test_kernel_source_is_the_tapes():
    # one C statement per tape step, and no arithmetic anywhere else
    steps = sum(len(tape) for tape, _ in kernel._MID_TAPES + kernel._TOP_TAPES)
    lines = kernel.kernel_source().splitlines()
    arithmetic = [ln for ln in lines if any(f" {op} " in ln for op in "+-*")
                  and not ln.lstrip().startswith(("#", "for", "const int64_t t"))]
    assert len(arithmetic) == steps


def _compile(source: str, flags, path: Path) -> subprocess.CompletedProcess:
    return subprocess.run(["gcc", *flags, "-x", "c", "-", "-o", str(path)],
                          input=source, capture_output=True, text=True, check=True)


@needs_gcc
def test_k_loop_is_vectorised(tmp_path):
    source = kernel.kernel_source()
    lines = source.splitlines()
    first = next(n for n, ln in enumerate(lines, 1) if ln.lstrip().startswith("for (int64_t k"))
    depth = len(lines[first - 1]) - len(lines[first - 1].lstrip())
    last = next(n for n in range(first + 1, len(lines) + 1)
                if len(lines[n - 1]) - len(lines[n - 1].lstrip()) <= depth)
    done = _compile(source, [*kernel.CFLAGS, "-fopt-info-vec-optimized"], tmp_path / "k.so")
    vectorised = [int(n) for n in re.findall(r":(\d+):\d+: optimized: loop vectorized",
                                               done.stderr)]
    assert any(first <= n <= last for n in vectorised), done.stderr


def _special_block(rng, nz):
    """Coefficients and a 3x5 block of role columns, a fifth of the values SPECIAL."""
    shape = (3, 5, nz)
    roles = {}
    for role in COMPUTE_ROLES:
        wide = rng.standard_normal(shape) * np.exp2(rng.integers(-1074, 1000, shape))
        roles[role] = np.where(rng.random(shape) < 0.2, rng.choice(SPECIAL, shape), wide)
    return random_coeffs(nz, seed=int(rng.integers(1 << 30))), roles


@needs_gcc
@pytest.mark.skipif(platform.machine() != "x86_64", reason="the clones are x86-64 only")
@pytest.mark.parametrize("level", ["x86-64", "x86-64-v3", "x86-64-v4"])
def test_each_clone_bitwise_equals_replay(monkeypatch, tmp_path, level):
    # the loader runs only the best clone the CPU has, so build each one alone
    probe = ('int runs(void) { __builtin_cpu_init(); '
             f'return __builtin_cpu_supports("{level}") != 0; }}')
    try:
        _compile(probe, ["-fPIC", "-shared"], tmp_path / "probe.so")
    except subprocess.CalledProcessError as exc:
        pytest.skip(f"gcc cannot probe for {level}: {exc.stderr.strip()}")
    if not ctypes.CDLL(str(tmp_path / "probe.so")).runs():
        pytest.skip(f"the CPU cannot run {level}")
    source = "\n".join(ln for ln in kernel.kernel_source().splitlines()
                       if "target_clones" not in ln)
    _compile(source, [*kernel.CFLAGS, f"-march={level}"], tmp_path / "clone.so")
    clone = kernel._declare(ctypes.CDLL(str(tmp_path / "clone.so")))
    rng = np.random.default_rng(8)
    for nz in (2, 3, 8, 19, 37):
        coeffs, roles = _special_block(rng, nz)
        outs = []
        for lib in (clone, None):  # None: the numpy replay
            monkeypatch.setattr(kernel, "_lib", lib)
            out = tuple(np.full((3, 5, nz), -1.25e-300) for _ in range(3))
            with np.errstate(all="ignore"):
                evaluate(coeffs, roles, out)
            outs.append(out)
        assert all(_same_bits(a, b) for a, b in zip(*outs))
    # x_reordered binds its roles as ring rows repeated along X with stride 0
    dims = GridDims(7, 9, 19)
    fields = fill_fields(dims, GeneratorSpec.random(5))
    for f in (fields.u, fields.v, fields.w):
        flat = f.data.reshape(-1)
        flat[rng.choice(flat.size, 50, replace=False)] = rng.choice(SPECIAL, 50)
    coeffs = random_coeffs(dims.nz)
    with np.errstate(all="ignore"):
        ref = run_reference(fields, coeffs)
        for lib in (clone, None):
            monkeypatch.setattr(kernel, "_lib", lib)
            # one engine: worker threads would not see the errstate
            out, _, _ = run_schedule(fields, coeffs, ScheduleSpec("x_reordered", 4))
            assert compare_outputs(ref, out).bitwise_equal


@pytest.mark.parametrize("cause", ["no compiler", "failed build"])
def test_fallback_warns_once_and_stays_bitwise(monkeypatch, tmp_path, cause):
    monkeypatch.setattr(kernel, "_lib", kernel._UNBUILT)
    monkeypatch.setattr(kernel, "_CACHE_DIR", tmp_path)
    if cause == "no compiler":
        monkeypatch.setattr(kernel.shutil, "which", lambda name: None)
    else:
        monkeypatch.setattr(kernel, "CFLAGS", (*kernel.CFLAGS, "-no-such-flag"))
    dims = GridDims(5, 4, 6)
    fields = fill_fields(dims, GeneratorSpec.random(31))
    coeffs = random_coeffs(dims.nz)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        runs = [run_reference(fields, coeffs) for _ in range(2)]
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "numpy replay" in str(caught[0].message)
    assert kernel.evaluator() == "numpy"
    assert list(tmp_path.iterdir()) == []
    oracle = naive_sources(fields, coeffs)
    for ref in runs:
        for x, y in ((ref.su, oracle.su), (ref.sv, oracle.sv), (ref.sw, oracle.sw)):
            assert x.data.tobytes() == y.data.tobytes()


def _bad_block(case):
    """A 3x4 block of columns (nz = 5) with one defect, as (coeffs, roles, out, rows)."""
    nz = 5
    roles = {role: np.ones((3, 4, nz)) for role in COMPUTE_ROLES}
    out = [np.zeros((3, 4, nz)) for _ in range(3)]
    coeffs = default_coefficients(nz)
    rows = {"rows past the end": (0, 4), "negative row": (-1, 2),
            "reversed rows": (2, 1)}.get(case, (0, 3))
    if case == "role shape":
        roles[("v", 0, 0)] = np.ones((3, 5, nz))
    elif case == "role dtype":
        roles[("w", 1, 0)] = np.ones((3, 4, nz), dtype=np.float32)
    elif case == "role k-stride":
        roles[("u", 0, 1)] = np.ones((3, 4, 2 * nz))[..., ::2]
    elif case == "missing role":
        del roles[("u", -1, 1)]
    elif case == "coefficient nz":
        coeffs = default_coefficients(nz + 1)
    elif case == "read-only output":
        out[1] = np.broadcast_to(np.zeros(nz), (3, 4, nz))
    elif case == "output k-stride":
        out[2] = np.zeros((3, 4, nz, 2))[..., 0]
    elif case == "three leading axes":
        roles = {role: np.ones((2, 3, 4, nz)) for role in COMPUTE_ROLES}
    elif case == "not an array":
        roles[("u", 0, 0)] = [[[1.0] * nz] * 4] * 3
    return coeffs, roles, tuple(out), rows


@pytest.mark.parametrize("case", ["role shape", "role dtype", "role k-stride", "missing role",
                                  "coefficient nz", "read-only output", "output k-stride",
                                  "three leading axes", "not an array", "rows past the end",
                                  "negative row", "reversed rows"])
def test_compute_block_rejects_bad_arrays(case):
    coeffs, roles, out, rows = _bad_block(case)
    with pytest.raises(ValueError):
        compute_block(BoundBlock(coeffs, roles, out, {}), *rows)
    assert not any(o.any() for o in out if o.ndim == 3)


def test_bound_block_outlives_callers_arrays():
    # the block alone holds the roles, outputs and coefficients it addressed
    dims = GridDims(5, 4, 6)
    fields = fill_fields(dims, GeneratorSpec.random(29))
    coeffs = random_coeffs(dims.nz)
    ref = run_reference(fields, coeffs)
    out = zeros_sources(dims)
    shape = (dims.nx, dims.ny, dims.nz)
    roles = {role: view.copy() for role, view in grid_roles(fields, 1, 6, 1, 5).items()}
    views = tuple(np.zeros(shape) for _ in range(3))
    # strided coefficients, so that the kernel gets contiguous copies of them
    strided = [np.repeat(z, 2)[::2] for z in (coeffs.tzc1, coeffs.tzc2)]
    block = BoundBlock(AdvectionCoefficients(coeffs.tcx, coeffs.tcy, *strided), roles, views, {})
    del roles, views, strided
    gc.collect()
    # take back any buffer freed: role-, coefficient- and descriptor-sized
    junk = [np.full(n, np.nan) for n in (np.prod(shape), dims.nz, 3 * 20) for _ in range(40)]
    compute_block(block, 0, dims.nx)
    for f, src in zip(block.arrays[-3:], (out.su, out.sv, out.sw)):
        src.data[1:-1, 1:-1] = f
    assert compare_outputs(ref, out).bitwise_equal
    del junk


def test_model_path_builds_no_kernel():
    # `import pwadvect` and `validate` must neither compile nor load the kernel
    code = ("import pwadvect\n"
            "from pwadvect import cli, kernel\n"
            "assert cli.main(['validate']) == 0\n"
            "assert kernel._lib is kernel._UNBUILT\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr


@pytest.mark.usefixtures("numpy_replay")
class TestNumpyReplay:
    """The bitwise, block and bound-block tests above, again with compute_block
    pinned to the numpy replay; at module level they run on the compiled kernel
    when gcc is found."""

    test_replay_bitwise_equals_formulas = staticmethod(test_replay_bitwise_equals_formulas)
    test_block_edges_bitwise_equal_to_oracle = staticmethod(
        test_block_edges_bitwise_equal_to_oracle)
    test_block_edges_reproduce_goldens = staticmethod(test_block_edges_reproduce_goldens)
    test_reference_schedule_blocks_each_slab = staticmethod(
        test_reference_schedule_blocks_each_slab)
    test_compute_block_rejects_bad_arrays = staticmethod(test_compute_block_rejects_bad_arrays)
    test_bound_block_outlives_callers_arrays = staticmethod(
        test_bound_block_outlives_callers_arrays)
