import ctypes
import dataclasses
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
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pwadvect import kernel, schedules
from pwadvect.grid import (
    GeneratorSpec,
    GridDims,
    checksum,
    fill_fields,
    lcg_fill,
    wrap_halos,
    zeros_sources,
)
from pwadvect.kernel import (
    COMPUTE_ROLES,
    AdvectionCoefficients,
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
from pwadvect.refdata import FlopProfile
from pwadvect.schedules import ScheduleSpec, compare_outputs, run_schedule
from naive_oracle import naive_sources

GOLDENS = json.loads((Path(__file__).parent / "goldens.json").read_text())
POINT_OPS = (advect_point_u, advect_point_v, advect_point_w)


def random_coeffs(nz, seed=11):
    rng = np.random.default_rng(seed)
    return AdvectionCoefficients(float(rng.random()), float(rng.random()),
                                 rng.random(nz), rng.random(nz))


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
    # the published credit is a fact: no field to set, one value
    assert dataclasses.fields(FlopProfile) == ()
    assert FlopProfile() == FlopProfile()
    assert FlopProfile.total_per_cell == 53
    assert FlopProfile.adds_per_cell == 21 and FlopProfile.muls_per_cell == 32
    # 268.3M cells at 53 ops/cell is consistent with 14.36 GFLOP/s over 0.990 s
    total = GridDims(2047, 2048, 64).cells * 53
    assert total == pytest.approx(1.422e10, rel=1e-3)
    assert total / 14.36e9 == pytest.approx(0.990, rel=1e-3)


@pytest.mark.parametrize("tzc1, tzc2, message", [
    (np.ones(4), np.ones(5), "equal length"),
    (np.ones((2, 4)), np.ones((2, 4)), "1-D"),
    (np.ones(4), np.array([1.0, np.nan, 1.0, 1.0]), "finite"),
    (np.array([1.0, 1.0, 1.0, -np.inf]), np.ones(4), "finite"),
])
def test_coefficients_reject_bad_vertical_arrays(tzc1, tzc2, message):
    with pytest.raises(ValueError, match=message):
        AdvectionCoefficients(0.25, 0.25, tzc1, tzc2)


@pytest.mark.parametrize("tcx, tcy", [(np.nan, 0.25), (0.25, np.inf), (-np.inf, np.nan)])
def test_coefficients_reject_non_finite_horizontal_scalars(tcx, tcy):
    with pytest.raises(ValueError, match="horizontal coefficients must be finite"):
        AdvectionCoefficients(tcx, tcy, np.ones(4), np.ones(4))


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

    def running(coeffs, phases, out, *staging):
        calls.append(out[0].shape[:2])
        return run(coeffs, phases, out, *staging)

    def replaying(coeffs, roles, out, scratch):
        blocks.append(roles[("u", 0, 0)].shape[:2])
        return replay(coeffs, roles, out, scratch)

    # run_reference calls it in kernel, the reference schedule in schedules
    monkeypatch.setattr(kernel, "compute_block", running)
    monkeypatch.setattr(schedules, "compute_block", running)
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
    lead = draw(st.sampled_from(((1, 1), (1, 4), (3, 5))))
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
        compute_block(coeffs, [roles], out)
        for (formula, spec), got in zip(kernel._FORMULAS, out):
            if nz > 2:
                ops = [roles[(f, dx, dy)][..., 1 + dk : t + dk] for f, dx, dy, dk in spec]
                want = formula(coeffs.tcx, coeffs.tcy, coeffs.tzc1[1:t], coeffs.tzc2[1:t], *ops)
                assert _same_bits(got[..., 1:t], want)
            ops = [roles[(f, dx, dy)][..., t - 1 if dk == -1 else t] for f, dx, dy, dk in spec]
            want = formula(coeffs.tcx, coeffs.tcy, float(coeffs.tzc1[t]),
                           float(coeffs.tzc2[t]), *ops, top=True)
            assert _same_bits(got[..., t], want)
            # level k = 1 has no formula: written +0.0 over the sentinel
            assert np.all(got[..., 0].view(np.int64) == np.float64(0.0).view(np.int64))


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
    # one C statement per tape step, and no arithmetic anywhere else in the
    # kernel; the generator follows it in the same source
    steps = sum(len(tape) for tape, _ in kernel._MID_TAPES + kernel._TOP_TAPES)
    lines = kernel.kernel_source().split("void pwadvect_lcg(")[0].splitlines()
    arithmetic = [ln for ln in lines if any(f" {op} " in ln for op in "+-*")
                  and not ln.lstrip().startswith(("#", "for", "const int64_t t"))]
    assert len(arithmetic) == steps


def test_declared_argtypes_match_the_source():
    # a ctypes declaration that disagrees with the C parameter list or
    # result type is undefined behaviour, so read both from the source (a
    # void result is declared None); no build
    kinds = {"int64_t": ctypes.c_int64, "uint64_t": ctypes.c_uint64, "double": ctypes.c_double}
    source = kernel.kernel_source()
    lib = SimpleNamespace(pwadvect_block=SimpleNamespace(), pwadvect_lcg=SimpleNamespace())
    kernel._declare(lib)
    for name in ("pwadvect_block", "pwadvect_lcg"):
        result, params = re.search(rf"(\w+) {name}\(([^)]*)\)", source).groups()
        want = [ctypes.c_void_p if "*" in p else kinds[p.split()[-2]] for p in params.split(",")]
        fn = getattr(lib, name)
        assert list(fn.argtypes) == want and fn.restype is kinds.get(result), name
    assert len(lib.pwadvect_block.argtypes) == 13 and len(lib.pwadvect_lcg.argtypes) == 3


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
    # the generator: one stream over arrays ending on and off its 8-lane steps
    streams = []
    for lib in (clone, None):  # None: lcg_fill's numpy path
        monkeypatch.setattr(kernel, "_lib", lib)
        arrays = [np.empty(n) for n in (7, 8, 9, 0, 15, 16, 17, 65_537)]
        lcg_fill(2**64 - 1, arrays)
        streams.append(np.concatenate(arrays))
    assert streams[0].tobytes() == streams[1].tobytes()
    rng = np.random.default_rng(8)
    for nz in (2, 3, 8, 19, 37):
        coeffs, roles = _special_block(rng, nz)
        outs = []
        for lib in (clone, None):  # None: the numpy replay
            monkeypatch.setattr(kernel, "_lib", lib)
            out = tuple(np.full((3, 5, nz), -1.25e-300) for _ in range(3))
            with np.errstate(all="ignore"):
                compute_block(coeffs, [roles], out)
            outs.append(out)
        assert all(_same_bits(a, b) for a, b in zip(*outs))
    # x_reordered passes its roles as ring rows repeated along X with stride 0
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
    want = fill_fields(GridDims(5, 4, 6), GeneratorSpec.random(31))  # compiled when gcc is found
    monkeypatch.setattr(kernel, "_lib", kernel._UNBUILT)
    monkeypatch.setattr(kernel, "_CACHE_DIR", tmp_path)
    if cause == "no compiler":
        monkeypatch.setattr(kernel.shutil, "which", lambda name: None)
    else:
        monkeypatch.setattr(kernel, "CFLAGS", (*kernel.CFLAGS, "-no-such-flag"))
    dims = GridDims(5, 4, 6)
    spec = GeneratorSpec.random(31)
    coeffs = random_coeffs(dims.nz)
    # the first random fill is the library's first caller, and fails over
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fields = fill_fields(dims, spec)
        runs = [run_reference(fields, coeffs) for _ in range(2)]
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "numpy replay" in str(caught[0].message)
    assert kernel.evaluator() == "numpy"
    assert list(tmp_path.iterdir()) == []
    for x, y in zip((fields.u, fields.v, fields.w), (want.u, want.v, want.w)):
        assert x.data.tobytes() == y.data.tobytes()
    oracle = naive_sources(fields, coeffs)
    for ref in runs:
        for x, y in ((ref.su, oracle.su), (ref.sv, oracle.sv), (ref.sw, oracle.sw)):
            assert x.data.tobytes() == y.data.tobytes()


def _bad_block(case):
    """A 3x4 block of columns (nz = 5) with one defect, as (coeffs, phases, out, lag)."""
    nz = 5
    roles = {role: np.ones((3, 4, nz)) for role in COMPUTE_ROLES}
    out = [np.zeros((3, 4, nz)) for _ in range(3)]
    coeffs = default_coefficients(nz)
    # a lag of -1 would run rows 1 and 2; 1.0 and True are no int
    lag = {"negative lag": -1, "non-int lag": 1.0, "bool lag": True}.get(case, 0)
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
    elif case in ("one leading axis", "no leading axis"):
        lead = (4,) if case == "one leading axis" else ()
        roles = {role: np.ones((*lead, nz)) for role in COMPUTE_ROLES}
        out = [np.zeros((*lead, nz)) for _ in range(3)]
    elif case == "not an array":
        roles[("u", 0, 0)] = [[[1.0] * nz] * 4] * 3
    elif case == "two outputs":
        out = out[:2]
    elif case == "zero-row roles":  # a batch of no rows would never advance
        roles = {role: np.ones((3, 4, nz))[:, :0] for role in COMPUTE_ROLES}
    return coeffs, [] if case == "no phases" else [roles], tuple(out), lag


@pytest.mark.parametrize("case", ["role shape", "role dtype", "role k-stride", "missing role",
                                  "coefficient nz", "read-only output", "output k-stride",
                                  "three leading axes", "one leading axis", "no leading axis",
                                  "not an array", "negative lag", "non-int lag", "bool lag",
                                  "no phases", "two outputs", "zero-row roles"])
def test_compute_block_rejects_bad_arrays(case):
    coeffs, phases, out, lag = _bad_block(case)
    with pytest.raises(ValueError):
        compute_block(coeffs, phases, out, lag=lag)
    assert not any(o.any() for o in out)


def test_compute_block_takes_strided_coefficients():
    # the kernel gets contiguous copies of strided tzc1 and tzc2
    dims = GridDims(5, 4, 6)
    fields = fill_fields(dims, GeneratorSpec.random(29))
    coeffs = random_coeffs(dims.nz)
    ref = run_reference(fields, coeffs)
    out = zeros_sources(dims)
    strided = [np.repeat(z, 2)[::2] for z in (coeffs.tzc1, coeffs.tzc2)]
    compute_block(AdvectionCoefficients(coeffs.tcx, coeffs.tcy, *strided),
                  [grid_roles(fields, 1, dims.nx + 1)],
                  tuple(f.data[1:-1, 1:-1] for f in (out.su, out.sv, out.sw)))
    assert compare_outputs(ref, out).bitwise_equal


UNWRITTEN = -1.25e-300


def _staged_block(case=None, batches=1.0):
    """A block of 3 X rows (nz = 5) whose 17 roles are Y batches of 4 rows
    staged per X step from a source of 5 planes, `batches` * 4 rows long,
    one phase and lag 0: step i copies plane i + 1 + dx into the role's
    rows. Returns (coeffs, phases, out, copies, unstaged roles), with one
    defect if `case` names one."""
    nz, n0, n1 = 5, 3, 4
    height = int(batches * n1)  # the outputs' rows; the source needs as many
    src = np.random.default_rng(3).random((n0 + 2, height, nz))
    rows = {role: np.full((n1, nz), UNWRITTEN) for role in COMPUTE_ROLES}
    copies = [(rows[role], src, role[1] + 1) for role in COMPUTE_ROLES]
    roles = {role: np.broadcast_to(r, (n0, n1, nz)) for role, r in rows.items()}
    unstaged = {role: src[role[1] + 1 : role[1] + 1 + n0] for role in COMPUTE_ROLES}
    out = tuple(np.zeros((n0, height, nz)) for _ in range(3))
    first = COMPUTE_ROLES[0]  # ("u", -1, 0): reads planes 0 .. 2
    if case == "source past the end":
        copies[0] = (rows[first], src, 3)  # the last step would read plane 5
    elif case == "source before the start":
        copies[0] = (rows[first], src, -1)
    elif case == "strided destination":
        copies[0] = (np.full((n1, 2 * nz), UNWRITTEN)[:, ::2], src, 0)
    elif case == "read-only destination":
        copies[0] = (np.broadcast_to(np.full(nz, UNWRITTEN), (n1, nz)), src, 0)
    elif case == "source size":
        copies[0] = (rows[first], np.ones((n0 + 2, height, nz + 1)), 0)
    elif case == "strided source plane":
        copies[0] = (rows[first], src[..., ::-1], 0)
    elif case == "non-int dx":
        copies[0] = (rows[first], src, 1.0)
    elif case == "bool dx":  # in range as plane 1, but no int
        copies[0] = (rows[first], src, True)
    elif case == "source short of the last batch":
        copies[0] = (rows[first], src[:, :-1], 0)
    elif case == "destination short of a batch":
        copies[0] = (np.full((n1 - 1, nz), UNWRITTEN), src, 0)
    per_phase = [copies, copies] if case == "copies per phase" else [copies]
    return default_coefficients(nz), [roles], out, per_phase, unstaged


@pytest.mark.parametrize("case", ["source past the end", "source before the start",
                                  "strided destination", "read-only destination",
                                  "source size", "strided source plane", "copies per phase",
                                  "non-int dx", "bool dx", "source short of the last batch",
                                  "destination short of a batch"])
def test_staged_block_rejects_bad_copies(case):
    # Y batches of 4, 4 and 2 rows: the last batch reads the source furthest
    coeffs, phases, out, copies, _ = _staged_block(case, batches=2.5)
    with pytest.raises(ValueError):
        compute_block(coeffs, phases, out, copies)
    assert not any(o.any() for o in out)
    assert all((dst == UNWRITTEN).all() for phase in copies for dst, _, _ in phase)


def test_staged_block_equals_unstaged_roles():
    # staged per X step, the block equals the one on the unstaged role
    # planes; it copies 17 destinations x 3 X steps x 4 rows x nz 5, and the
    # unstaged block nothing
    coeffs, phases, out, copies, unstaged = _staged_block()
    want = tuple(np.zeros_like(o) for o in out)
    assert compute_block(coeffs, [unstaged], want) == 0
    assert compute_block(coeffs, phases, out, copies) == 17 * 3 * 4 * 5
    assert all(w[..., 1:].any() for w in want)
    assert all(np.array_equal(a, b) for a, b in zip(out, want))


def test_staged_batches_equal_unstaged_roles():
    # one call runs Y batches of 4, 4 and 2 rows, the last copying only the
    # first 2 rows of each destination; it equals one unstaged batch of 10
    coeffs, phases, out, copies, unstaged = _staged_block(batches=2.5)
    want = tuple(np.zeros_like(o) for o in out)
    assert compute_block(coeffs, [unstaged], want) == 0
    # the count of what the copies moved: 17 destinations x 3 X steps x
    # (4 + 4 + 2) rows x nz 5
    assert compute_block(coeffs, phases, out, copies) == 17 * 3 * (4 + 4 + 2) * 5
    assert all(w[..., 1:].all() for w in want)
    assert all(np.array_equal(a.view(np.int64), b.view(np.int64)) for a, b in zip(out, want))
    # the last batch copied 2 rows, so each destination keeps the last 2 rows
    # of the middle batch's last X step: source plane 2 + dx, rows 6 and 7
    assert all((dst[2:] == src[2 + dx, 6:8]).all() for dst, src, dx in copies[0])


def test_copy_table_flags_each_copy_against_the_phase_before():
    # two phases over one source of 6 planes of 8 rows: at step i + 1, phase
    # 1's copy reads plane i + 1, which phase 0's copy read at step i, so it
    # is not prefetched; phase 0's reads plane i + 2, so it is
    src = np.zeros((6, 8, 2))
    rows = np.zeros((4, 2))
    table = kernel._copy_table([[(rows, src, 1)], [(rows, src, 0)]])
    assert table.shape == (2, 1, 6) and table[..., 5].tolist() == [[1], [0]]
    # one row more than phase 0 read is outside
    longer = (np.zeros((5, 2)), src, 0)
    assert kernel._copy_table([[(rows, src, 1)], [longer]])[1, 0, 5] == 1
    # the same bytes seen as rows of half the size lie inside at row 0 only,
    # since row y of a 16-byte-row view and of an 8-byte-row view drift apart
    halves = (np.zeros((2, 1)), src.reshape(6, 16, 1), 0)
    assert kernel._copy_table([[(rows, src, 1)], [halves]])[1, 0, 5] == 1


def test_model_path_builds_no_kernel():
    # `import pwadvect`, `validate` and the uniform generator must
    # neither compile nor load the kernel library
    code = ("import pwadvect\n"
            "from pwadvect import cli, kernel\n"
            "from pwadvect.grid import GeneratorSpec, GridDims, fill_fields\n"
            "assert cli.main(['validate']) == 0\n"
            "fill_fields(GridDims(4, 5, 6), GeneratorSpec.uniform(1, 2, 3))\n"
            "assert kernel._lib is kernel._UNBUILT\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr


@pytest.mark.usefixtures("numpy_replay")
class TestNumpyReplay:
    """The bitwise, block and compute_block tests above, again pinned to the
    numpy replay; at module level they run on the compiled kernel when gcc is
    found."""

    test_replay_bitwise_equals_formulas = staticmethod(test_replay_bitwise_equals_formulas)
    test_block_edges_bitwise_equal_to_oracle = staticmethod(
        test_block_edges_bitwise_equal_to_oracle)
    test_block_edges_reproduce_goldens = staticmethod(test_block_edges_reproduce_goldens)
    test_reference_schedule_blocks_each_slab = staticmethod(
        test_reference_schedule_blocks_each_slab)
    test_compute_block_rejects_bad_arrays = staticmethod(test_compute_block_rejects_bad_arrays)
    test_compute_block_takes_strided_coefficients = staticmethod(
        test_compute_block_takes_strided_coefficients)
    test_staged_block_rejects_bad_copies = staticmethod(test_staged_block_rejects_bad_copies)
    test_staged_block_equals_unstaged_roles = staticmethod(
        test_staged_block_equals_unstaged_roles)
    test_staged_batches_equal_unstaged_roles = staticmethod(
        test_staged_batches_equal_unstaged_roles)
