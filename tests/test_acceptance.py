"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; tolerances are pinned here and nowhere looser.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pwadvect
from pwadvect.dataflow import (
    MemoryModel,
    PipelineSpec,
    calibrate,
    gflops,
    kernel_time,
    pipeline_cycles,
    pipeline_latency,
)
from pwadvect.grid import GeneratorSpec, GridDims, fill_fields, wrap_halos, FieldSet
from pwadvect.kernel import default_coefficients, run_reference
from pwadvect.params import ModelParams
from pwadvect.refdata import GRID_LADDER, GRID_LARGEST, GRID_STRATUS
from pwadvect.schedules import ScheduleSpec, compare_outputs, run_schedule
from pwadvect.transfer import DmaConfig, dma_time, end_to_end, transfer_volume

PARAMS = ModelParams()


def _ok(num, text):
    print(f"ACCEPTANCE PASS {num:>2}: {text}")


def test_criterion_1_pipeline_arithmetic():
    col = pipeline_cycles(PipelineSpec(71, 2, 250e6), 64)
    assert col.total_cycles == 199
    assert col.full_cycles == 57
    assert abs(col.utilization * 100 - 28.6) <= 0.5
    batched = pipeline_cycles(PipelineSpec(71, 1, 250e6), 4096)
    assert batched.total_cycles == 4167
    assert abs(batched.utilization * 100 - 96.6) <= 0.5
    _ok(1, "pipeline arithmetic: 199/57 cycles at 28.6%, 4167 cycles at 96.6%")


def test_criterion_2_latency_retiming():
    assert pipeline_latency(PipelineSpec(65, 1, 250e6)) == 2.60e-7
    assert pipeline_latency(PipelineSpec(72, 1, 312.5e6)) == 2.304e-7
    _ok(2, "latency retiming: 65 @ 4ns == 2.60e-7 s, 72 @ 3.2ns == 2.304e-7 s (exact)")


def test_criterion_3_volume_math():
    assert transfer_volume(GRID_LARGEST, "both") == pytest.approx(12.88e9, rel=0.01)
    assert transfer_volume(GRID_LARGEST, "to_card") == pytest.approx(6.44e9, rel=0.01)
    assert dma_time(12.88e9, DmaConfig(), "end_to_end") == pytest.approx(2.2, rel=0.02)
    _ok(3, "volume math: 12.88 GB both / 6.44 GB one-way (1%), 2.2 s at 5.85 GB/s (2%)")


def test_criterion_4_dma_table_exact():
    cfg = DmaConfig()
    expected = {"split_banks_4ch": 0.232, "one_controller_4ch": 0.280,
                "connected_controllers_4ch": 0.239, "one_ch_per_controller": 0.342}
    for topo, seconds in expected.items():
        assert dma_time(1.6e9, cfg, topo) == seconds
    _ok(4, "DMA table: 1.6 GB -> {232, 280, 239, 342} ms exactly per topology")


def test_criterion_5_calibrated_kernel_model():
    t = kernel_time(GRID_LADDER, PARAMS.pipeline, PARAMS.memory, PARAMS.y_batch, 1,
                    PARAMS.controllers)
    assert t == pytest.approx(0.5149, rel=0.05)
    rep = end_to_end(GRID_LARGEST, 12, PARAMS.pipeline, PARAMS.memory, PARAMS.dma,
                     PARAMS.y_batch, PARAMS.flops, PARAMS.controllers)
    assert rep.gflops_kernel == pytest.approx(14.36, rel=0.05)
    assert rep.gflops_total == pytest.approx(4.2, rel=0.10)
    _ok(5, "calibrated kernel model: 514.9 ms (5%), 14.36 GFLOP/s (5%), 4.2 total (10%)")


def test_criterion_6_breakdown_claim():
    fractions = [end_to_end(GRID_STRATUS, e, PARAMS.pipeline, PARAMS.memory, PARAMS.dma,
                            PARAMS.y_batch, PARAMS.flops, PARAMS.controllers).dma_fraction
                 for e in range(1, 13)]
    assert fractions[-1] >= 0.65
    assert all(a <= b for a, b in zip(fractions, fractions[1:]))
    _ok(6, f"breakdown claim: dma_fraction(12 engines) = {fractions[-1]:.3f} >= 0.65, "
           "non-decreasing over 1..12")


def _random_cases(n_cases):
    rng = np.random.default_rng(20240817)
    cases = []
    for trial in range(n_cases):
        if trial % 50 == 10:          # a few larger ones, still <= 32^3
            nx, ny, nz = 32, int(rng.integers(2, 7)), 32
        elif trial % 10 == 5:
            nx, ny, nz = (int(rng.integers(9, 17)) for _ in range(3))
        else:
            nx = int(rng.integers(1, 9))
            ny = int(rng.integers(1, 9))
            nz = int(rng.integers(2, 9))
        cases.append((nx, ny, max(nz, 2), int(rng.integers(0, 2**31))))
    return cases


def _shifted(fields, sx, sy):
    moved = []
    for f in (fields.u, fields.v, fields.w):
        g = f.copy()
        g.data[1:-1, 1:-1, :] = np.roll(f.data[1:-1, 1:-1, :], (sx, sy), axis=(0, 1))
        wrap_halos(g.data)
        moved.append(g)
    return FieldSet(*moved)


def test_criterion_7_functional_equivalence_property():
    cases = _random_cases(100)
    runs = 0
    for nx, ny, nz, seed in cases:
        dims = GridDims(nx, ny, nz)
        fields = fill_fields(dims, GeneratorSpec.random(seed))
        coeffs = default_coefficients(nz)
        ref = run_reference(fields, coeffs)
        # bottom level is zero, bitwise
        for s in (ref.su, ref.sv, ref.sw):
            assert np.all(s.data[:, :, 0] == 0.0)
        # periodic shift equivariance, bitwise
        sx, sy = 1 + seed % max(1, nx), 1 + seed % max(1, ny)
        moved = run_reference(_shifted(fields, sx, sy), coeffs)
        for a, b in ((ref.su, moved.su), (ref.sv, moved.sv), (ref.sw, moved.sw)):
            assert np.array_equal(np.roll(a.data[1:-1, 1:-1, :], (sx, sy), axis=(0, 1)),
                                  b.data[1:-1, 1:-1, :])
        y_batch = 1 + seed % ny
        for variant in ("reference", "column_buffered", "y_batched", "x_reordered"):
            for engines in (1, 2, 4, 8):
                if engines > nx:
                    continue
                spec = ScheduleSpec(variant, y_batch=y_batch, engines=engines)
                out, _, _ = run_schedule(fields, coeffs, spec)
                cmp = compare_outputs(ref, out)
                assert cmp.bitwise_equal, (dims, variant, engines, y_batch, cmp)
                runs += 1
    assert len(cases) >= 100
    _ok(7, f"functional equivalence: {len(cases)} randomized cases, "
           f"{runs} schedule runs, all bitwise-identical to the reference")


def test_criterion_8_symmetry_oracle():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(20):
        dims = GridDims(int(rng.integers(1, 9)), int(rng.integers(1, 9)),
                         int(rng.integers(2, 9)))
        a, b, c = (float(x) for x in rng.normal(size=3))
        tz = float(rng.random()) + 0.1
        fields = fill_fields(dims, GeneratorSpec.uniform(a, b, c))
        src = run_reference(fields, default_coefficients(dims.nz, tz))
        for s in (src.su, src.sv, src.sw):
            assert np.all(s.data[1:-1, 1:-1, : dims.nz - 1] == 0.0)  # no tolerance
        for s, closed in ((src.su, 2 * tz * a * c), (src.sv, 2 * tz * b * c),
                          (src.sw, 2 * tz * c * c)):
            tops = s.data[1:-1, 1:-1, dims.nz - 1]
            assert np.all(np.abs(tops - closed) <= 2 * np.spacing(abs(closed)))
        checked += 1
    _ok(8, f"symmetry oracle: {checked} uniform cases exactly zero below the top, "
           "closed form within 2 ULP at the top")


def test_criterion_9_traffic_instrumentation():
    rng = np.random.default_rng(99)
    grids = 0
    for _ in range(20):
        dims = GridDims(int(rng.integers(2, 13)), int(rng.integers(1, 9)),
                         int(rng.integers(2, 9)))
        fields = fill_fields(dims, GeneratorSpec.random(int(rng.integers(0, 1000))))
        coeffs = default_coefficients(dims.nz)
        y_batch = 1 + int(rng.integers(0, dims.ny))
        _, yb, _ = run_schedule(fields, coeffs, ScheduleSpec("y_batched", y_batch))
        _, xr, _ = run_schedule(fields, coeffs, ScheduleSpec("x_reordered", y_batch))
        assert xr.external_reads < yb.external_reads  # nx >= 2 always here
        grids += 1
    # bit-determinism across repeated runs for every thread count
    dims = GridDims(8, 6, 5)
    fields = fill_fields(dims, GeneratorSpec.random(3))
    coeffs = default_coefficients(dims.nz)
    for variant in ("reference", "column_buffered", "y_batched", "x_reordered"):
        for engines in (1, 2, 4, 8):
            spec = ScheduleSpec(variant, y_batch=3, engines=engines)
            reports = [run_schedule(fields, coeffs, spec)[1] for _ in range(3)]
            assert reports[0] == reports[1] == reports[2]
    _ok(9, f"traffic instrumentation: x_reordered < y_batched on {grids} grids with "
           "nx >= 2; reports bit-deterministic across repeats and engine counts")


def test_criterion_10_calibration_round_trip():
    truth = MemoryModel(eff_bandwidth_1=3.14e9, contention=0.8)
    pipe = PipelineSpec(70, 1, 300e6)
    obs = [(dims, engines, kernel_time(dims, pipe, truth, 32, engines, PARAMS.controllers))
           for dims, engines in ((GridDims(128, 128, 32), 1),
                                 (GridDims(512, 256, 32), 4),
                                 (GridDims(768, 512, 32), 9))]
    fitted = calibrate(obs, pipe, 32, PARAMS.controllers, PARAMS.memory).model
    assert abs(fitted.eff_bandwidth_1 - truth.eff_bandwidth_1) / truth.eff_bandwidth_1 <= 1e-6
    assert abs(fitted.contention - truth.contention) / truth.contention <= 1e-6
    _ok(10, "calibration round-trip: generating parameters recovered to 1e-6 relative")


def test_criterion_11_validate_subcommand_gate():
    # the child process runs the same package this test imported
    src = str(Path(pwadvect.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "pwadvect", "validate"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "OK: all checks passed" in proc.stdout
    assert proc.stdout.count("PASS") >= 18
    _ok(11, "`validate` subcommand: criteria 1-6 as one gate, exit 0 with shipped defaults")
