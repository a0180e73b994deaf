import math

import numpy as np
import pytest

from pwadvect.dataflow import (
    CalibrationResult,
    MemoryModel,
    PipelineSpec,
    _slowest_engine,
    calibrate,
    check_observation,
    gflops,
    kernel_compute_cycles,
    kernel_memory_bytes,
    kernel_memory_seconds,
    kernel_time,
    pipeline_cycles,
    pipeline_latency,
)
from pwadvect.grid import GridDims
from pwadvect.kernel import FlopProfile
from pwadvect.params import ModelParams
from pwadvect.refdata import GRID_LADDER, GRID_LARGEST, ladder_model_ms
from pwadvect.schedules import ScheduleSpec, partition_domain

PARAMS = ModelParams()


def test_pipeline_cycles_column_regime():
    # 71-deep pipeline, II=2, one 64-element column
    r = pipeline_cycles(PipelineSpec(71, 2, 250e6), 64)
    assert r.total_cycles == 199
    assert r.fill_cycles == r.drain_cycles == 71
    assert r.full_cycles == 57
    assert r.utilization == pytest.approx(0.286, abs=0.005)


def test_pipeline_cycles_batched_regime():
    r = pipeline_cycles(PipelineSpec(71, 1, 250e6), 4096)
    assert r.total_cycles == 4167
    assert r.utilization == pytest.approx(0.966, abs=0.005)


def test_pipeline_cycles_degenerate_never_full():
    r = pipeline_cycles(PipelineSpec(1, 1, 1e9), 1)
    assert r.total_cycles == 2
    assert r.full_cycles == 0
    assert r.utilization == 0.0


def test_pipeline_report_identity_and_monotone_utilization():
    spec = PipelineSpec(31, 2, 1e8)
    last = -1.0
    for n in (16, 64, 256, 1024, 65536):
        r = pipeline_cycles(spec, n)
        if spec.ii * n >= spec.depth:
            assert r.total_cycles - r.fill_cycles - r.drain_cycles == r.full_cycles
        assert r.utilization > last
        last = r.utilization
    assert last < 1.0


def test_halving_ii_reduces_total():
    for n in (1, 5, 100):
        slow = pipeline_cycles(PipelineSpec(40, 2, 1e8), n)
        fast = pipeline_cycles(PipelineSpec(40, 1, 1e8), n)
        assert fast.total_cycles < slow.total_cycles


def test_pipeline_latency_retiming():
    assert pipeline_latency(PipelineSpec(65, 1, 250e6)) == 2.6e-7
    assert pipeline_latency(PipelineSpec(72, 1, 312.5e6)) == 2.304e-7
    assert pipeline_latency(PipelineSpec(1, 1, 1e9)) == 1e-9


def test_kernel_compute_cycles():
    g = GridDims(512, 512, 64)
    assert kernel_compute_cycles(g, PipelineSpec(71, 1, 310e6), 64) == 512 * 8 * 4167
    assert kernel_compute_cycles(g, PipelineSpec(71, 2, 310e6), 1) == 512 * 512 * 199
    one_batch = GridDims(1, 8, 16)
    assert kernel_compute_cycles(one_batch, PipelineSpec(10, 1, 1e8), 8) \
        == pipeline_cycles(PipelineSpec(10, 1, 1e8), 8 * 16).total_cycles
    with pytest.raises(ValueError):
        kernel_compute_cycles(one_batch, PipelineSpec(10, 1, 1e8), 9)


def test_kernel_memory_bytes_and_proportionality():
    g = GridDims(512, 512, 64)
    mem = MemoryModel(eff_bandwidth_1=2e9)
    assert kernel_memory_bytes(g, mem, 64) == 805_306_368
    t1 = kernel_memory_seconds(g, mem, 64)
    t2 = kernel_memory_seconds(g, MemoryModel(eff_bandwidth_1=4e9), 64)
    assert t1 == pytest.approx(2 * t2)
    # contention derates per extra engine on the controller
    shared = MemoryModel(eff_bandwidth_1=2e9, contention=0.5)
    assert kernel_memory_seconds(g, shared, 64, engines_on_controller=3) \
        == pytest.approx(4 * t1)


def test_kernel_time_anchor_ladder_row():
    t = kernel_time(GRID_LADDER, PARAMS.pipeline, PARAMS.memory, PARAMS.y_batch, 1)
    assert t == pytest.approx(0.5149, rel=0.05)


def test_kernel_time_anchor_gflops():
    t = kernel_time(GRID_LARGEST, PARAMS.pipeline, PARAMS.memory, PARAMS.y_batch, 12)
    assert gflops(GRID_LARGEST.cells, FlopProfile(), t) == pytest.approx(14.36, rel=0.05)


def test_kernel_time_compute_bound_limit():
    # with SDRAM cost removed, only the pipeline remains: ~55 ms at 310 MHz
    fast = MemoryModel(eff_bandwidth_1=1e30)
    t = kernel_time(GRID_LADDER, PipelineSpec(71, 1, 310e6), fast, 64, 1)
    assert t == pytest.approx(17_068_032 / 310e6, rel=1e-9)
    assert t < 0.056  # the memory phase dominates the 514.9 ms anchor


def test_kernel_time_monotone_in_engines_and_cells():
    times = [kernel_time(GridDims(1012, 1024, 64), PARAMS.pipeline, PARAMS.memory,
                         PARAMS.y_batch, e) for e in range(1, 13)]
    assert all(a >= b for a, b in zip(times, times[1:]))
    grids = [GridDims(n, n, 64) for n in (64, 128, 256, 512, 1024)]
    sizes = [kernel_time(g, PARAMS.pipeline, PARAMS.memory, PARAMS.y_batch, 4)
             for g in grids]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))


def test_engine_share_is_widest_slab():
    for nx in range(1, 41):
        dims = GridDims(nx, 2, 2)
        for engines in range(1, nx + 1):
            widest = max(map(len, partition_domain(dims, engines)))
            pipe = PARAMS.pipeline
            share, group, compute = _slowest_engine(dims, pipe, 1, engines, 2)
            assert share == GridDims(widest, 2, 2)
            assert group == math.ceil(engines / 2)
            assert compute == kernel_compute_cycles(share, pipe, 1) / pipe.clock_hz


def _error(call):
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


def test_model_and_schedules_agree_on_legality():
    verdicts = set()
    for nx, ny in ((1, 1), (3, 16), (12, 64), (16, 8)):
        dims = GridDims(nx, ny, 4)
        for engines in (-1, 0, 1, 2, nx, nx + 1, 13):
            for y_batch in (-1, 0, 1, 8, ny, ny + 1, 64):
                model = _error(lambda: kernel_time(dims, PARAMS.pipeline, PARAMS.memory,
                                                   y_batch, engines))
                spec = _error(lambda: ScheduleSpec("y_batched", y_batch, engines).validate(dims))
                assert model == spec, (dims, engines, y_batch)
                verdicts.add(model is None)
    assert verdicts == {True, False}


def test_calibrate_reproduces_anchors():
    obs = [
        (GRID_LADDER, 1, 0.5149),
        (GRID_LARGEST, 12, GRID_LARGEST.cells * 53 / 14.36e9),
    ]
    result = calibrate(obs, PARAMS.pipeline, PARAMS.y_batch)
    assert isinstance(result, CalibrationResult)
    assert all(abs(r) < 0.05 for r in result.relative_residuals)  # two-point fit: ~exact
    assert result.model.eff_bandwidth_1 == pytest.approx(PARAMS.memory.eff_bandwidth_1, rel=1e-9)
    assert result.model.contention == pytest.approx(PARAMS.memory.contention, rel=1e-9)


def test_calibrate_round_trip_recovers_parameters():
    truth = MemoryModel(eff_bandwidth_1=2.3e9, contention=0.87)
    pipe = PipelineSpec(72, 1, 310e6)
    obs = []
    for dims, engines in ((GridDims(256, 256, 64), 1), (GridDims(640, 512, 64), 6),
                          (GridDims(1024, 1024, 64), 12)):
        obs.append((dims, engines, kernel_time(dims, pipe, truth, 64, engines)))
    fitted = calibrate(obs, pipe, 64).model
    assert fitted.eff_bandwidth_1 == pytest.approx(truth.eff_bandwidth_1, rel=1e-6)
    assert fitted.contention == pytest.approx(truth.contention, rel=1e-6)


def test_calibrate_degenerate_sets_rejected():
    pipe = PipelineSpec(72, 1, 310e6)
    with pytest.raises(ValueError):
        calibrate([(GridDims(64, 64, 64), 1, 1.0)], pipe, 64)
    # engines 1 and 2 fall in the same controller group: singular
    with pytest.raises(ValueError):
        calibrate([(GridDims(64, 64, 64), 1, 1.0), (GridDims(64, 64, 64), 2, 0.6)],
                  pipe, 64)


def test_calibrate_rejects_observation_faster_than_compute():
    pipe, dims = PipelineSpec(72, 1, 310e6), GridDims(64, 64, 64)
    compute = kernel_compute_cycles(dims, pipe, 64) / pipe.clock_hz
    for seconds in (compute, compute / 2):
        with pytest.raises(ValueError, match="faster than modeled compute alone"):
            calibrate([(dims, 1, seconds), (dims, 4, 1.0)], pipe, 64)


@pytest.mark.parametrize("engines, seconds, message", [
    (1, math.nan, "must be finite"), (1, math.inf, "must be finite"),
    (1, 0.0, "must be > 0"), (1, -1.0, "must be > 0"),
    (1.0, 0.5149, "must be an integer"), (True, 0.5149, "must be an integer"),
    (0, 0.5149, "engines must be in"), (513, 0.5149, "engines must be in"),
])
def test_calibrate_rejects_observations_no_run_can_have(engines, seconds, message):
    obs = [(GRID_LADDER, engines, seconds), (GRID_LARGEST, 12, 0.99)]
    with pytest.raises(ValueError, match=message):
        check_observation(*obs[0])
    with pytest.raises(ValueError, match=message):
        calibrate(obs, PARAMS.pipeline, 64)


def test_kernel_time_rejects_no_controllers():
    # 12 engines: a fractional controller count would crowd ceil(12 / 1.5) = 8
    for controllers, rule in ((0, "must be >= 1"), (1.5, "must be an integer"),
                              (True, "must be an integer")):
        with pytest.raises(ValueError, match=f"^controllers = {controllers} {rule}$"):
            kernel_time(GRID_LARGEST, PARAMS.pipeline, PARAMS.memory, 64, engines=12,
                        controllers=controllers)
    # calibrate places its observations by the same rule
    obs = [(GRID_LADDER, 1, 0.5149), (GRID_LARGEST, 12, 0.99)]
    with pytest.raises(ValueError, match="controllers = 0 must be >= 1"):
        calibrate(obs, PARAMS.pipeline, 64, controllers=0)


def test_gflops_examples():
    assert gflops(268.3e6, FlopProfile(), 0.990) == pytest.approx(14.36, abs=0.1)
    assert gflops(268.3e6, FlopProfile(), 3.386) == pytest.approx(4.2, abs=0.1)
    assert gflops(1, FlopProfile(0, 1), 1.0) == 1e-9
    for seconds, rule in ((0.0, "must be > 0"), (math.nan, "must be finite"),
                          (math.inf, "must be finite")):
        with pytest.raises(ValueError, match=f"^seconds = {seconds} {rule}$"):
            gflops(1e6, FlopProfile(), seconds)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        PipelineSpec(0, 1, 1e8)
    with pytest.raises(ValueError):
        PipelineSpec(1, 0, 1e8)
    with pytest.raises(ValueError):
        MemoryModel(eff_bandwidth_1=-1.0)
    with pytest.raises(ValueError):
        MemoryModel(eff_bandwidth_1=1.0, contention=1.5)
    with pytest.raises(ValueError, match="^n_elements = 0 must be >= 1$"):
        pipeline_cycles(PipelineSpec(2, 1, 1e8), 0)
    with pytest.raises(ValueError, match="^n_elements = 2.5 must be an integer$"):
        pipeline_cycles(PipelineSpec(2, 1, 1e8), 2.5)


def test_ladder_rows_strictly_decreasing():
    rows = ladder_model_ms(PARAMS.memory)
    assert len(rows) == 8
    modeled = [ms for _, ms in rows]
    assert all(a > b for a, b in zip(modeled, modeled[1:]))
    # final row is the calibration anchor
    assert modeled[-1] == pytest.approx(514.9, rel=1e-6)
    # ordering matches the measured ordering
    measured = [row.measured_ms for row, _ in rows]
    assert all(a > b for a, b in zip(measured, measured[1:]))


# Per modelled ladder row, its relative error in per cent against the
# measured time, as docs/model-notes.md section 4 quotes it; rows 3 and 4
# sit far off, and that section says why.
LADDER_ERRORS = {
    "Pipeline directive on inner loop": 1.2,
    "Local BRAM for column data": -1.2,
    "Local BRAM batches columns in Y": 26.1,
    "Extract all variables": 46.5,
    "Burst mode on port": -0.7,
    "Re-order X and Y loops": -6.8,
    "Replace memcpy with explicit loops": -7.1,
    "Tune double precision cores and clock to 310Mhz": 0.0,
}


def test_ladder_row_errors_pinned():
    # a change to the model or to refdata that moves any row's error by
    # more than 0.05 percentage points shows here
    rows = ladder_model_ms(PARAMS.memory)
    errors = {row.label: 100 * (ms - row.measured_ms) / row.measured_ms for row, ms in rows}
    assert list(errors) == list(LADDER_ERRORS)
    for label, want in LADDER_ERRORS.items():
        assert errors[label] == pytest.approx(want, abs=0.05), label
