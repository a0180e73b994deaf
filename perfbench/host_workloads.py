"""Host workloads: generate fields, run one schedule repeatedly, verify every output.

The benchmark drives pwadvect in the order `pwadvect bench` does:
fill_fields -> run_schedule (or run_reference) -> checksum.
"""

from __future__ import annotations

import dataclasses
import json
import re
import statistics
import time
from dataclasses import dataclass

import numpy as np

from pwadvect import (
    GeneratorSpec,
    MemoryModel,
    ScheduleSpec,
    advect_point_u,
    advect_point_v,
    advect_point_w,
    checksum,
    compare_outputs,
    default_coefficients,
    fill_fields,
    make_grid,
    run_reference,
    run_schedule,
)

from harness import (
    COMPULSORY_BYTES_PER_CELL,
    FLOPS_PER_CELL,
    ROOT,
    alternate,
    summarize,
    timed,
    traced_peak,
)
from tracing import Tracer, maybe_active, maybe_span

# Bindings wrapped in the traced run: where pwadvect looks these functions up.
HOST_PATCHES = (
    ("pwadvect.grid", "lcg_doubles", False),
    ("pwadvect.grid", "wrap_halos", False),
    ("pwadvect.kernel", "compute_block", False),
    ("pwadvect.schedules", "compute_block", False),
)

SETUP_REPEATS = 5
SPOT_POINTS = 64          # per field and repetition, on workloads without a reference
COPY_REPEATS = 5
LADDER_GRID = (64, 128, 64)   # counts-only pass over all four schedules
LADDER_VARIANTS = ("reference", "column_buffered", "y_batched", "x_reordered")


@dataclass(frozen=True)
class HostWorkload:
    grid: tuple[int, int, int]
    spec: ScheduleSpec
    # Compare every output with one run_reference (True) or spot-check points.
    reference: bool
    ladder_pass: bool


WORKLOADS = {
    # The paper's ladder grid: 3 x 135 MB inputs, several times the LLC.
    "ladder_ref": HostWorkload((512, 512, 64), ScheduleSpec("reference", 64, 1),
                               reference=False, ladder_pass=False),
    # Per-X-step fetch/shift/write on L2-sized blocks, two engine threads.
    "xreorder_2eng": HostWorkload((256, 256, 64), ScheduleSpec("x_reordered", 64, 2),
                                  reference=True, ladder_pass=True),
}


def _bits(x) -> int:
    return int(np.float64(x).view(np.int64))


def check_goldens(checks, spec: ScheduleSpec) -> None:
    """Reproduce the 8x8x8 digests of tests/goldens.json (read only)."""
    golden = json.loads((ROOT / "tests" / "goldens.json").read_text())
    nx, ny, nz = (int(v) for v in golden["grid"].split("x"))
    seed = int(re.fullmatch(r"random\(seed=(\d+)\)", golden["generator"]).group(1))
    value = float(golden["coefficients"].rsplit("=", 1)[1])
    dims = make_grid(nx, ny, nz)
    fields = fill_fields(dims, GeneratorSpec.random(seed))
    coeffs = default_coefficients(nz, value)
    for name, f in zip("uvw", (fields.u, fields.v, fields.w)):
        checks.check(checksum(f) == golden["fields"][name], f"golden field {name}")
    small = ScheduleSpec(spec.variant, min(spec.y_batch, ny), min(spec.engines, nx))
    outputs = {"run_reference": run_reference(fields, coeffs),
               f"run_schedule {small.variant}": run_schedule(fields, coeffs, small)[0]}
    for label, out in outputs.items():
        for name, f in zip(("su", "sv", "sw"), (out.su, out.sv, out.sw)):
            checks.check(checksum(f) == golden["sources"][name], f"golden {name} via {label}")


def digests(out) -> tuple[str, str, str]:
    return checksum(out.su), checksum(out.sv), checksum(out.sw)


def copy_roof_gbps(shape) -> float:
    """np.copyto rate on one padded field, counting bytes read plus written."""
    src = np.ones(shape)
    dst = np.zeros(shape)
    walls = [timed(np.copyto, dst, src)[1] for _ in range(COPY_REPEATS)]
    return 2 * src.nbytes / statistics.median(walls) / 1e9


def ladder_counts(checks, seed: int) -> dict:
    """Traffic per cell of all four schedules once on a small grid (counts only).

    The residual is the measured plane moves per cell of x_reordered
    against the model's arrays_per_xstep; it is reported, not checked.
    """
    dims = make_grid(*LADDER_GRID)
    fields = fill_fields(dims, GeneratorSpec.random(seed))
    coeffs = default_coefficients(dims.nz)
    metrics, first = {}, None
    for variant in LADDER_VARIANTS:
        out, tc, _ = run_schedule(fields, coeffs, ScheduleSpec(variant, 64, 1))
        if first is None:
            first = out
        else:
            checks.check(compare_outputs(first, out).bitwise_equal,
                         f"ladder pass: {variant} differs from reference")
        metrics[f"schedules.ladder.{variant}.ext_reads_per_cell"] = tc.external_reads / dims.cells
        metrics[f"schedules.ladder.{variant}.local_moves_per_cell"] = (
            (tc.local_reads + tc.local_writes) / dims.cells)
        if variant == "x_reordered":
            planes = (tc.external_reads + tc.external_writes) / dims.cells
    model_planes = {f.name: f.default for f in dataclasses.fields(MemoryModel)}["arrays_per_xstep"]
    metrics["schedules.ladder.x_reordered.plane_moves_per_cell"] = planes
    metrics["schedules.ladder.plane_residual"] = planes - model_planes
    return metrics


class HostBench:
    """One host workload: its fields, its expected outputs and its checks."""

    def __init__(self, workload: HostWorkload, seed: int, checks):
        self.w = workload
        self.seed = seed
        self.checks = checks
        self.dims = make_grid(*workload.grid)
        self.fields = None
        self.coeffs = None
        self.reference = None
        self.expected = None
        self.traffic = None
        self.rng = np.random.default_rng(seed)

    @property
    def field_bytes(self) -> int:
        return self.dims.padded_len * 8

    def setup(self, tracer: Tracer | None = None) -> list[float]:
        """Generate fields and coefficients SETUP_REPEATS times; wall of each."""
        walls = []
        for n in range(SETUP_REPEATS):
            self.fields = self.coeffs = None  # free the previous set first
            t0 = time.perf_counter()
            with maybe_active(tracer, f"setup{n}", HOST_PATCHES):
                with maybe_span(tracer, "grid.fill_fields"):
                    self.fields = fill_fields(self.dims, GeneratorSpec.random(self.seed))
                self.coeffs = default_coefficients(self.dims.nz)
            walls.append(time.perf_counter() - t0)
        return walls

    def prepare(self) -> None:
        """Goldens, and the reference output outside any timed window."""
        check_goldens(self.checks, self.w.spec)
        if self.w.reference:
            self.reference = run_reference(self.fields, self.coeffs)
            self.expected = digests(self.reference)

    def peak_bytes(self) -> int:
        """tracemalloc peak of one untimed schedule call; also warms up."""
        return traced_peak(run_schedule, self.fields, self.coeffs, self.w.spec)[1]

    def verify(self, out, traffic, got: tuple, rep: str) -> None:
        c = self.checks
        if self.expected is None:
            self.expected = got
        else:
            c.check(got == self.expected, f"{rep}: output digests differ")
        if self.traffic is None:
            self.traffic = traffic
        else:
            c.check(traffic == self.traffic, f"{rep}: traffic counters changed")
        if self.reference is not None:
            c.check(compare_outputs(out, self.reference).bitwise_equal,
                    f"{rep}: output differs bitwise from run_reference")
            return
        d = self.dims
        points = zip(self.rng.integers(1, d.nx + 1, SPOT_POINTS),
                     self.rng.integers(1, d.ny + 1, SPOT_POINTS),
                     self.rng.integers(2, d.nz + 1, SPOT_POINTS))
        for i, j, k in points:
            i, j, k = int(i), int(j), int(k)
            for point, arr, name in ((advect_point_u, out.su.data, "su"),
                                     (advect_point_v, out.sv.data, "sv"),
                                     (advect_point_w, out.sw.data, "sw")):
                want = point(self.fields, self.coeffs, i, j, k)
                c.check(_bits(arr[i, j, k - 1]) == _bits(want),
                        f"{rep}: {name}({i},{j},{k}) differs from advect_point")

    def rep(self, label: str, tracer: Tracer | None = None) -> tuple[float, float]:
        """One timed schedule call plus checksums; (call wall, checksum wall)."""
        with maybe_active(tracer, label, HOST_PATCHES), maybe_span(tracer, "bench.rep"):
            with maybe_span(tracer, "schedules.run_schedule"):
                (out, traffic, _), wall = timed(run_schedule, self.fields, self.coeffs,
                                                self.w.spec)
            t0 = time.perf_counter()
            got = []
            for f in (out.su, out.sv, out.sw):
                with maybe_span(tracer, "grid.checksum"):
                    got.append(checksum(f))
            verify_wall = time.perf_counter() - t0
        self.verify(out, traffic, tuple(got), label)
        return wall, verify_wall


def run_untraced(workload: HostWorkload, seed: int, seconds: float, checks) -> tuple[dict, dict]:
    bench = HostBench(workload, seed, checks)
    setup = bench.setup()
    bench.prepare()
    peak = bench.peak_bytes()
    run_s, verify_s = [], []
    deadline = time.perf_counter() + seconds
    while not run_s or time.perf_counter() < deadline:
        wall, vwall = bench.rep(f"rep{len(run_s)}")
        run_s.append(wall)
        verify_s.append(vwall)
    run, verify = summarize(run_s), summarize(verify_s)
    cells = bench.dims.cells
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s_p75": run["p75"],
        "verify_s_p75": verify["p75"],
        "peak_mem_mb": peak / 1e6,
    }
    details = {
        "mcells_per_s": cells / run["median"] / 1e6,
        "run_s_median": run["median"],
        "run_s_tail": run["tail"],
        "run_s_tail_pct": run["tail_pct"],
        "run_samples": run["n"],
        "verify_s_median": verify["median"],
        "setup_samples": len(setup),
        "verify_samples": len(verify_s),
        "cells": cells,
        "schedule": dataclasses.asdict(workload.spec),
        "digests": bench.expected,
        "traffic": dataclasses.asdict(bench.traffic),
    }
    return metrics, details


def run_traced(workload: HostWorkload, seed: int, seconds: float, checks,
               tracer: Tracer) -> tuple[dict, dict]:
    bench = HostBench(workload, seed, checks)
    bench.setup(tracer)
    bench.prepare()
    copy_gbps = copy_roof_gbps(bench.dims.padded_shape)
    peak = bench.peak_bytes()
    metrics = ladder_counts(checks, seed) if workload.ladder_pass else {}

    walls = {traced: [wall for wall, _ in reps]
             for traced, reps in alternate(seconds, tracer, bench.rep).items()}

    spec, cells = workload.spec, bench.dims.cells
    setups, loop = tracer.runs("setup"), tracer.runs("rep")

    def per(groups, name):
        return sum(s.wall for spans in groups for s in spans if s.name == name) / len(groups)

    fill = per(setups, "grid.fill_fields")
    metrics["grid.lcg_doubles_s"] = per(setups, "grid.lcg_doubles")
    metrics["grid.wrap_halos_s"] = per(setups, "grid.wrap_halos")
    metrics["grid.gen_mvalues_per_s"] = 3 * cells / fill / 1e6
    checksum_s = per(loop, "grid.checksum")
    metrics["grid.checksum_s"] = checksum_s
    metrics["grid.checksum_mb_per_s"] = 3 * cells * 8 / checksum_s / 1e6

    busy = per(loop, "kernel.compute_block")
    calls = sum(1 for spans in loop for s in spans if s.name == "kernel.compute_block") / len(loop)
    untraced_wall = statistics.median(walls[False])
    metrics["kernel.compute_block_s"] = busy
    metrics["kernel.compute_block_calls"] = calls
    metrics["kernel.cells_per_call"] = cells / calls if calls else 0.0
    metrics["kernel.peak_temp_fields"] = peak / bench.field_bytes
    metrics["kernel.gflops"] = FLOPS_PER_CELL * cells / busy / 1e9 if busy else 0.0
    metrics["kernel.copy_roof_gbps"] = copy_gbps
    metrics["kernel.roofline_frac"] = (COMPULSORY_BYTES_PER_CELL * cells / untraced_wall / 1e9
                                      / copy_gbps)
    metrics["kernel.compulsory_bytes_per_cell"] = COMPULSORY_BYTES_PER_CELL

    moves, shares, threads, skews = [], [], [], []
    for spans in loop:
        wall = next(s.wall for s in spans if s.name == "schedules.run_schedule")
        per_thread = {}
        for s in spans:
            if s.name == "kernel.compute_block":
                per_thread[s.thread] = per_thread.get(s.thread, 0.0) + s.wall
        rep_busy = sum(per_thread.values())
        moves.append(spec.engines * wall - rep_busy)
        shares.append(rep_busy / (spec.engines * wall))
        threads.append(len(per_thread))
        skews.append(max(per_thread.values()) / min(per_thread.values()) if per_thread else 0.0)
    tc = bench.traffic
    metrics["schedules.move_s"] = statistics.median(moves)
    metrics["schedules.compute_share"] = statistics.median(shares)
    metrics["schedules.worker_threads"] = max(threads)
    metrics["schedules.engine_skew"] = statistics.median(skews)
    metrics["schedules.ext_reads_per_cell"] = tc.external_reads / cells
    metrics["schedules.ext_writes_per_cell"] = tc.external_writes / cells
    metrics["schedules.local_moves_per_cell"] = (tc.local_reads + tc.local_writes) / cells
    metrics["schedules.scratch_kb_peak"] = tc.scratch_bytes_peak / 1024

    metrics.update(tracer.layer_self_s(loop, ("grid", "kernel", "schedules")))
    traced_wall = statistics.median(walls[True])
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    metrics["trace.spans"] = len(tracer.spans)
    details = {
        "mcells_per_s_untraced": cells / untraced_wall / 1e6,
        "mcells_per_s_traced": cells / traced_wall / 1e6,
        "untraced_samples": len(walls[False]),
        "traced_samples": len(walls[True]),
        "copy_array_bytes": bench.field_bytes,
        "labels": {
            "kernel.compulsory_bytes_per_cell": "computed: 3 reads + 3 writes of 8 B",
            "kernel.roofline_frac": "computed bytes / measured wall / measured copy rate",
            "schedules.*_per_cell": "counted by the schedules' traffic counters",
            "schedules.ladder.plane_residual": "known residual: measured plane moves "
                                               "per cell minus the model's arrays_per_xstep",
        },
    }
    return metrics, details
