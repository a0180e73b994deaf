"""Command-line harness: bench, model, sweep, calibrate, validate.

Exit codes: 0 success, 1 validation or benchmark failure, 2 usage error.
Report files are CSV (frozen column order, header row) or JSON mirrors of
the same rows; reruns of one config differ only in timing fields and host
metadata. The PWADVECT_PARAMS environment variable supplies a default
parameter file; --params overrides it.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import platform
import statistics
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields, replace
from functools import cache
from pathlib import Path

import numpy as np

from .dataflow import calibrate, check_observation, kernel_time, pipeline_cycles, pipeline_latency
from .grid import GeneratorSpec, GridDims, check_config, check_count, checksums, fill_fields
from .kernel import default_coefficients, evaluator
from .params import ModelParams, ParamError, dump_params, load_params
from .refdata import (
    BATCH_ELEMENTS, BATCHED_PIPE, COLUMN_LENGTH, COLUMN_PIPE, DATA_SOURCE, DMA_FRACTION_FLOOR,
    DMA_TABLE, DMA_TABLE_BYTES, EXTRACTED_PIPE, GRID_LADDER, GRID_LARGEST, GRID_STRATUS,
    HEADLINE, RETIMED_PIPE, ReferenceValue,
)
from .schedules import VARIANTS, ScheduleSpec, run_schedule
from .transfer import ModelReport, dma_time, end_to_end, factor_cells, transfer_volume

MODEL_COLUMNS = ("cells", "nx", "ny", "nz",
                 *(f.name for f in fields(ModelReport) if f.name != "cells"))
BENCH_COLUMNS = ("schedule", "engines", "y_batch", "nx", "ny", "nz", "reps",
                 "wall_min_s", "wall_mean_s", "wall_all_s",
                 "checksum_su", "checksum_sv", "checksum_sw",
                 "external_reads", "external_writes", "local_reads", "local_writes",
                 "scratch_bytes_peak", "kernel", "host")

_SCHEDULE_NAMES = {v.replace("_", ""): v for v in VARIANTS}


def _canon_schedule(name: str) -> str:
    key = name.lower().replace("-", "").replace("_", "")
    if key not in _SCHEDULE_NAMES:
        raise argparse.ArgumentTypeError(
            f"unknown schedule {name!r}; choose from {sorted(_SCHEDULE_NAMES)}")
    return _SCHEDULE_NAMES[key]


def _parse_grid(text: str):
    try:
        nx, ny, nz = (int(part) for part in text.lower().split("x"))
        return GridDims(nx, ny, nz)
    except Exception as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r} (want NXxNYxNZ): {exc}")


def _resolve_dims(args, parser):
    if getattr(args, "grid", None) is not None and getattr(args, "cells", None) is not None:
        parser.error("give either --grid or --cells, not both")
    if getattr(args, "grid", None) is not None:
        return args.grid
    if getattr(args, "cells", None) is not None:
        return factor_cells(args.cells)
    parser.error("one of --grid or --cells is required")


def _host_description() -> str:
    return f"{platform.platform()} python{platform.python_version()} numpy{np.__version__}"


def _write_rows(rows, columns, out: str | None, fmt: str | None) -> None:
    """Rows as `fmt` to stdout, or to the file `out`; with no `fmt`, as an
    aligned table to stdout and as CSV to a file."""
    fmt = fmt or (None if out is None else "csv")
    if fmt == "json":
        text = json.dumps([{c: r.get(c) for c in columns} for r in rows], indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows([columns, *([_cell(r.get(c)) for c in columns] for r in rows)])
        text = buf.getvalue()
    else:
        widths = {c: max(len(c), *(len(_cell(r.get(c))) for r in rows)) for c in columns}
        text = "".join("  ".join(cells) + "\n" for cells in (
            [c.ljust(widths[c]) for c in columns],
            *([_cell(r.get(c)).ljust(widths[c]) for c in columns] for r in rows)))
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    with path.open("w", newline="") as fh:
        fh.write(text)
    print(f"wrote {len(rows)} row(s) to {path} ({fmt})")


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return "" if value is None else str(value)


def _load(args, parser) -> ModelParams:
    try:
        return load_params(args.params)
    except (ParamError, OSError) as exc:
        parser.error(str(exc))


@contextmanager
def _usage_errors(parser):
    """Report a ValueError or OverflowError from a configuration check, or an
    OSError from writing an --out file, as exit 2."""
    try:
        yield
    except (ValueError, OverflowError, OSError) as exc:
        parser.error(str(exc))


def _report(p: ModelParams, dims, engines: int):
    return end_to_end(dims, engines, p.pipeline, p.memory, p.dma, p.y_batch, p.flops,
                      p.controllers)


def _check_y_batch(p: ModelParams, dims) -> None:
    """check_config's y_batch rule, naming the parameter-file key: no option sets y_batch."""
    try:
        check_config(dims, 1, p.y_batch)
    except ValueError as exc:
        raise ValueError(f"{exc} (parameter-file key model.y_batch)") from None


def _model_row(p: ModelParams, dims, engines: int) -> dict:
    _check_y_batch(p, dims)
    return {**_report(p, dims, engines).as_row(), "nx": dims.nx, "ny": dims.ny, "nz": dims.nz}


# -- bench -------------------------------------------------------------------

def cmd_bench(args, parser) -> int:
    with _usage_errors(parser):
        check_count("--reps", args.reps)
        dims = _resolve_dims(args, parser)
    gen = {"uniform": GeneratorSpec.uniform(1.0, 1.1, 0.9),
           "trig": GeneratorSpec.trig(),
           "random": GeneratorSpec.random(args.seed)}[args.gen]
    try:
        fields = fill_fields(dims, gen)
    except (ValueError, MemoryError) as exc:  # numpy: "array is too big", "Unable to allocate"
        parser.error(f"cannot allocate the {dims.nx}x{dims.ny}x{dims.nz} fields: {exc}")
    coeffs = default_coefficients(dims.nz)
    rows, failures = [], []
    host = _host_description()
    # the default y_batch shrinks to fit ny; an explicit one must fit already
    y_batch = min(64, dims.ny) if args.y_batch is None else args.y_batch
    for variant in args.schedule or ["reference"]:
        with _usage_errors(parser):
            spec = ScheduleSpec(variant, y_batch=y_batch, engines=args.engines)
            spec.validate(dims)
        walls, sums, traffic = [], None, None
        for _ in range(args.reps):
            out, tc, wall = run_schedule(fields, coeffs, spec)
            walls.append(wall)
            digest = tuple(checksums((out.su, out.sv, out.sw)))
            if sums is None:
                sums, traffic = digest, tc
            elif sums != digest:
                failures.append(f"{variant}: checksum changed between repetitions")
            elif traffic != tc:
                failures.append(f"{variant}: traffic counters changed between repetitions")
        rows.append({
            "schedule": variant, "engines": spec.engines, "y_batch": spec.y_batch,
            "nx": dims.nx, "ny": dims.ny, "nz": dims.nz, "reps": args.reps,
            "wall_min_s": min(walls), "wall_mean_s": statistics.fmean(walls),
            "wall_all_s": ";".join(f"{w:.6g}" for w in walls),
            "checksum_su": sums[0], "checksum_sv": sums[1], "checksum_sw": sums[2],
            **asdict(traffic), "kernel": evaluator(), "host": host,
        })
    digests = {(r["checksum_su"], r["checksum_sv"], r["checksum_sw"]) for r in rows}
    if len(digests) > 1:
        failures.append("schedules disagree on output checksums")
    with _usage_errors(parser):
        _write_rows(rows, BENCH_COLUMNS, args.out, args.format)
    for msg in failures:
        print(f"FAIL {msg}", file=sys.stderr)
    return 1 if failures else 0


# -- model / sweep -----------------------------------------------------------

def cmd_model(args, parser) -> int:
    p = _load(args, parser)
    with _usage_errors(parser):
        row = _model_row(p, _resolve_dims(args, parser), args.engines)
        _write_rows([row], MODEL_COLUMNS, args.out, args.format)
    return 0


def _list_parser(cast):
    def parse(text: str) -> list:
        values = [cast(part) for part in text.split(",") if part.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"empty list {text!r}")
        return values
    return parse


def cmd_sweep(args, parser) -> int:
    p = _load(args, parser)
    if args.cells_list and (args.grid is not None or args.cells is not None
                            or len(args.engines) > 1):
        parser.error("--cells-list takes one --engines value and no --grid or --cells")
    with _usage_errors(parser):
        if args.cells_list:
            points = [(factor_cells(cells), args.engines[0]) for cells in args.cells_list]
        else:
            dims = _resolve_dims(args, parser)
            points = [(dims, engines) for engines in args.engines]
        rows = [_model_row(p, dims, engines) for dims, engines in points]
        _write_rows(rows, MODEL_COLUMNS, args.out, args.format)
    return 0


# -- calibrate ----------------------------------------------------------------

def _builtin_observations(p: ModelParams):
    t_large = GRID_LARGEST.cells * p.flops.total_per_cell / (HEADLINE["gflops_kernel"].value * 1e9)
    return [
        (GRID_LADDER, 1, HEADLINE["ladder_final_ms"].value / 1e3),
        (GRID_LARGEST, 12, t_large),
    ]


def cmd_calibrate(args, parser) -> int:
    p = _load(args, parser)
    if args.obs:
        try:
            raw = json.loads(Path(args.obs).read_text())
            observations = [(_parse_grid(o["grid"]), o["engines"], float(o["seconds"]))
                            for o in raw]
            for observation in observations:
                check_observation(*observation)  # y_batch: below, for every observation
        except (OSError, ValueError, KeyError, TypeError, argparse.ArgumentTypeError) as exc:
            parser.error(f"bad observations file {args.obs}: {exc}")
    else:
        observations = _builtin_observations(p)
    with _usage_errors(parser):
        for dims, _, _ in observations:
            _check_y_batch(p, dims)
    try:
        result = calibrate(observations, p.pipeline, p.y_batch, p.controllers, base=p.memory)
    except ValueError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return 1
    print(f"eff_bandwidth_1 = {result.model.eff_bandwidth_1!r}")
    print(f"contention      = {result.model.contention!r}")
    for (dims, engines, seconds), resid in zip(observations, result.relative_residuals):
        print(f"  obs {dims.nx}x{dims.ny}x{dims.nz} engines={engines} "
              f"observed={seconds:.6g}s residual={resid:+.3e}")
    if args.out:
        with _usage_errors(parser):
            Path(args.out).write_text(dump_params(replace(p, memory=result.model)))
        print(f"wrote fitted parameters to {args.out}")
    return 0


# -- validate ------------------------------------------------------------------

def _check(name, ref: ReferenceValue, got, detail):
    return name, ref.matches(got), detail, ref.citation


def _within(ref: ReferenceValue, unit: str = "", scale: float = 1) -> str:
    """`ref` for a label: its value over `scale` in `unit` and its relative
    tolerance, or for unit "%" a fraction and its tolerance in points."""
    if unit == "%":
        return f"{ref.value * 100:g}% +/- {ref.rel_tol * ref.value * 100:g}"
    return f"{ref.value / scale:g}{unit} +/- {ref.rel_tol * 100:g}%"


def _validation_checks(p: ModelParams):
    """Yields (name, ok, detail, citation) for every published-anchor identity.

    Each modelled value is compared with its refdata entry, so the anchors,
    their tolerances and the numbers in the names are stated only there.
    """
    h = HEADLINE
    col = pipeline_cycles(COLUMN_PIPE, COLUMN_LENGTH)
    total, full = h["column_run_total_cycles"], h["column_run_full_cycles"]
    yield (f"pipeline per-column run: {total.value} total / {full.value} full cycles",
           total.matches(col.total_cycles) and full.matches(col.full_cycles),
           f"got {col.total_cycles}/{col.full_cycles}", total.citation)
    yield _check(f"pipeline per-column utilisation: {_within(h['column_run_utilization'], '%')}",
                 h["column_run_utilization"], col.utilization, f"got {col.utilization:.2%}")
    batched = pipeline_cycles(BATCHED_PIPE, BATCH_ELEMENTS)
    yield _check(f"pipeline batched run: {h['batched_run_total_cycles'].value} total cycles",
                 h["batched_run_total_cycles"], batched.total_cycles,
                 f"got {batched.total_cycles}")
    yield _check(f"pipeline batched utilisation: {_within(h['batched_run_utilization'], '%')}",
                 h["batched_run_utilization"], batched.utilization,
                 f"got {batched.utilization:.2%}")
    for pipe, key in ((EXTRACTED_PIPE, "latency_extracted"), (RETIMED_PIPE, "latency_retimed")):
        lat, ref = pipeline_latency(pipe), h[key]
        name = f"latency {pipe.depth} stages at {1e9 / pipe.clock_hz:g} ns == {ref.value!r} s"
        yield _check(name.replace("e-0", "e-"), ref, lat, f"got {lat!r}")

    cells = f"{GRID_LARGEST.cells / 1e6:.1f}M cells"
    vol2 = transfer_volume(GRID_LARGEST, "both")
    yield _check(f"round-trip volume at {cells}: {_within(h['volume_both_gb'], ' GB', 1e9)}",
                 h["volume_both_gb"], vol2, f"got {vol2/1e9:.4g} GB")
    vol1 = transfer_volume(GRID_LARGEST, "to_card")
    yield _check(f"one-way volume at {cells}: {_within(h['volume_one_way_gb'], ' GB', 1e9)}",
                 h["volume_one_way_gb"], vol1, f"got {vol1/1e9:.4g} GB")
    t_dma = dma_time(h["volume_both_gb"].value, p.dma, "end_to_end")
    yield _check(f"{h['volume_both_gb'].value / 1e9:g} GB at end-to-end rate: "
                 f"{_within(h['dma_round_trip_seconds'], ' s')}",
                 h["dma_round_trip_seconds"], t_dma, f"got {t_dma:.4g} s")

    for topo, ref in DMA_TABLE.items():
        t = dma_time(DMA_TABLE_BYTES, p.dma, topo)
        yield _check(f"DMA {DMA_TABLE_BYTES / 1e9:g} GB, {topo}: {ref.value * 1e3:.0f} ms exactly",
                     ref, t, f"got {t!r}")

    t_ladder = kernel_time(GRID_LADDER, p.pipeline, p.memory, p.y_batch, 1, p.controllers)
    nx, ny, nz = GRID_LADDER.nx, GRID_LADDER.ny, GRID_LADDER.nz
    yield _check(f"kernel time {nx}x{ny}x{nz}, one engine: {_within(h['ladder_final_ms'], ' ms')}",
                 h["ladder_final_ms"], t_ladder * 1e3, f"got {t_ladder * 1e3:.1f} ms")
    rep = _report(p, GRID_LARGEST, 12)
    yield _check(f"kernel GFLOP/s at {cells}, 12 engines: {_within(h['gflops_kernel'])}",
                 h["gflops_kernel"], rep.gflops_kernel, f"got {rep.gflops_kernel:.2f}")
    yield _check(f"total GFLOP/s at {cells}, 12 engines: {_within(h['gflops_total'])}",
                 h["gflops_total"], rep.gflops_total, f"got {rep.gflops_total:.2f}")

    fractions = [_report(p, GRID_STRATUS, e).dma_fraction for e in range(1, 13)]
    cite = h["dma_fraction_12"].citation
    # literal: GRID_STRATUS holds 66.3M cells, and "67M" is the study's name for the case
    yield (f"DMA fraction at 67M cells, 12 engines: >= {DMA_FRACTION_FLOOR:g}",
           fractions[-1] >= DMA_FRACTION_FLOOR, f"got {fractions[-1]:.3f}", cite)
    monotone = all(a <= b + 1e-15 for a, b in zip(fractions, fractions[1:]))
    yield ("DMA fraction non-decreasing over engines 1..12",
           monotone, f"got {', '.join(f'{f:.3f}' for f in fractions)}", cite)


def cmd_validate(args, parser) -> int:
    p = _load(args, parser)
    print(f"validating against: {DATA_SOURCE}")
    failures = 0
    for name, ok, detail, citation in _validation_checks(p):
        print(f"{'PASS' if ok else 'FAIL'}  {name}  [{detail}]  <{citation}>")
        failures += 0 if ok else 1
    if failures:
        print(f"FAILED: {failures} failing check(s)")
        return 1
    print("OK: all checks passed")
    return 0


# -- parser ---------------------------------------------------------------------

def _add_output_args(sub):
    sub.add_argument("--out", metavar="FILE", help="write report rows to FILE")
    sub.add_argument("--format", choices=("csv", "json"),
                     help="format of the rows; default: CSV in --out FILE, else an aligned table")


def _add_common_model_args(sub):
    sub.add_argument("--params", metavar="FILE", help="parameter file (see model-defaults.params)")
    _add_output_args(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwadvect", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    bench = subs.add_parser("bench", help="run schedules on the host and report timings/traffic")
    bench.add_argument("--grid", type=_parse_grid, metavar="NXxNYxNZ")
    bench.add_argument("--cells", type=float, help="cell count; cube-ish grid is derived")
    bench.add_argument("--schedule", action="append", type=_canon_schedule,
                       metavar="NAME", help="repeatable; default reference")
    bench.add_argument("--engines", type=int, default=1)
    bench.add_argument("--y-batch", type=int, dest="y_batch",
                       help="Y batch of y_batched/x_reordered, at most ny; default min(64, ny)")
    bench.add_argument("--gen", choices=("uniform", "trig", "random"), default="random")
    bench.add_argument("--seed", type=int, default=42)
    bench.add_argument("--reps", type=int, default=5)
    _add_output_args(bench)
    bench.set_defaults(func=cmd_bench)

    model = subs.add_parser("model", help="predict kernel/DMA/total time for one configuration")
    model.add_argument("--grid", type=_parse_grid, metavar="NXxNYxNZ")
    model.add_argument("--cells", type=float)
    model.add_argument("--engines", type=int, default=1)
    _add_common_model_args(model)
    model.set_defaults(func=cmd_model)

    sweep = subs.add_parser("sweep", help="model a sweep over engine counts or grid sizes")
    sweep.add_argument("--grid", type=_parse_grid, metavar="NXxNYxNZ")
    sweep.add_argument("--cells", type=float)
    sweep.add_argument("--engines", type=_list_parser(int), default=[1],
                       metavar="E1,E2,...", help="engine counts")
    sweep.add_argument("--cells-list", type=_list_parser(float), dest="cells_list",
                       metavar="N1,N2,...", help="grid-size sweep at one --engines count")
    _add_common_model_args(sweep)
    sweep.set_defaults(func=cmd_sweep)

    cal = subs.add_parser("calibrate", help="fit bandwidth/contention to observed kernel times")
    cal.add_argument("--obs", metavar="FILE",
                     help='JSON [{"grid": "512x512x64", "engines": 1, "seconds": 0.51}, ...];'
                          " default: built-in published anchors")
    cal.add_argument("--params", metavar="FILE", help="parameter file (see model-defaults.params)")
    cal.add_argument("--out", metavar="FILE", help="write the fitted parameter file to FILE")
    cal.set_defaults(func=cmd_calibrate)

    val = subs.add_parser("validate", help="check every published-anchor identity; exit 0 iff all hold")
    val.add_argument("--params", metavar="FILE")
    val.set_defaults(func=cmd_validate)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process. argparse links every
    action back to its container, so a parser built per call would leave
    about 300 objects of cyclic garbage behind each in-process `main`."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
