import argparse
import contextlib
import csv
import dataclasses
import gc
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwadvect import cli
from pwadvect.cli import _list_parser, _parse_grid, main
from pwadvect.grid import GridDims, check_config
from pwadvect.params import ModelParams
from pwadvect.refdata import HEADLINE


def run_cli(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse errors
        return exc.code


# `validate` stdout with the default parameters; the text is frozen, so a
# change to any label, citation, value format or verdict shows here
VALIDATE_TEXT = (
    "validating against: published PW-advection HLS port study (ADM8K5 / KU115-2)\n"
    "PASS  pipeline per-column run: 199 total / 57 full cycles  [got 199/57]"
    "  <pipeline report: 71-deep, II=2, 64-element column>\n"
    "PASS  pipeline per-column utilisation: 28.6% +/- 0.5  [got 28.64%]"
    "  <pipeline report: 28% full>\n"
    "PASS  pipeline batched run: 4167 total cycles  [got 4167]"
    "  <pipeline report: 64-column batch, II=1>\n"
    "PASS  pipeline batched utilisation: 96.6% +/- 0.5  [got 96.59%]"
    "  <pipeline report: 97% full>\n"
    "PASS  latency 65 stages at 4 ns == 2.6e-7 s  [got 2.6e-07]"
    "  <retiming note: 2.6e-7 s before clock tuning>\n"
    "PASS  latency 72 stages at 3.2 ns == 2.304e-7 s  [got 2.304e-07]"
    "  <retiming note: 2.3e-7 s after clock tuning>\n"
    "PASS  round-trip volume at 268.3M cells: 12.88 GB +/- 1%  [got 12.88 GB]"
    "  <largest-case note: 12.88 GB transferred>\n"
    "PASS  one-way volume at 268.3M cells: 6.44 GB +/- 1%  [got 6.439 GB]"
    "  <grid-size note: 6.44 GB of field data>\n"
    "PASS  12.88 GB at end-to-end rate: 2.2 s +/- 2%  [got 2.202 s]"
    "  <largest-case note: 12.88 GB takes 2.2 s (5.85 GB/s)>\n"
    "PASS  DMA 1.6 GB, split_banks_4ch: 232 ms exactly  [got 0.232]"
    "  <DMA configuration table: 'Design described here'>\n"
    "PASS  DMA 1.6 GB, one_controller_4ch: 280 ms exactly  [got 0.28]"
    "  <DMA configuration table: 'One memory controller only'>\n"
    "PASS  DMA 1.6 GB, connected_controllers_4ch: 239 ms exactly  [got 0.239]"
    "  <DMA configuration table: 'Two memory controllers connected'>\n"
    "PASS  DMA 1.6 GB, one_ch_per_controller: 342 ms exactly  [got 0.342]"
    "  <DMA configuration table: 'One DMA channel per memory controller'>\n"
    "PASS  kernel time 512x512x64, one engine: 514.9 ms +/- 5%  [got 514.9 ms]"
    "  <kernel optimisation ladder row: 'Tune double precision cores and clock to 310Mhz'>\n"
    "PASS  kernel GFLOP/s at 268.3M cells, 12 engines: 14.36 +/- 5%  [got 14.36]"
    "  <scaling note: HLS kernel provides 14.36 GFLOP/s>\n"
    "PASS  total GFLOP/s at 268.3M cells, 12 engines: 4.2 +/- 10%  [got 4.46]"
    "  <scaling note: drops to 4.2 GFLOP/s with DMA included>\n"
    "PASS  DMA fraction at 67M cells, 12 engines: >= 0.65  [got 0.689]"
    "  <breakdown note: 70% of total time in DMA transfer; checked as >= 0.65>\n"
    "PASS  DMA fraction non-decreasing over engines 1..12"
    "  [got 0.211, 0.348, 0.427, 0.499, 0.536, 0.581, 0.600, 0.632, 0.642, 0.665, 0.671, 0.689]"
    "  <breakdown note: 70% of total time in DMA transfer; checked as >= 0.65>\n"
    "OK: all checks passed\n"
)


def test_validate_passes_with_defaults(capsys):
    assert run_cli("validate") == 0
    assert capsys.readouterr().out == VALIDATE_TEXT


def test_validate_names_failing_check_on_perturbed_depth(tmp_path, capsys):
    f = tmp_path / "p.params"
    f.write_text("pipeline.depth = 3000\n")
    assert run_cli("validate", "--params", str(f)) == 1
    out = capsys.readouterr().out
    assert "FAIL  kernel time 512x512x64, one engine: 514.9 ms +/- 5%" in out


def test_validate_compares_against_refdata(monkeypatch, capsys):
    monkeypatch.setitem(HEADLINE, "gflops_kernel",
                        dataclasses.replace(HEADLINE["gflops_kernel"], value=20.0))
    assert run_cli("validate") == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL  ")]
    assert len(fails) == 1
    assert fails[0].startswith("FAIL  kernel GFLOP/s at 268.3M cells, 12 engines: 20 +/- 5%  ")


def test_repeated_main_leaves_no_cyclic_garbage(capsys):
    run_cli("validate")
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            assert run_cli("validate") == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_repeated_main_calls_do_not_share_state(tmp_path):
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    assert run_cli("sweep", "--grid", "64x64x64", "--engines", "1,2", "--out", str(one)) == 0
    assert run_cli("sweep", "--grid", "64x64x64", "--out", str(two)) == 0
    assert run_cli("bench", "--grid", "4x4x4", "--reps", "0") == 2
    with open(one) as f1, open(two) as f2:
        rows1, rows2 = list(csv.DictReader(f1)), list(csv.DictReader(f2))
    assert [r["engines"] for r in rows1] == ["1", "2"]
    assert rows2 == rows1[:1]


def test_validate_missing_params_file_is_usage_error(capsys):
    assert run_cli("validate", "--params", "/definitely/not/here.params") == 2


def test_out_of_range_params_file_is_usage_error(tmp_path, capsys):
    f = tmp_path / "zero.params"
    f.write_text("model.y_batch = 0\n")
    for argv in (("model", "--grid", "64x64x64"), ("sweep", "--grid", "64x64x64"),
                 ("validate",)):
        assert run_cli(*argv, "--params", str(f)) == 2
        assert f"{f}:1: model.y_batch = 0 must be >= 1" in capsys.readouterr().err


def test_bench_two_schedules_equal_checksums(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = run_cli("bench", "--grid", "12x10x6", "--schedule", "reference",
                   "--schedule", "x_reordered", "--reps", "2", "--seed", "5",
                   "--y-batch", "4", "--out", str(out))
    assert code == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["schedule"] for r in rows] == ["reference", "x_reordered"]
    assert rows[0]["checksum_su"] == rows[1]["checksum_su"]
    assert rows[0]["checksum_sw"] == rows[1]["checksum_sw"]
    assert int(rows[1]["external_reads"]) < int(rows[0]["external_reads"])


def test_bench_minimal_grid(capsys):
    assert run_cli("bench", "--grid", "1x1x2", "--schedule", "reference", "--reps", "1") == 0
    out = capsys.readouterr().out
    assert "reference" in out


def test_bench_traffic_report_in_output(tmp_path):
    out = tmp_path / "bench.json"
    code = run_cli("bench", "--grid", "16x8x4", "--schedule", "x_reordered",
                   "--engines", "4", "--y-batch", "8", "--reps", "1",
                   "--out", str(out), "--format", "json")
    assert code == 0
    rows = json.loads(out.read_text())
    assert rows[0]["engines"] == 4
    assert rows[0]["scratch_bytes_peak"] == 9 * (8 + 2) * 4 * 8  # three 3-plane rings


def _rows(text: str, fmt: str) -> list[dict]:
    """Report rows parsed from `text`, without the fields that vary per run."""
    rows = json.loads(text) if fmt == "json" else list(csv.DictReader(io.StringIO(text)))
    return [{k: v for k, v in r.items() if not k.startswith("wall_")} for r in rows]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv, columns", [
    (("bench", "--grid", "6x5x4", "--reps", "1"), cli.BENCH_COLUMNS),
    (("model", "--grid", "64x64x64", "--engines", "2"), cli.MODEL_COLUMNS),
])
def test_format_applies_to_stdout(tmp_path, capsys, argv, columns, fmt):
    path = tmp_path / f"rows.{fmt}"
    assert run_cli(*argv, "--out", str(path), "--format", fmt) == 0
    assert capsys.readouterr().out == f"wrote 1 row(s) to {path} ({fmt})\n"
    saved = path.read_text()
    assert run_cli(*argv, "--format", fmt) == 0
    printed = capsys.readouterr().out
    assert _rows(printed, fmt) == _rows(saved, fmt)
    assert list(_rows(printed, fmt)[0]) == [c for c in columns if not c.startswith("wall_")]
    # without --format, stdout keeps the aligned table
    assert run_cli(*argv) == 0
    assert capsys.readouterr().out.split("\n")[0].split() == list(columns)


def test_bench_fails_when_a_repetition_changes_the_digest(monkeypatch, capsys):
    run, calls = cli.run_schedule, []

    def drifting(fields, coeffs, spec):
        out, tc, wall = run(fields, coeffs, spec)
        calls.append(spec)
        out.sv.data[1, 1, -1] += len(calls) - 1  # the second repetition differs
        return out, tc, wall

    monkeypatch.setattr(cli, "run_schedule", drifting)
    assert run_cli("bench", "--grid", "4x4x4", "--reps", "2") == 1
    assert len(calls) == 2
    assert capsys.readouterr().err == "FAIL reference: checksum changed between repetitions\n"


def test_bench_fails_when_a_repetition_changes_the_traffic(monkeypatch, capsys):
    run, calls = cli.run_schedule, []

    def miscounting(fields, coeffs, spec):
        out, tc, wall = run(fields, coeffs, spec)
        calls.append(spec)
        # the second repetition counts one more local read, same outputs
        return out, dataclasses.replace(tc, local_reads=tc.local_reads + len(calls) - 1), wall

    monkeypatch.setattr(cli, "run_schedule", miscounting)
    assert run_cli("bench", "--grid", "4x4x4", "--reps", "2") == 1
    assert len(calls) == 2
    assert capsys.readouterr().err == (
        "FAIL reference: traffic counters changed between repetitions\n")


def test_bench_reps_write_into_the_outputs_the_rep_before_let_go(monkeypatch, capsys):
    run, where = cli.run_schedule, []

    def recording(fields, coeffs, spec):
        out, tc, wall = run(fields, coeffs, spec)
        where.append(tuple(f.data.ctypes.data for f in (out.su, out.sv, out.sw)))
        return out, tc, wall

    monkeypatch.setattr(cli, "run_schedule", recording)
    assert run_cli("bench", "--grid", "8x6x4", "--reps", "3",
                   "--schedule", "reference", "--schedule", "x_reordered") == 0
    assert len(where) == 6 and len(set(where)) == 1


def test_bench_fails_when_schedules_disagree(monkeypatch, capsys):
    run = cli.run_schedule

    def one_off(fields, coeffs, spec):
        out, tc, wall = run(fields, coeffs, spec)
        if spec.variant == "y_batched":  # the same wrong bit in every repetition
            out.su.data[2, 2, -1] += 1.0
        return out, tc, wall

    monkeypatch.setattr(cli, "run_schedule", one_off)
    assert run_cli("bench", "--grid", "4x4x4", "--reps", "2",
                   "--schedule", "reference", "--schedule", "y_batched") == 1
    captured = capsys.readouterr()
    assert captured.err == "FAIL schedules disagree on output checksums\n"
    # both rows are still reported
    assert "reference" in captured.out and "y_batched" in captured.out


def test_bench_rejects_bad_schedule(capsys):
    # a schedule is named as its rows name it; no other spelling folds into one
    for name in ("quantum", "xreordered"):
        assert run_cli("bench", "--grid", "4x4x4", "--schedule", name) == 2
        assert capsys.readouterr().err.endswith(
            f"argument --schedule: invalid choice: {name!r} (choose from 'reference', "
            "'column_buffered', 'y_batched', 'x_reordered')\n")


def test_bench_checks_every_schedule_before_it_works(monkeypatch, capsys):
    # a bad second schedule is found before any field exists or any schedule runs
    monkeypatch.setattr(cli, "fill_fields", lambda dims, spec: pytest.fail("fields generated"))
    monkeypatch.setattr(cli, "run_schedule", lambda *args: pytest.fail("schedule run"))
    for argv, (dims, engines, y_batch) in (
            (("--grid", "8x64x8", "--schedule", "reference", "--schedule", "y_batched",
              "--y-batch", "128"), ((8, 64, 8), 1, 128)),
            (("--grid", "4x4x4", "--engines", "5"), ((4, 4, 4), 5, 4))):
        with pytest.raises(ValueError) as rule:
            check_config(GridDims(*dims), engines, y_batch)
        assert run_cli("bench", *argv) == 2
        assert capsys.readouterr().err.endswith(f"\npwadvect bench: error: {rule.value}\n")


def test_bench_checks_its_out_file_before_it_works(tmp_path, monkeypatch, capsys):
    # a report file that cannot be opened is found before any field exists
    missing = tmp_path / "no-such-dir" / "x.csv"
    with monkeypatch.context() as m:
        m.setattr(cli, "fill_fields", lambda dims, spec: pytest.fail("fields generated"))
        assert run_cli("bench", "--grid", "256x64x64", "--schedule", "reference",
                       "--schedule", "x_reordered", "--out", str(missing)) == 2
    assert capsys.readouterr().err.endswith(
        f"\npwadvect bench: error: [Errno 2] No such file or directory: '{missing}'\n")
    # a file that can be opened is left whole until the run writes its rows over it
    out = tmp_path / "x.csv"
    out.write_text("old rows\n")
    assert run_cli("bench", "--grid", "4x4x4", "--reps", "1", "--out", str(out)) == 0
    assert out.read_text().startswith(",".join(cli.BENCH_COLUMNS) + "\n")
    assert "old rows" not in out.read_text()


def test_bench_reports_are_deterministic_modulo_timing(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run_cli("bench", "--grid", "8x8x4", "--schedule", "y_batched",
                       "--y-batch", "4", "--reps", "2", "--out", str(path),
                       "--format", "json") == 0
    strip = lambda rows: [
        {k: v for k, v in r.items() if not k.startswith("wall_") and k != "host"}
        for r in rows]
    assert strip(json.loads(a.read_text())) == strip(json.loads(b.read_text()))


def test_model_headline_numbers(tmp_path):
    out = tmp_path / "model.json"
    assert run_cli("model", "--cells", "268.3e6", "--engines", "12",
                   "--out", str(out), "--format", "json") == 0
    row = json.loads(out.read_text())[0]
    assert row["gflops_kernel"] == pytest.approx(14.36, rel=0.05)
    assert row["dma_seconds"] == pytest.approx(2.2, rel=0.02)


def test_model_ladder_grid(tmp_path):
    out = tmp_path / "model.json"
    assert run_cli("model", "--grid", "512x512x64", "--engines", "1",
                   "--out", str(out), "--format", "json") == 0
    row = json.loads(out.read_text())[0]
    assert row["kernel_seconds"] == pytest.approx(0.5149, rel=0.05)


def test_model_zero_cells(capsys):
    assert run_cli("model", "--cells", "0") == 2
    assert "cell count" in capsys.readouterr().err


def test_model_requires_grid_or_cells():
    assert run_cli("model") == 2
    assert run_cli("model", "--grid", "4x4x4", "--cells", "1e6") == 2


def test_sweep_engines_fraction_crossing(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--cells", "67e6", "--engines",
                   "1,2,3,4,5,6,7,8,9,10,11,12", "--out", str(out)) == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    fractions = [float(r["dma_fraction"]) for r in rows]
    assert all(a <= b for a, b in zip(fractions, fractions[1:]))
    crossing = next(i + 1 for i, f in enumerate(fractions) if f >= 0.5)
    assert 2 <= crossing <= 6
    kernels = [float(r["kernel_seconds"]) for r in rows]
    assert kernels[0] > kernels[-1]
    assert len({r["dma_seconds"] for r in rows}) == 1


def test_sweep_single_point_matches_model(tmp_path):
    a, b = tmp_path / "sweep.json", tmp_path / "model.json"
    assert run_cli("sweep", "--grid", "512x512x64", "--engines", "4",
                   "--out", str(a), "--format", "json") == 0
    assert run_cli("model", "--grid", "512x512x64", "--engines", "4",
                   "--out", str(b), "--format", "json") == 0
    assert json.loads(a.read_text()) == json.loads(b.read_text())
    # a sweep is every grid x every engine count, grid-major, each row its single point
    assert run_cli("sweep", "--cells", "1e6,4e6", "--engines", "1,12",
                   "--out", str(a), "--format", "json") == 0
    rows = json.loads(a.read_text())
    points = [(cells, engines) for cells in ("1e6", "4e6") for engines in ("1", "12")]
    assert len(rows) == len(points) == 4
    for row, (cells, engines) in zip(rows, points):
        assert run_cli("sweep", "--cells", cells, "--engines", engines,
                       "--out", str(b), "--format", "json") == 0
        assert json.loads(b.read_text()) == [row]


def test_sweep_grid_series_monotone(tmp_path):
    out = tmp_path / "grids.json"
    assert run_cli("sweep", "--cells", "1e6,4e6,16e6,67e6,268e6",
                   "--engines", "12", "--out", str(out), "--format", "json") == 0
    rows = json.loads(out.read_text())
    for col in ("kernel_seconds", "dma_seconds", "total_seconds"):
        series = [r[col] for r in rows]
        assert all(x < y for x, y in zip(series, series[1:]))


def test_calibrate_builtin_anchors(capsys):
    assert run_cli("calibrate") == 0
    out = capsys.readouterr().out
    assert "eff_bandwidth_1" in out and "contention" in out
    assert "residual" in out


def test_calibrate_writes_params_file(tmp_path):
    out = tmp_path / "fitted.params"
    assert run_cli("calibrate", "--out", str(out)) == 0
    text = out.read_text()
    assert "memory.eff_bandwidth_1" in text
    # fitted file loads cleanly and still validates
    assert run_cli("validate", "--params", str(out)) == 0


def test_calibrate_degenerate_observations(tmp_path, capsys):
    obs = tmp_path / "obs.json"
    obs.write_text(json.dumps([
        {"grid": "64x64x64", "engines": 1, "seconds": 1.0},
        {"grid": "64x64x64", "engines": 2, "seconds": 0.6},
    ]))
    assert run_cli("calibrate", "--obs", str(obs)) == 1
    assert "degenerate" in capsys.readouterr().err
    # a finite but absurd time: one engine 1e308 s, twelve 0.99 s, which only
    # a contention far above 1 could fit
    obs.write_text(json.dumps([
        {"grid": "512x512x64", "engines": 1, "seconds": 1e308},
        {"grid": "2047x2048x64", "engines": 12, "seconds": 0.99},
    ]))
    assert run_cli("calibrate", "--obs", str(obs)) == 1
    assert "contention > 1" in capsys.readouterr().err


def test_unrecognized_arguments_are_the_errors_of_the_parser_they_reached(capsys):
    # the top-level parser takes no option but -h: one typed before the
    # subcommand is refused with its usage; one after, with the subcommand's
    for argv, prog in ((("--foo", "validate"), "pwadvect"),
                       (("--foo", "sweep", "--grid", "8x8x8", "--bar"), "pwadvect"),
                       (("validate", "--foo"), "pwadvect validate"),
                       (("model", "--grid", "8x8x8", "--foo"), "pwadvect sweep")):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: {prog} "), argv
        assert err.endswith(f"\n{prog}: error: unrecognized arguments: --foo\n"), argv


def test_usage_errors_exit_2(tmp_path, monkeypatch, capsys):
    assert run_cli() == 2
    assert run_cli("bench", "--grid", "not-a-grid") == 2
    # bench takes its grid from --grid only, and the generators are uniform and random
    capsys.readouterr()
    assert run_cli("bench") == 2
    assert "the following arguments are required: --grid" in capsys.readouterr().err
    assert run_cli("bench", "--grid", "4x4x4", "--cells", "396") == 2
    assert "unrecognized arguments: --cells 396" in capsys.readouterr().err
    assert run_cli("bench", "--grid", "4x4x4", "--gen", "trig") == 2
    assert "argument --gen: invalid choice: 'trig'" in capsys.readouterr().err
    # fields that cannot be allocated: numpy refuses this size before allocating
    assert run_cli("bench", "--grid", "99999999x99999999x99999999") == 2
    with monkeypatch.context() as m:
        def no_memory(dims, spec):
            raise MemoryError("Unable to allocate 1.00 TiB")
        m.setattr(cli, "fill_fields", no_memory)
        assert run_cli("bench", "--grid", "8x8x8") == 2
        # --reps is a count, checked before any field is generated
        m.setattr(cli, "fill_fields", lambda dims, spec: pytest.fail("fields generated"))
        capsys.readouterr()
        for reps in ("0", "-3"):
            assert run_cli("bench", "--grid", "4x4x4", "--reps", reps) == 2
            assert f"--reps = {reps} must be >= 1" in capsys.readouterr().err
    assert run_cli("frobnicate") == 2
    # impossible model configurations: cell counts, engine counts, y_batch > ny
    for cells in ("-5", "nan", "inf", "1e4"):
        assert run_cli("model", "--cells", cells) == 2
    assert run_cli("model", "--cells", "1e308", "--engines", "12") == 2
    assert run_cli("sweep", "--cells", "0") == 2
    assert run_cli("sweep", "--cells", "1e6", "--engines", ",") == 2
    # a list element of the wrong type is named by its type, as for a plain option
    capsys.readouterr()
    assert run_cli("sweep", "--grid", "8x64x8", "--engines", "x") == 2
    assert "argument --engines: invalid int value: 'x'" in capsys.readouterr().err
    assert run_cli("sweep", "--cells", "1e6,x") == 2
    assert "argument --cells: invalid float value: '1e6,x'" in capsys.readouterr().err
    # y_batch is no option of the model: the message names its parameter-file key
    big_batch = tmp_path / "batch.params"
    big_batch.write_text("model.y_batch = 600\n")  # above the calibration anchors' ny = 512
    capsys.readouterr()
    for argv in (("model", "--grid", "64x32x64"), ("model", "--cells", "1e4"),
                 ("sweep", "--grid", "64x32x64", "--engines", "1,2"),
                 ("sweep", "--cells", "1e6,1e4"),
                 ("calibrate", "--params", str(big_batch))):
        assert run_cli(*argv) == 2
        assert "y_batch must be in 1..ny=" in (err := capsys.readouterr().err)
        assert "(parameter-file key model.y_batch)" in err
    # --cells takes the list of grid sizes; --cells-list is no option
    assert run_cli("sweep", "--grid", "8x8x8", "--cells-list", "1e6") == 2
    assert "unrecognized arguments: --cells-list 1e6" in capsys.readouterr().err
    # exactly one of --grid and --cells, which argparse checks before extra arguments
    assert run_cli("sweep", "--cells-list", "1e6") == 2
    assert "one of the arguments --grid --cells is required" in capsys.readouterr().err
    assert run_cli("sweep", "--cells", "1e6", "--grid", "8x8x8") == 2
    assert "argument --grid: not allowed with argument --cells" in capsys.readouterr().err
    # legal parameter files the model cannot evaluate, and a file that is not
    # UTF-8 text: one error line each, never a traceback
    for name, text, argv, message in (
            ("bad.params", b"\xff\xfe", ("validate",), "bad.params: not UTF-8 text"),
            ("slow.params", b"memory.eff_bandwidth_1 = 1e-300\n", ("validate",),
             "no finite memory time at 1 engine(s) per controller: eff_bandwidth_1"
             " * contention ** 0 = 1e-300 * "),
            ("shared.params", b"memory.contention = 1e-300\n", ("validate",),
             "no finite memory time at 6 engine(s) per controller: eff_bandwidth_1"
             " * contention ** 5 = "),
            ("shared.params", b"memory.contention = 1e-300\n",
             ("sweep", "--cells", "268.3e6", "--engines", "12"),
             " * 1e-300 ** 5 = 0.0 B/s")):
        path = tmp_path / name
        path.write_bytes(text)
        assert run_cli(*argv, "--params", str(path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[-1].startswith(f"pwadvect {argv[0]}: error: ") and message in lines[-1]
        assert not any("Traceback" in line for line in lines)
    # options that reached no result: bench loads no parameters, and
    # calibrate writes a parameter file, not report rows
    assert run_cli("bench", "--grid", "4x4x4", "--params", "x") == 2
    assert run_cli("calibrate", "--format", "json") == 2
    assert run_cli("model", "--grid", "8x64x8", "--engines", "0") == 2
    assert run_cli("sweep", "--grid", "8x64x8", "--engines", "1,0") == 2
    # more engines than X columns: no engine may be idle
    assert run_cli("model", "--grid", "4x128x64", "--engines", "12") == 2
    assert run_cli("sweep", "--grid", "8x64x8", "--engines", "1,9") == 2
    # calibrate: observations the model cannot place, or cannot read
    obs = tmp_path / "obs.json"
    ladder = {"grid": "512x512x64", "engines": 1, "seconds": 0.51}
    for bad in ({"grid": "64x64x64", "engines": 0, "seconds": 0.3},
                {"grid": "8x64x64", "engines": 12, "seconds": 0.3},
                {"grid": "64x32x64", "engines": 12, "seconds": 0.3},  # ny < model.y_batch
                {"grid": "not-a-grid", "engines": 12, "seconds": 0.3}):
        obs.write_text(json.dumps([ladder, bad]))
        assert run_cli("calibrate", "--obs", str(obs)) == 2
        assert ("model.y_batch" in capsys.readouterr().err) == (bad["grid"] == "64x32x64")
    for raw in ({"grid": "512x512x64"}, [1]):
        obs.write_text(json.dumps(raw))
        assert run_cli("calibrate", "--obs", str(obs)) == 2
    # times and engine counts no kernel run can have; int() would take 1.9 as 1
    anchor = {"grid": "2047x2048x64", "engines": 12, "seconds": 0.99}
    for bad in ({"seconds": float("nan")}, {"seconds": 0}, {"seconds": -1},
                {"seconds": float("inf")}, {"engines": 1.9}, {"engines": True}):
        obs.write_text(json.dumps([{**ladder, **bad}, anchor]))
        assert run_cli("calibrate", "--obs", str(obs)) == 2
    # an --out file that cannot be written
    missing = str(tmp_path / "no-such-dir" / "out")
    assert run_cli("bench", "--grid", "4x4x4", "--reps", "1", "--out", missing) == 2
    assert run_cli("model", "--grid", "64x64x64", "--out", missing) == 2
    assert run_cli("sweep", "--grid", "64x64x64", "--engines", "1,2", "--out", missing) == 2
    assert run_cli("calibrate", "--out", missing) == 2
    # bench: invalid schedule specs
    assert run_cli("bench", "--grid", "4x4x4", "--engines", "0") == 2
    assert run_cli("bench", "--grid", "4x4x4", "--y-batch", "0") == 2
    # an explicit y_batch above ny; only the default of 64 shrinks to fit
    for schedule in ("y_batched", "x_reordered"):
        assert run_cli("bench", "--grid", "8x64x8", "--schedule", schedule,
                       "--y-batch", "128") == 2


# Inputs for the parsers: free text, and numbers shaped like a grid or a
# list, some of them near the edges of a legal model configuration.
_NUMBER = st.integers(-2, 300) | st.integers()
_GRID_TEXT = st.text(max_size=12) | st.tuples(
    _NUMBER | st.integers(1, 24), _NUMBER | st.integers(60, 130), _NUMBER | st.integers(1, 70),
).map(lambda t: "x".join(map(str, t)))
_ENGINES = st.integers(-2, 20).map(str)
_LIST_TEXT = st.text(max_size=12) | st.lists(
    _ENGINES | st.floats().map(repr), max_size=4).map(",".join)
_ENGINE_LIST = st.text(max_size=12) | st.lists(_ENGINES, max_size=4).map(",".join)


@settings(max_examples=200, deadline=None)
@given(_GRID_TEXT)
def test_parse_grid_accepts_or_raises_usage_error(text):
    try:
        dims = _parse_grid(text)
    except argparse.ArgumentTypeError:
        return
    assert dims.nx >= 1 and dims.ny >= 1 and dims.nz >= 2


@settings(max_examples=200, deadline=None)
@given(_LIST_TEXT, st.sampled_from([int, float]))
def test_list_parser_accepts_or_raises_usage_error(text, cast):
    # argparse reports an ArgumentTypeError or ValueError from a type as a usage error
    try:
        values = _list_parser(cast)(text)
    except (argparse.ArgumentTypeError, ValueError):
        return
    assert values and all(type(v) is cast for v in values)


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run_cli(*argv)


def _legal(grid: str, engines: str) -> bool:
    try:
        dims = _parse_grid(grid)
        for e in _list_parser(int)(engines):
            check_config(dims, e, ModelParams().y_batch)
    except (argparse.ArgumentTypeError, ValueError):
        return False
    return True


# `model` is another name of `sweep`: both take an engine list, and the
# strategies draw single counts as well as lists
@pytest.mark.parametrize("command", ["model", "sweep"])
@settings(max_examples=100, deadline=None)
@given(grid=_GRID_TEXT, engines=st.text(max_size=4) | _ENGINES | _ENGINE_LIST)
def test_answers_only_legal_configurations(command, grid, engines):
    code = _quiet_main([command, "--grid", grid, "--engines", engines])
    assert code in (0, 2)
    if code == 0:
        assert _legal(grid, engines)
