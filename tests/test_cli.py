import csv
import dataclasses
import gc
import json

import pytest

from pwadvect.cli import main
from pwadvect.refdata import HEADLINE


def run_cli(*argv):
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse errors
        return exc.code


def test_validate_passes_with_defaults(capsys):
    assert run_cli("validate") == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "OK: all checks passed" in out


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
    assert fails[0].startswith("FAIL  kernel GFLOP/s at 268.3M cells, 12 engines")


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
                   "--schedule", "xreordered", "--reps", "2", "--seed", "5",
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
    code = run_cli("bench", "--grid", "16x8x4", "--schedule", "xreordered",
                   "--engines", "4", "--y-batch", "8", "--reps", "1",
                   "--out", str(out), "--format", "json")
    assert code == 0
    rows = json.loads(out.read_text())
    assert rows[0]["engines"] == 4
    assert rows[0]["scratch_bytes_peak"] == 22 * 8 * 4 * 8


def test_bench_rejects_bad_schedule():
    assert run_cli("bench", "--grid", "4x4x4", "--schedule", "quantum") == 2


def test_bench_reports_are_deterministic_modulo_timing(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert run_cli("bench", "--grid", "8x8x4", "--schedule", "ybatched",
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


def test_sweep_grid_series_monotone(tmp_path):
    out = tmp_path / "grids.json"
    assert run_cli("sweep", "--cells-list", "1e6,4e6,16e6,67e6,268e6",
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


def test_usage_errors_exit_2():
    assert run_cli() == 2
    assert run_cli("bench", "--grid", "not-a-grid") == 2
    assert run_cli("bench", "--grid", "4x4x4", "--reps", "0") == 2
    assert run_cli("frobnicate") == 2
    # impossible model configurations: cell counts, engine counts, y_batch > ny
    for cells in ("-5", "nan", "inf", "1e4"):
        assert run_cli("model", "--cells", cells) == 2
    assert run_cli("model", "--cells", "1e308", "--engines", "12") == 2
    assert run_cli("sweep", "--cells-list", "0") == 2
    assert run_cli("sweep", "--cells-list", "1e6", "--engines", ",") == 2
    assert run_cli("model", "--grid", "8x64x8", "--engines", "0") == 2
    assert run_cli("sweep", "--grid", "8x64x8", "--engines", "1,0") == 2
    # bench: invalid schedule specs
    assert run_cli("bench", "--grid", "4x4x4", "--engines", "0") == 2
    assert run_cli("bench", "--grid", "4x4x4", "--y-batch", "0") == 2
    # an explicit y_batch above ny; only the default of 64 shrinks to fit
    for schedule in ("ybatched", "xreordered"):
        assert run_cli("bench", "--grid", "8x64x8", "--schedule", schedule,
                       "--y-batch", "128") == 2
