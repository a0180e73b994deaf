import pytest

from pwadvect.params import (
    ENV_VAR,
    ModelParams,
    ParamError,
    default_params_path,
    dump_params,
    load_params,
    parse_params_text,
)


def test_defaults_without_file():
    p = load_params()
    assert p.pipeline.depth == 72 and p.pipeline.ii == 1
    assert p.pipeline.clock_hz == 310e6
    assert p.memory.arrays_per_xstep == 6
    assert p.y_batch == 64 and p.controllers == 2
    assert p.flops.total_per_cell == 53


def test_shipped_file_matches_builtin_defaults():
    shipped = parse_params_text(default_params_path().read_text(), "model-defaults.params")
    builtin = parse_params_text(dump_params(ModelParams()))
    assert shipped == builtin


def test_file_overrides(tmp_path):
    f = tmp_path / "tuned.params"
    f.write_text("pipeline.depth = 65  # pre-retiming\nmemory.contention = 0.5\n")
    p = load_params(f)
    assert p.pipeline.depth == 65
    assert p.memory.contention == 0.5
    assert p.pipeline.clock_hz == 310e6  # untouched keys keep defaults


def test_unknown_key_rejected(tmp_path):
    f = tmp_path / "typo.params"
    f.write_text("pipeline.depht = 65\n")
    with pytest.raises(ParamError, match="unknown parameter key"):
        load_params(f)
    # keys removed from the model: a reporting-only port knob, a published fact
    for line in ("memory.burst_bytes = 2048", "ref.column_depth = 71"):
        with pytest.raises(ParamError, match="unknown parameter key"):
            parse_params_text(line)


def test_malformed_line_rejected():
    with pytest.raises(ParamError, match="expected"):
        parse_params_text("pipeline.depth 65")
    with pytest.raises(ParamError, match="bad value"):
        parse_params_text("pipeline.depth = deep")


def test_env_var_supplies_default_path(tmp_path, monkeypatch):
    f = tmp_path / "env.params"
    f.write_text("model.y_batch = 16\n")
    monkeypatch.setenv(ENV_VAR, str(f))
    assert load_params().y_batch == 16
    # explicit path wins over the environment
    g = tmp_path / "explicit.params"
    g.write_text("model.y_batch = 8\n")
    assert load_params(g).y_batch == 8


def test_dump_load_round_trip(tmp_path):
    p = ModelParams()
    f = tmp_path / "roundtrip.params"
    f.write_text(dump_params(p))
    q = load_params(f)
    assert q == p


@pytest.mark.parametrize("line", ["model.y_batch = 0", "pipeline.depth = -3",
                                  "model.controllers = 0", "flops.muls_per_cell = 0"])
def test_int_below_one_rejected(line):
    with pytest.raises(ParamError, match=r"^f\.params:2: .* must be >= 1"):
        parse_params_text("# header\n" + line, source="f.params")


@pytest.mark.parametrize("line", ["pipeline.clock_hz = nan", "memory.eff_bandwidth_1 = inf",
                                  "dma.end_to_end_bandwidth = -inf", "memory.contention = nan"])
def test_non_finite_float_rejected(line):
    with pytest.raises(ParamError, match=r"^f\.params:1: .* must be finite"):
        parse_params_text(line, source="f.params")


@pytest.mark.parametrize("line", ["pipeline.clock_hz = 0", "memory.eff_bandwidth_1 = -1e9",
                                  "dma.end_to_end_bandwidth = 0", "dma.split_banks_4ch = -1"])
def test_non_positive_clock_or_bandwidth_rejected(line):
    with pytest.raises(ParamError, match=r"^f\.params:1: .* must be > 0"):
        parse_params_text(line, source="f.params")


@pytest.mark.parametrize("value", ["0", "-0.5", "1.0000001", "2"])
def test_contention_outside_unit_interval_rejected(value):
    with pytest.raises(ParamError, match=r"must be in \(0, 1\]"):
        parse_params_text(f"memory.contention = {value}", source="f.params")


def test_range_limits_accepted():
    kv = parse_params_text("memory.contention = 1.0\nmodel.y_batch = 1\npipeline.ii = 1\n"
                           "pipeline.clock_hz = 1e-3")
    assert kv == {"memory.contention": 1.0, "model.y_batch": 1, "pipeline.ii": 1,
                  "pipeline.clock_hz": 1e-3}
