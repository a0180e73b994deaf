import math
import re
from dataclasses import is_dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwadvect.dataflow import MemoryModel, PipelineSpec
from pwadvect.params import (
    KNOWN_KEYS,
    ModelParams,
    ParamError,
    default_params_path,
    dump_params,
    load_params,
    parse_params_text,
)
from pwadvect.refdata import GRID_STRATUS
from pwadvect.transfer import DmaConfig, end_to_end


def test_defaults_without_file(tmp_path, monkeypatch):
    # only an explicit path names a file; the environment changes nothing
    f = tmp_path / "env.params"
    f.write_text("model.y_batch = 16\n")
    monkeypatch.setenv("PWADVECT_PARAMS", str(f))
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


@pytest.mark.parametrize("key", sorted(KNOWN_KEYS))
def test_every_key_reaches_a_result(key, tmp_path):
    value = parse_params_text(dump_params(ModelParams()))[key]
    f = tmp_path / "perturbed.params"
    f.write_text(f"{key} = {value + 1 if isinstance(value, int) else value * 0.5!r}\n")

    def report(p):
        return end_to_end(GRID_STRATUS, 12, p.pipeline, p.memory, p.dma, p.y_batch, p.flops,
                          p.controllers)

    assert report(load_params(f)) != report(load_params())


def test_file_overrides(tmp_path):
    f = tmp_path / "tuned.params"
    f.write_text("pipeline.depth = 65  # pre-retiming\nmemory.contention = 0.5\n")
    p = load_params(f)
    assert p.pipeline.depth == 65
    assert p.memory.contention == 0.5
    assert p.pipeline.clock_hz == 310e6  # untouched keys keep defaults
    g = tmp_path / "explicit.params"
    g.write_text("model.y_batch = 8\n")
    assert load_params(g).y_batch == 8


def test_unknown_key_rejected(tmp_path):
    f = tmp_path / "typo.params"
    f.write_text("pipeline.depht = 65\n")
    with pytest.raises(ParamError, match="unknown parameter key"):
        load_params(f)
    # keys removed from the model: a reporting-only port knob and published
    # facts (the op credit and the DMA table), each at its old shipped value
    for line in ("memory.burst_bytes = 2048", "ref.column_depth = 71",
                 "flops.adds_per_cell = 21", "flops.muls_per_cell = 32",
                 "dma.split_banks_4ch = 6896551724.137931",
                 "dma.one_controller_4ch = 5714285714.285714",
                 "dma.connected_controllers_4ch = 6694560669.456067",
                 "dma.one_ch_per_controller = 4678362573.099415"):
        with pytest.raises(ParamError, match="unknown parameter key"):
            parse_params_text(line)


def test_malformed_line_rejected():
    with pytest.raises(ParamError, match="expected"):
        parse_params_text("pipeline.depth 65")
    with pytest.raises(ParamError, match="bad value"):
        parse_params_text("pipeline.depth = deep")


def test_dump_load_round_trip(tmp_path):
    p = ModelParams()
    f = tmp_path / "roundtrip.params"
    f.write_text(dump_params(p))
    q = load_params(f)
    assert q == p


@pytest.mark.parametrize("line", ["model.y_batch = 0", "pipeline.depth = -3",
                                  "model.controllers = 0", "memory.arrays_per_xstep = 0"])
def test_int_below_one_rejected(line):
    with pytest.raises(ParamError, match=r"^f\.params:2: .* must be >= 1"):
        parse_params_text("# header\n" + line, source="f.params")


@pytest.mark.parametrize("line", ["pipeline.clock_hz = nan", "memory.eff_bandwidth_1 = inf",
                                  "dma.end_to_end_bandwidth = -inf", "memory.contention = nan"])
def test_non_finite_float_rejected(line):
    with pytest.raises(ParamError, match=r"^f\.params:1: .* must be finite"):
        parse_params_text(line, source="f.params")


@pytest.mark.parametrize("line", ["pipeline.clock_hz = 0", "memory.eff_bandwidth_1 = -1e9",
                                  "dma.end_to_end_bandwidth = 0", "pipeline.clock_hz = -1"])
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


def _constructors_accept(key: str, value) -> bool:
    """Whether the type that holds `key` takes `value` in place of its default."""
    section, name = key.split(".")
    try:
        if section == "model":
            ModelParams(**{name: value})
        else:
            replace(getattr(ModelParams(), section), **{name: value})
    except ValueError:
        return False
    return True


_VALUES = st.one_of(st.text(max_size=8), st.integers().map(str), st.floats().map(repr))
_LINES = st.one_of(
    st.text(max_size=30),
    st.tuples(st.sampled_from(sorted(KNOWN_KEYS) + ["model.bogus"]), st.sampled_from(["=", " = ", ""]),
              _VALUES).map("".join),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_LINES, max_size=4).map("\n".join))
def test_any_params_text_parses_or_raises_param_error(text):
    try:
        kv = parse_params_text(text)
    except ParamError:
        return
    # whatever the parser accepts, the model's own constructors accept too
    assert all(_constructors_accept(key, value) for key, value in kv.items())


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(KNOWN_KEYS)),  # ints a float key reads exactly
       st.one_of(st.integers(-3, 3), st.integers(-2**53, 2**53), st.floats(-2, 2), st.floats()))
def test_parser_accepts_a_value_exactly_when_its_type_does(key, value):
    try:
        kv = parse_params_text(f"{key} = {value!r}")
    except ParamError:
        accepted = False
    else:
        accepted = True
        assert kv == {key: value}
    assert accepted == _constructors_accept(key, value)


# One legal value per field, and values every field of that kind rejects:
# NaN, +-inf, zero and negatives, and non-integral counts.
_COUNTS = [(PipelineSpec(72, 1, 3e8), "depth"), (PipelineSpec(72, 1, 3e8), "ii"),
           (MemoryModel(1e9), "arrays_per_xstep"), (ModelParams(), "y_batch"),
           (ModelParams(), "controllers")]
_RATES = [(PipelineSpec(72, 1, 3e8), "clock_hz"), (MemoryModel(1e9), "eff_bandwidth_1"),
          (MemoryModel(1e9), "contention"), (DmaConfig(), "end_to_end_bandwidth")]
_NOT_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("owner, name, bad", [
    *((owner, name, bad) for owner, name in _COUNTS
      for bad in (*_NOT_FINITE, 0, -3, 72.5, 2.0, True)),
    *((owner, name, bad) for owner, name in _RATES for bad in (*_NOT_FINITE, 0, 0.0, -1.5)),
    (MemoryModel(1e9), "contention", 1.0000001),
], ids=lambda v: type(v).__name__ if is_dataclass(v) else None)
def test_each_type_rejects_out_of_range_fields(owner, name, bad):
    with pytest.raises(ValueError, match=rf"^{name} = {re.escape(str(bad))} must be "):
        replace(owner, **{name: bad})
