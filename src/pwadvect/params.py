"""Model parameter bundle: built-in defaults, key=value file I/O, env lookup.

Only tunable model inputs live here; published facts live in `refdata`.
The shipped defaults live both here and, with provenance comments, in
``model-defaults.params`` next to this module; a test keeps the two in sync.
Files use one ``section.key = value`` pair per line, ``#`` comments; the
keys are derived from the bundle's dataclass fields, and unknown keys are
rejected so typos can't silently fall back to defaults. This module only
parses a file and overlays it on the defaults: each value's legal range is
checked by the type that holds it (`PipelineSpec`, `MemoryModel`,
`DmaConfig`, `ModelParams`) with `grid`'s rules for counts and for times
and rates, for a file and a Python caller alike. The
``PWADVECT_PARAMS`` environment variable names a default parameter file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .dataflow import MemoryModel, PipelineSpec
from .grid import check_count
from .kernel import FlopProfile
from .refdata import TUNED_PIPE
from .transfer import DmaConfig

ENV_VAR = "PWADVECT_PARAMS"

# Two-point calibration output (see docs/model-notes.md section 4); frozen so
# shipped behaviour does not depend on re-running the fit.
CALIBRATED_BANDWIDTH = 1751318500.2052839
CALIBRATED_CONTENTION = 0.923064649982371

_FLOPS = FlopProfile()


@dataclass
class ModelParams:
    """Everything the analytic models need, in one bundle.

    Field order is the key order of a dumped parameter file.
    """

    pipeline: PipelineSpec = TUNED_PIPE
    memory: MemoryModel = field(
        default_factory=lambda: MemoryModel(
            eff_bandwidth_1=CALIBRATED_BANDWIDTH, contention=CALIBRATED_CONTENTION))
    y_batch: int = 64
    controllers: int = 2
    dma: DmaConfig = field(default_factory=DmaConfig)

    def __post_init__(self):
        check_count("y_batch", self.y_batch)
        check_count("controllers", self.controllers)

    @property
    def flops(self) -> FlopProfile:  # the published op credit: a fact, not a parameter
        return _FLOPS


class ParamError(ValueError):
    """Malformed parameter file, unknown key or out-of-range value."""


def _items(p: ModelParams):
    """(key, value) for every parameter of a bundle, in file order."""
    for top in fields(p):
        section = getattr(p, top.name)
        if not is_dataclass(section):
            yield f"model.{top.name}", section
            continue
        for sub in fields(section):
            yield f"{top.name}.{sub.name}", getattr(section, sub.name)


def _with(p: ModelParams, key: str, value) -> ModelParams:
    """`p` with one key set; the type that holds the value checks it."""
    section, _, name = key.partition(".")
    if section == "model":
        return replace(p, **{name: value})
    return replace(p, **{section: replace(getattr(p, section), **{name: value})})


# Derived once at import, not per call: load_params runs on every CLI call.
_DEFAULT = ModelParams()
_KEY_TYPES = {key: type(value) for key, value in _items(_DEFAULT)}  # int or float
KNOWN_KEYS = frozenset(_KEY_TYPES)


def parse_params_text(text: str, source: str = "<string>") -> dict[str, float]:
    kv = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParamError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in KNOWN_KEYS:
            raise ParamError(f"{source}:{lineno}: unknown parameter key {key!r}")
        try:
            kv[key] = _KEY_TYPES[key](value)
        except ValueError as exc:
            raise ParamError(f"{source}:{lineno}: bad value for {key}: {value!r}") from exc
        try:
            _with(_DEFAULT, key, kv[key])
        except ValueError as exc:
            # the type says "<field> = <value> <rule>": keep its rule, and the file's value
            rule = str(exc).split(" ", 3)[3]
            raise ParamError(f"{source}:{lineno}: {key} = {value} {rule}") from exc
    return kv


def load_params(path: str | os.PathLike | None = None) -> ModelParams:
    """Built-in defaults overlaid with a parameter file, if one is given.

    Resolution order: explicit path, else $PWADVECT_PARAMS, else defaults.
    """
    if path is None:
        path = os.environ.get(ENV_VAR) or None
    p = ModelParams()
    if path is not None:
        for key, value in parse_params_text(Path(path).read_text(), source=str(path)).items():
            p = _with(p, key, value)
    return p


def dump_params(p: ModelParams) -> str:
    """Render a bundle in the parameter-file format."""
    return "# pwadvect model parameters\n" + "".join(
        f"{key} = {value!r}\n" for key, value in _items(p))


def default_params_path() -> Path:
    return Path(__file__).with_name("model-defaults.params")
