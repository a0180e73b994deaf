"""Model parameter bundle: built-in defaults, key=value file I/O, env lookup.

Only tunable model inputs live here; published facts live in `refdata`.
The shipped defaults live both here and, with provenance comments, in
``model-defaults.params`` next to this module; a test keeps the two in sync.
Files use one ``section.key = value`` pair per line, ``#`` comments; the
keys are derived from the bundle's dataclass fields, and unknown keys are
rejected so typos can't silently fall back to defaults. The
``PWADVECT_PARAMS`` environment variable names a default parameter file.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

from .dataflow import MemoryModel, PipelineSpec
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

    @property
    def flops(self) -> FlopProfile:  # the published op credit: a fact, not a parameter
        return _FLOPS


class ParamError(ValueError):
    """Malformed parameter file or unknown key."""


def _items(p: ModelParams):
    """(key, path, value) for every parameter of a bundle, in file order.

    A path is ("y_batch",) for a ModelParams scalar or ("pipeline", "depth")
    for a section field.
    """
    for top in fields(p):
        section = getattr(p, top.name)
        if not is_dataclass(section):
            yield f"model.{top.name}", (top.name,), section
            continue
        for sub in fields(section):
            yield f"{top.name}.{sub.name}", (top.name, sub.name), getattr(section, sub.name)


def _assemble(kv: dict[str, float]) -> ModelParams:
    tree = {}
    for key, path in _PATHS.items():
        node = tree
        for step in path[:-1]:
            node = node.setdefault(step, {})
        node[path[-1]] = kv[key]
    for name, cls in _SECTIONS.items():
        tree[name] = cls(**tree[name])
    return ModelParams(**tree)


# Derived once at import, not per call: load_params runs on every CLI call.
_DEFAULT = ModelParams()
_PATHS = {key: path for key, path, _ in _items(_DEFAULT)}
_SECTIONS = {path[0]: type(getattr(_DEFAULT, path[0])) for path in _PATHS.values() if len(path) > 1}
_DEFAULT_KV = {key: value for key, _, value in _items(_DEFAULT)}
KNOWN_KEYS = frozenset(_PATHS)
_INT_KEYS = frozenset(k for k, v in _DEFAULT_KV.items() if isinstance(v, int))


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
            kv[key] = int(value) if key in _INT_KEYS else float(value)
        except ValueError as exc:
            raise ParamError(f"{source}:{lineno}: bad value for {key}: {value!r}") from exc
        problem = _range_problem(key, kv[key])
        if problem:
            raise ParamError(f"{source}:{lineno}: {key} = {value} {problem}")
    return kv


def _range_problem(key: str, value) -> str | None:
    """Why a value is out of range for its key, or None if it is in range."""
    if key in _INT_KEYS:  # depths, cycle counts, array/controller/op counts
        return "must be >= 1" if value < 1 else None
    if not math.isfinite(value):
        return "must be finite"
    if key == "memory.contention":
        # bandwidth with g engines on a controller is eff_bandwidth_1 * contention**(g-1):
        # a derating, so it may not grow with g nor reach zero
        return None if 0 < value <= 1 else "must be in (0, 1]"
    # every other float is a clock (Hz) or a bandwidth (bytes/s)
    return "must be > 0" if value <= 0 else None


def load_params(path: str | os.PathLike | None = None) -> ModelParams:
    """Built-in defaults overlaid with a parameter file, if one is given.

    Resolution order: explicit path, else $PWADVECT_PARAMS, else defaults.
    """
    if path is None:
        path = os.environ.get(ENV_VAR) or None
    kv = dict(_DEFAULT_KV)
    if path is not None:
        text = Path(path).read_text()
        kv.update(parse_params_text(text, source=str(path)))
    return _assemble(kv)


def dump_params(p: ModelParams) -> str:
    """Render a bundle in the parameter-file format."""
    return "# pwadvect model parameters\n" + "".join(
        f"{key} = {value!r}\n" for key, _, value in _items(p))


def default_params_path() -> Path:
    return Path(__file__).with_name("model-defaults.params")
