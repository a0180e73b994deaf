"""The names perfbench/ binds in pwadvect all exist, and the model calls
the ones it walks in the order it walks them.

perfbench imports names from pwadvect and wraps others in traced runs (its
`*_PATCHES` tuples). A name dropped from src/ would break a benchmark run,
or leave its layer untraced with only a warning, and so would a model
call that no longer goes through a wrapped name. These tests, which never
import perfbench, make either fail the suite instead.
"""

import ast
import importlib
from pathlib import Path

from pwadvect import dataflow, transfer
from pwadvect.grid import GridDims
from pwadvect.params import ModelParams

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings() -> set[tuple[str, str]]:
    """(module, name) for each `from pwadvect... import name` and each
    (module, name, ...) entry of a `*_PATCHES` tuple in perfbench/*.py."""
    pairs = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pwadvect":
                pairs.update((node.module, alias.name) for alias in node.names)
            elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
                  and any(isinstance(t, ast.Name) and t.id.endswith("_PATCHES")
                          for t in node.targets)):
                for entry in node.value.elts:
                    module, name = (ast.literal_eval(e) for e in entry.elts[:2])
                    pairs.add((module, name))
    return pairs


def _resolves(module: str, name: str) -> bool:
    """Whether `from module import name` succeeds: an attribute, or a submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_perfbench_bindings_resolve():
    pairs = _bindings()
    # both forms are found: package and submodule imports, and patch entries
    assert {("pwadvect", "make_grid"), ("pwadvect", "cli"), ("pwadvect.refdata", "HEADLINE"),
            ("pwadvect.grid", "lcg_doubles"), ("pwadvect.transfer", "kernel_time")} <= pairs
    assert [pair for pair in sorted(pairs) if not _resolves(*pair)] == []


# perfbench's model workload reads its `dataflow.*` layer metrics from the
# traced children of each kernel_time call, so it needs these caller ->
# callee edges; a model refactor that calls the terms some other way would
# leave those metrics reading 0 with only a warning.
MODEL_CALL_TREE = {
    ("kernel_time", "kernel_compute_cycles"),
    ("kernel_compute_cycles", "pipeline_cycles"),
    ("kernel_time", "kernel_memory_seconds"),
    ("kernel_memory_seconds", "kernel_memory_bytes"),
}


def test_model_call_tree_that_perfbench_walks(monkeypatch):
    stack, edges = [], set()

    def recording(name, fn):
        def call(*args, **kwargs):
            if stack:
                edges.add((stack[-1], name))
            stack.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return call

    # the bindings perfbench wraps: end_to_end finds kernel_time in transfer,
    # kernel_time finds the terms in dataflow
    monkeypatch.setattr(transfer, "kernel_time", recording("kernel_time", transfer.kernel_time))
    for name in ("kernel_compute_cycles", "pipeline_cycles", "kernel_memory_seconds",
                 "kernel_memory_bytes"):
        monkeypatch.setattr(dataflow, name, recording(name, getattr(dataflow, name)))
    p = ModelParams()
    transfer.end_to_end(GridDims(64, 64, 64), 2, p.pipeline, p.memory, p.dma, p.y_batch,
                        p.flops, p.controllers)
    assert MODEL_CALL_TREE <= edges
