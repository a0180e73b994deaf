"""The names perfbench/ binds in pwadvect all exist.

perfbench imports names from pwadvect and wraps others in traced runs (its
`*_PATCHES` tuples). A name dropped from src/ would break a benchmark run,
or leave its layer untraced with only a warning; this test, which reads
perfbench/ without importing it, makes such a drop fail the suite instead.
"""

import ast
import importlib
from pathlib import Path

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
