"""The docs' code references name what the package has."""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "docs/model-notes.md")
MODULES = ("grid", "kernel", "schedules", "dataflow", "transfer", "refdata", "params", "cli")
# a backticked span that starts with `module.name`; `grid.py` names a file
REFERENCE = re.compile(rf"`({'|'.join(MODULES)})\.([A-Za-z_]\w*)")
FILE_SUFFIXES = {"py", "md", "c", "json", "params"}


def _references():
    return sorted({(doc, module, name) for doc in DOCS
                   for module, name in REFERENCE.findall((ROOT / doc).read_text())
                   if name not in FILE_SUFFIXES})


def test_docs_cite_code():
    assert {module for _, module, _ in _references()} >= {"grid", "kernel", "schedules"}


@pytest.mark.parametrize("doc,module,name", _references())
def test_doc_code_reference_resolves(doc, module, name):
    assert hasattr(importlib.import_module(f"pwadvect.{module}"), name), \
        f"{doc} cites `{module}.{name}`, which pwadvect.{module} does not define"
