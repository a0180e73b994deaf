"""The docs' code references name what the package has."""

import importlib
import re
import shlex
from pathlib import Path

import pytest

from pwadvect import cli

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "docs/model-notes.md")
PARAMS_FILE = "src/pwadvect/model-defaults.params"  # its `#` comments cite code too
MODULES = ("grid", "kernel", "schedules", "dataflow", "transfer", "refdata", "params", "cli")
# `module.name` at the start of a backticked span, or pwadvect.module.name
# anywhere; `grid.py` names a file
REFERENCE = re.compile(rf"(?:`|\bpwadvect\.)({'|'.join(MODULES)})\.([A-Za-z_]\w*)")
FILE_SUFFIXES = {"py", "md", "c", "json", "params"}


def _text(doc: str) -> str:
    text = (ROOT / doc).read_text()
    if doc != PARAMS_FILE:
        return text
    return "\n".join(line.partition("#")[2] for line in text.splitlines())


def _references():
    return sorted({(doc, module, name) for doc in (*DOCS, PARAMS_FILE)
                   for module, name in REFERENCE.findall(_text(doc))
                   if name not in FILE_SUFFIXES})


def test_docs_cite_code():
    refs = _references()
    assert {module for _, module, _ in refs} >= {"grid", "kernel", "schedules"}
    # the fully qualified form is found, in the docs and in the parameter file's comments
    assert {("README.md", "refdata", "FlopProfile"),
            (PARAMS_FILE, "refdata", "CALIBRATION_OBSERVATIONS")} <= set(refs)


@pytest.mark.parametrize("doc,module,name", _references())
def test_doc_code_reference_resolves(doc, module, name):
    assert hasattr(importlib.import_module(f"pwadvect.{module}"), name), \
        f"{doc} cites `{module}.{name}`, which pwadvect.{module} does not define"


def _readme_commands() -> list[list[str]]:
    """The arguments of each `pwadvect ...` line in README's "Command line"
    block, with backslash continuations joined."""
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("pwadvect ")]


def test_readme_commands_parse():
    """Parsed, never run: a renamed or folded subcommand or option fails here."""
    commands = _readme_commands()
    assert {argv[0] for argv in commands} >= {"bench", "sweep", "calibrate", "validate"}
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README's `pwadvect {shlex.join(argv)}` does not parse")
