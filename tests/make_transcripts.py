"""The CLI transcript corpus: what every case of `CASES` prints, and exits with.

    python tests/make_transcripts.py           # rewrite tests/cli_transcripts.json
    python tests/make_transcripts.py --check   # compare; list changed entries and
                                               # their changed fields, exit 1 if any

Each entry of the corpus holds a case's argv, the files and environment it
runs with, its exit code, stdout and stderr. `run` executes a case
in-process through `pwadvect.cli.main`, in a fresh temporary directory that
argv, file names and environment values name as ``{tmp}``; the files are
written one byte per character (latin-1), so a case can hold bytes that are
not UTF-8. The directory's path reads ``{tmp}`` in the recorded output, and
help and usage text is wrapped at 80 columns. An exception out of `main` is
recorded as the interpreter would end on it, exit 1 and a "Traceback" in
stderr, and each warning as one ``Category: message`` line after stderr.
The `bench` rows are JSON or CSV with `wall_*`, `host` and `kernel` masked
as ``*``, so they read the same with and without the compiled kernel.

A change that alters an entry lists it when the corpus is rewritten;
tests/test_transcripts.py replays the committed corpus.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

CORPUS = Path(__file__).with_name("cli_transcripts.json")
MASKED = ("wall_min_s", "wall_mean_s", "wall_all_s", "host", "kernel")

_LADDER = {"grid": "512x512x64", "engines": 1, "seconds": 0.51}
_LARGEST = {"grid": "2047x2048x64", "engines": 12, "seconds": 0.99}


def _obs(*observations) -> str:
    return json.dumps(list(observations))


# name -> file text for the cases that read a parameter or observation file
FILES = {
    "depth.params": "pipeline.depth = 3000\n",
    "zero.params": "model.y_batch = 0\n",
    "batch.params": "model.y_batch = 600\n",
    "typo.params": "pipeline.depht = 65\n",
    "no-equals.params": "pipeline.depth 65\n",
    "bad-value.params": "pipeline.depth = deep\n",
    "nan.params": "memory.contention = nan\n",
    "removed-key.params": "flops.adds_per_cell = 21\n",
    "not-utf8.params": "\xff\xfe",
    "tiny-bandwidth.params": "memory.eff_bandwidth_1 = 1e-300\n",
    "tiny-contention.params": "memory.contention = 1e-300\n",
    "obs.json": _obs(_LADDER, _LARGEST),
    "degenerate.json": _obs({"grid": "64x64x64", "engines": 1, "seconds": 1.0},
                            {"grid": "64x64x64", "engines": 2, "seconds": 0.6}),
    "absurd.json": _obs({**_LADDER, "seconds": 1e308}, _LARGEST),
    "zero-engines.json": _obs(_LADDER, {"grid": "64x64x64", "engines": 0, "seconds": 0.3}),
    "idle-engines.json": _obs(_LADDER, {"grid": "8x64x64", "engines": 12, "seconds": 0.3}),
    "ny-below-batch.json": _obs(_LADDER, {"grid": "64x32x64", "engines": 12, "seconds": 0.3}),
    "bad-grid.json": _obs(_LADDER, {"grid": "not-a-grid", "engines": 12, "seconds": 0.3}),
    "not-a-list.json": json.dumps({"grid": "512x512x64"}),
    "not-objects.json": "[1]",
    "nan-seconds.json": _obs({**_LADDER, "seconds": float("nan")}, _LARGEST),
    "zero-seconds.json": _obs({**_LADDER, "seconds": 0}, _LARGEST),
    "negative-seconds.json": _obs({**_LADDER, "seconds": -1}, _LARGEST),
    "inf-seconds.json": _obs({**_LADDER, "seconds": float("inf")}, _LARGEST),
    "fractional-engines.json": _obs({**_LADDER, "engines": 1.9}, _LARGEST),
    "bool-engines.json": _obs({**_LADDER, "engines": True}, _LARGEST),
    "not-json.json": "grid = 512x512x64\n",
}

_SCHEDULES = ("--schedule", "reference", "--schedule", "column_buffered",
              "--schedule", "y_batched", "--schedule", "x_reordered")
_MISSING = "{tmp}/no-such-dir/out"


def _cases():
    """(argv, env) of every case, in corpus order."""
    yield ("validate",), {}
    yield ("validate",), {"PWADVECT_PARAMS": "{tmp}/depth.params"}
    # the model at fixed points, as a table, CSV and JSON
    for argv in (("model", "--cells", "268.3e6", "--engines", "12"),
                 ("model", "--grid", "512x512x64", "--engines", "1"),
                 ("sweep", "--grid", "1012x1024x64", "--engines", "1,2,4,6,8,12"),
                 ("sweep", "--cells", "1e6,4e6,16e6,67e6,268e6", "--engines", "12"),
                 ("sweep", "--cells", "1e6,4e6", "--engines", "1,12")):
        yield argv, {}
        yield (*argv, "--format", "csv"), {}
        yield (*argv, "--format", "json"), {}
    yield ("sweep", "--cells-list", "1e6,4e6,16e6,67e6,268e6", "--engines", "12"), {}
    yield ("sweep", "--grid", "64x64x64", "--engines", "1,2", "--out", "{tmp}/sweep.csv"), {}
    yield ("sweep", "--grid", "64x64x64", "--out", "{tmp}/sweep.json", "--format", "json"), {}
    # calibrate: the built-in anchors, and observation files good and bad
    yield ("calibrate",), {}
    yield ("calibrate", "--out", "{tmp}/fitted.params"), {}
    for name in FILES:
        if name.endswith(".json"):
            yield ("calibrate", "--obs", f"{{tmp}}/{name}"), {}
    yield ("calibrate", "--obs", "{tmp}/missing.json"), {}
    # parameter files: each bad one under every command that reads one
    for name in FILES:
        if name.endswith(".params"):
            for argv in (("validate",), ("sweep", "--cells", "268.3e6", "--engines", "12"),
                         ("calibrate",)):
                yield (*argv, "--params", f"{{tmp}}/{name}"), {}
    yield ("validate", "--params", "/definitely/not/here.params"), {}
    yield ("validate", "--params", "{tmp}"), {}
    # usage errors
    yield (), {}
    yield ("frobnicate",), {}
    yield ("--foo", "validate"), {}
    yield ("bench",), {}
    yield ("bench", "--grid", "not-a-grid"), {}
    yield ("bench", "--grid", "99999999x99999999x99999999"), {}
    yield ("bench", "--grid", "0x64x64"), {}
    yield ("bench", "--grid", "4x4x1"), {}
    yield ("bench", "--cells", "396", "--reps", "1"), {}
    for reps in ("0", "-3"):
        yield ("bench", "--grid", "4x4x4", "--reps", reps), {}
    yield ("bench", "--grid", "4x4x4", "--schedule", "quantum"), {}
    yield ("bench", "--grid", "4x4x4", "--schedule", "xreordered"), {}
    yield ("bench", "--grid", "4x4x4", "--gen", "trig", "--reps", "1"), {}
    yield ("bench", "--grid", "4x4x4", "--params", "x"), {}
    yield ("bench", "--grid", "4x4x4", "--engines", "0"), {}
    yield ("bench", "--grid", "4x4x4", "--engines", "5"), {}
    yield ("bench", "--grid", "4x4x4", "--y-batch", "0"), {}
    for schedule in ("y_batched", "x_reordered"):
        yield ("bench", "--grid", "8x64x8", "--schedule", schedule, "--y-batch", "128"), {}
    yield ("bench", "--grid", "4x4x4", "--reps", "1", "--out", _MISSING), {}
    yield ("model",), {}
    yield ("model", "--grid", "4x4x4", "--cells", "1e6"), {}
    for cells in ("0", "-5", "nan", "inf", "1e4", "x"):
        yield ("model", "--cells", cells), {}
    yield ("model", "--cells", "1e308", "--engines", "12"), {}
    yield ("model", "--cells", "1e6,1e4"), {}
    yield ("model", "--grid", "64x32x64"), {}
    yield ("model", "--grid", "8x64x8", "--engines", "0"), {}
    yield ("model", "--grid", "4x128x64", "--engines", "12"), {}
    yield ("model", "--grid", "64x64x64", "--out", _MISSING), {}
    yield ("sweep", "--cells", "0"), {}
    yield ("sweep", "--cells", "1e6", "--engines", ","), {}
    yield ("sweep", "--cells", "1e6,x"), {}
    yield ("sweep", "--cells-list", "1e6"), {}
    yield ("sweep", "--cells", "1e6", "--grid", "8x8x8"), {}
    yield ("sweep", "--grid", "8x64x8", "--engines", "x"), {}
    yield ("sweep", "--grid", "8x64x8", "--engines", "1,0"), {}
    yield ("sweep", "--grid", "8x64x8", "--engines", "1,9"), {}
    yield ("sweep", "--grid", "64x32x64", "--engines", "1,2"), {}
    yield ("sweep", "--cells", "1e6,1e4"), {}
    yield ("sweep", "--grid", "64x64x64", "--engines", "1,2", "--out", _MISSING), {}
    yield ("sweep", "--grid", "64x64x64", "--format", "xml"), {}
    yield ("calibrate", "--format", "json"), {}
    yield ("calibrate", "--out", _MISSING), {}
    yield ("validate", "--grid", "8x8x8"), {}
    # help
    yield ("-h",), {}
    for command in ("bench", "sweep", "model", "calibrate", "validate"):
        yield (command, "-h"), {}
    # bench: every schedule at 9x11x4 on engines 1-3, as JSON and CSV
    for engines in ("1", "2", "3"):
        yield ("bench", "--grid", "9x11x4", *_SCHEDULES, "--engines", engines, "--reps", "2",
               "--format", "json"), {}
    yield ("bench", "--grid", "9x11x4", *_SCHEDULES, "--engines", "2", "--y-batch", "4",
           "--gen", "uniform", "--reps", "1", "--format", "csv"), {}
    yield ("bench", "--grid", "9x11x4", "--schedule", "x_reordered", "--seed", "7",
           "--reps", "1", "--format", "csv"), {}


CASES = [{"name": " ".join([*(f"{k}={v}" for k, v in env.items()), "pwadvect", *argv]),
          "argv": list(argv), "env": env,
          "files": {name: text for name, text in FILES.items()
                    if any(f"{{tmp}}/{name}" in a for a in (*argv, *env.values()))}}
         for argv, env in _cases()]
assert len({c["name"] for c in CASES}) == len(CASES), "case names must be unique"


def _mask(text: str) -> str:
    """`bench` rows as JSON or CSV, their MASKED fields replaced by "*"."""
    if text.startswith("["):
        rows = [{k: "*" if k in MASKED else v for k, v in r.items()} for r in json.loads(text)]
        return json.dumps(rows, indent=2) + "\n"
    header, *rows = csv.reader(io.StringIO(text))
    keep = [c not in MASKED for c in header]
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *([v if k else "*" for v, k in zip(r, keep)]
                                         for r in rows)])
    return buf.getvalue()


def prime() -> None:
    """Load (or fail to build) the kernel library before any case runs, so its
    one-time fallback warning is in no transcript."""
    from pwadvect import kernel

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        kernel._compiled()


def run(argv, env, files) -> dict:
    """Exit code, stdout and stderr of `pwadvect *argv` run in-process."""
    from pwadvect import cli

    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            Path(tmp, name).write_bytes(text.encode("latin-1"))
        out, err = io.StringIO(), io.StringIO()
        env = {"COLUMNS": "80", **{k: v.replace("{tmp}", tmp) for k, v in env.items()}}
        with (mock.patch.dict(os.environ, env),
              redirect_stdout(out), redirect_stderr(err),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            try:
                code = cli.main([a.replace("{tmp}", tmp) for a in argv])
            except SystemExit as exc:  # argparse: usage errors and -h
                code = exc.code or 0
            except Exception as exc:
                code = 1
                err.write("Traceback (most recent call last):\n  ...\n"
                          + "".join(traceback.format_exception_only(type(exc), exc)))
        err.writelines(f"{w.category.__name__}: {w.message}\n" for w in caught)
        stdout, stderr = (s.getvalue().replace(tmp, "{tmp}") for s in (out, err))
    if argv and argv[0] == "bench" and code == 0 and "--format" in argv:
        stdout = _mask(stdout)
    return {"exit": code, "stdout": stdout, "stderr": stderr}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed corpus instead of rewriting it")
    args = parser.parse_args(argv)
    prime()
    entries = [{**case, **run(case["argv"], case["env"], case["files"])} for case in CASES]
    if not args.check:
        CORPUS.write_text(json.dumps(entries, indent=1) + "\n")
        print(f"wrote {len(entries)} entries to {CORPUS}")
        return 0
    old = {e["name"]: e for e in json.loads(CORPUS.read_text())}
    new = {e["name"]: e for e in entries}
    changed = [name for name in new if old.get(name) != new[name]]
    gone = [name for name in old if name not in new]
    for name in changed:
        if name in old:
            moved = ", ".join(k for k in new[name] if old[name].get(k) != new[name][k])
            print(f"changed [{moved}]: {name}")
        else:
            print(f"new: {name}")
    for name in gone:
        print(f"removed: {name}")
    return 1 if changed or gone else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
