"""Shared pieces of the benchmark: the check tally, timing summaries, host metadata."""

from __future__ import annotations

import math
import os
import platform
import re
import statistics
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Compulsory traffic of one stencil update: 3 field reads + 3 source writes of
# one float64 each. Computed from array sizes, not measured.
COMPULSORY_BYTES_PER_CELL = 6 * 8
FLOPS_PER_CELL = 53  # the paper's operation credit (21 add/sub + 32 mul)


class Checks:
    """Correctness checks of one run; every check counts toward `attempted`."""

    MAX_MESSAGES = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < self.MAX_MESSAGES:
                self.messages.append(what)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q of them at or below it."""
    s = sorted(samples)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def summarize(samples: list[float]) -> dict:
    """Median, upper quartile and tail of a list of timings, with the count.

    The upper quartile is the statistic the benchmark gates on. On a shared
    host whose CPU speed wanders, a run mixes a base speed, faster stretches
    of 1-20 s that can fill up to about half of it, and rare stalls. The
    median moves with the share of fast stretches and the 90th percentile
    with the stalls; the upper quartile stays on the base speed. The tail is
    the highest percentile with at least ten samples beyond it, None with
    fewer than eleven samples; `tail_pct` says which percentile it is.
    """
    s = sorted(samples)
    n = len(s)
    tail, pct = (s[n - 11], 100.0 * (n - 10) / n) if n >= 11 else (None, None)
    return {"median": statistics.median(s), "p75": percentile(s, 0.75),
            "tail": tail, "tail_pct": pct, "n": n}


def alternate(seconds: float, tracer, rep) -> dict[bool, list]:
    """Call rep(label, tracer or None) alternately untraced and traced.

    Runs until `seconds` have passed and each side has run at least once;
    once the tracer is full, every further call is untraced. Alternating
    lets both sides see the same machine state. Returns the results of
    each side, keyed by whether the call was traced.
    """
    results = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    n = 0
    while not (results[False] and results[True]) or time.perf_counter() < deadline:
        traced = n % 2 == 1 and not tracer.full
        results[traced].append(rep(f"rep{n}", tracer if traced else None))
        n += 1
    return results


def timed(fn, *args, **kwargs):
    """(result, wall seconds) of one call."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def traced_peak(fn, *args, **kwargs):
    """(result, peak bytes allocated during the call), from tracemalloc.

    Only allocations made after tracing starts are counted, so inputs that
    already exist are excluded by construction.
    """
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _size_bytes(text: str) -> int | None:
    m = re.fullmatch(r"\s*(\d+)\s*([KMG]?)\s*", text)
    if not m:
        return None
    return int(m.group(1)) * {"": 1, "K": 1 << 10, "M": 1 << 20, "G": 1 << 30}[m.group(2)]


def last_level_cache() -> dict:
    """Level and size of the largest data cache, read-only from sysfs."""
    best = {"level": None, "bytes": None}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = int((index / "level").read_text())
            kind = (index / "type").read_text().strip()
            size = _size_bytes((index / "size").read_text())
        except (OSError, ValueError):
            continue
        if kind != "Instruction" and size and (best["level"] is None or level > best["level"]):
            best = {"level": level, "bytes": size}
    return best


def git_commit() -> str | None:
    """HEAD commit read from .git without starting a process; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_metadata(seed: int, arrays: dict) -> dict:
    """Where and on what a result was measured.

    `arrays` maps a name to a byte count computed from array sizes; each is
    also given as a multiple of the last-level cache.
    """
    import numpy as np

    llc = last_level_cache()
    sized = {}
    for name, nbytes in arrays.items():
        ratio = nbytes / llc["bytes"] if llc["bytes"] else None
        sized[name] = {"bytes": nbytes, "x_llc": ratio, "source": "computed"}
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "llc_level": llc["level"],
        "llc_bytes": llc["bytes"],
        "arrays": sized,
        "seed": seed,
        "git_commit": git_commit(),
    }
