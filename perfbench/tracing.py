"""In-memory spans around calls into pwadvect, recorded from the benchmark's side.

`Tracer.active` swaps module attributes (the bindings pwadvect looks up at
call time, such as ``pwadvect.schedules.compute_block``) for wrappers that
record one span per call, and puts every original back on exit. No library
code changes. Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

# Spans kept per run; once reached, `alternate` stops tracing further calls.
SPAN_LIMIT = 100_000


@dataclass
class Span:
    sid: int
    parent: int | None
    run: str | None
    name: str
    t0: float
    t1: float = 0.0
    thread: int = 0
    capture: dict | None = field(default=None, repr=False)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def wall(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Collects spans: name, start, end, parent span, run id and thread."""

    def __init__(self):
        self.spans: list[Span] = []
        # Bindings named in a patch list that were missing or not callable.
        self.skipped: set[str] = set()
        self.run: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Worker threads of a schedule start with an empty stack; their spans
        # hang off the innermost span open in the thread that made the tracer.
        self._root_stack = self._stack()

    @property
    def full(self) -> bool:
        return len(self.spans) >= SPAN_LIMIT

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._root_stack[-1] if self._root_stack else None)
        span = Span(next(self._ids), parent.sid if parent else None, self.run, name,
                    time.perf_counter(), thread=threading.get_ident())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _wrap(self, fn, name: str, capture: bool):
        signature = inspect.signature(fn) if capture else None

        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if capture:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                s.capture = {"args": dict(bound.arguments), "result": result}
            return result

        return traced

    @contextmanager
    def active(self, run: str, patches):
        """Trace calls through `patches` while the block runs, under run id `run`.

        `patches` holds (module name, attribute, capture) triples. A binding
        that does not exist is skipped and named in `skipped`, so a refactor
        that drops an import leaves the layer untraced, and says so, instead
        of failing the benchmark. With capture, the span keeps the call's
        bound arguments and its result.
        """
        saved = []
        self.run = run
        try:
            for module_name, attr, capture in patches:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.skipped.add(f"{module_name}.{attr}")
                    continue
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{attr}"
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, capture))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)
            self.run = None

    def runs(self, prefix: str) -> list[list[Span]]:
        """Spans grouped by run id, for the run ids starting with `prefix`."""
        groups = {}
        for s in self.spans:
            if s.run is not None and s.run.startswith(prefix):
                groups.setdefault(s.run, []).append(s)
        return list(groups.values())

    def children(self) -> dict[int, list[Span]]:
        kids = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                kids[s.parent].append(s)
        return kids

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part of its interval that child spans cover."""
        kids = self.children()
        out = {}
        for s in self.spans:
            covered, end = 0.0, s.t0
            for c in sorted(kids.get(s.sid, ()), key=lambda c: c.t0):
                lo, hi = max(c.t0, end), min(c.t1, s.t1)
                if hi > lo:
                    covered += hi - lo
                    end = hi
            out[s.sid] = s.wall - covered
        return out

    def layer_self_s(self, runs: list[list[Span]], layers) -> dict[str, float]:
        """`<layer>.self_s`: a layer's self time per run, averaged over `runs`."""
        own = self.self_times()
        return {f"{layer}.self_s": sum(own[s.sid] for spans in runs for s in spans
                                       if s.layer == layer) / len(runs)
                for layer in layers}

    def write(self, path) -> None:
        """One JSON object per span; captured arguments are not written."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "parent": s.parent, "run": s.run,
                                     "name": s.name, "start": s.t0, "end": s.t1,
                                     "thread": s.thread}) + "\n")


def maybe_span(tracer: Tracer | None, name: str):
    """A span when tracing, otherwise nothing."""
    return tracer.span(name) if tracer else nullcontext()


def maybe_active(tracer: Tracer | None, run: str, patches):
    """`tracer.active` when tracing, otherwise nothing."""
    return tracer.active(run, patches) if tracer else nullcontext()
