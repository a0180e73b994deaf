"""The model workload: every `validate` anchor, `calibrate`, and a scaling-table sweep.

Only this workload executes the analytic model (dataflow, transfer, params,
refdata). Its outputs are exact, so every repetition must reproduce the
first one bit for bit. All model quantities reported here are simulated.
"""

from __future__ import annotations

import hashlib
import io
import statistics
import time
from contextlib import redirect_stdout

from pwadvect import calibrate, cli, end_to_end, load_params, scaling_table, transfer_volume
from pwadvect.refdata import GRID_LADDER, GRID_LARGEST, GRID_STRATUS, HEADLINE

from harness import alternate, summarize, traced_peak
from tracing import Tracer, maybe_active, maybe_span

# Bindings wrapped in the traced run. With capture, a span keeps the call's
# arguments and result, from which the simulated per-layer terms are read.
MODEL_PATCHES = (
    ("pwadvect.transfer", "end_to_end", False),
    ("pwadvect.transfer", "kernel_time", True),
    ("pwadvect.transfer", "dma_time", False),
    ("pwadvect.transfer", "transfer_volume", False),
    ("pwadvect.dataflow", "kernel_time", True),
    ("pwadvect.dataflow", "kernel_compute_cycles", True),
    ("pwadvect.dataflow", "kernel_memory_seconds", True),
    ("pwadvect.dataflow", "kernel_memory_bytes", True),
    ("pwadvect.dataflow", "pipeline_cycles", True),
    ("pwadvect.cli", "pipeline_cycles", False),
    ("pwadvect.cli", "pipeline_latency", False),
    ("pwadvect.cli", "kernel_time", False),
    ("pwadvect.cli", "end_to_end", False),
    ("pwadvect.cli", "transfer_volume", False),
    ("pwadvect.cli", "dma_time", False),
    ("pwadvect.cli", "load_params", False),
)

SWEEP_GRIDS = {"ladder": GRID_LADDER, "stratus": GRID_STRATUS, "largest": GRID_LARGEST}
SWEEP_ENGINES = tuple(range(1, 13))
SWEEP_Y_BATCHES = (16, 32, 64)
SWEEP_CONFIGS = len(SWEEP_GRIDS) * len(SWEEP_ENGINES) * len(SWEEP_Y_BATCHES)
# Simulated per-layer terms are read at these (grid, engines, y_batch) points.
PROBES = {"ladder_e1": (GRID_LADDER, 1, 64), "largest_e12": (GRID_LARGEST, 12, 64)}
# Passes per timed sample. One pass takes about 1.5 ms, so a sample takes
# about 0.1 s and a run holds well over the eleven samples a tail needs.
PASSES_PER_SAMPLE = 50
# A traced pass records about 900 spans, so traced samples are shorter.
TRACED_PASSES_PER_SAMPLE = 5
VALIDATES_PER_SAMPLE = 3


def builtin_observations(p):
    """The two published kernel times `calibrate` is fitted to by default."""
    t_largest = (GRID_LARGEST.cells * p.flops.total_per_cell
                 / (HEADLINE["gflops_kernel"].value * 1e9))
    return [(GRID_LADDER, 1, HEADLINE["ladder_final_ms"].value / 1e3),
            (GRID_LARGEST, 12, t_largest)]


def anchor_errors(p) -> dict:
    """|modelled - published| / published for the HEADLINE anchors the
    end-to-end model and the transfer layer compute. The pipeline cycle and
    latency anchors are exact identities, gated by `validate`."""
    ladder = end_to_end(GRID_LADDER, 1, p.pipeline, p.memory, p.dma,
                        p.y_batch, p.flops, p.controllers)
    largest = end_to_end(GRID_LARGEST, 12, p.pipeline, p.memory, p.dma,
                         p.y_batch, p.flops, p.controllers)
    stratus = end_to_end(GRID_STRATUS, 12, p.pipeline, p.memory, p.dma,
                         p.y_batch, p.flops, p.controllers)
    modelled = {
        "ladder_final_ms": ladder.kernel_seconds * 1e3,
        "gflops_kernel": largest.gflops_kernel,
        "gflops_total": largest.gflops_total,
        "dma_round_trip_seconds": largest.dma_seconds,
        "dma_fraction_12": stratus.dma_fraction,
        "volume_both_gb": transfer_volume(GRID_LARGEST, "both"),
        "volume_one_way_gb": transfer_volume(GRID_LARGEST, "to_card"),
    }
    return {k: abs(v - HEADLINE[k].value) / HEADLINE[k].value for k, v in modelled.items()}


def model_pass(p, obs, tracer=None):
    """calibrate + the sweep; returns (outputs, sweep wall seconds)."""
    with maybe_span(tracer, "dataflow.calibrate"):
        cal = calibrate(obs, p.pipeline, p.y_batch, p.controllers, base=p.memory)
    t0 = time.perf_counter()
    tables = []
    for dims in SWEEP_GRIDS.values():
        for y_batch in SWEEP_Y_BATCHES:
            with maybe_span(tracer, "transfer.scaling_table"):
                tables.append(scaling_table(dims, SWEEP_ENGINES, p.pipeline, p.memory, p.dma,
                                            y_batch, p.flops, p.controllers))
    return (cal, tables), time.perf_counter() - t0


def digest(outputs) -> str:
    cal, tables = outputs
    h = hashlib.blake2b(digest_size=8)
    h.update(repr((cal.model, cal.relative_residuals)).encode())
    for rows in tables:
        for row in rows:
            h.update(repr(row).encode())
    return h.hexdigest()


def run_validate(tracer=None) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf), maybe_span(tracer, "cli.main"):
        code = cli.main(["validate"])
    return code, buf.getvalue()


class ModelBench:
    """The model workload's repetitions and their checks."""

    def __init__(self, checks):
        self.checks = checks
        self.expected = None
        self.validate_text = None

    def verify(self, passes, validates, rep: str) -> None:
        c = self.checks
        for outputs in passes:
            got = digest(outputs)
            if self.expected is None:
                self.expected = got
            else:
                c.check(got == self.expected, f"{rep}: model outputs changed")
        for code, text in validates:
            c.check(code == 0, f"{rep}: validate exited {code}")
            for line in text.splitlines():
                if line.startswith(("PASS", "FAIL")):
                    c.check(line.startswith("PASS"), f"{rep}: {line}")
            if self.validate_text is None:
                self.validate_text = text
            else:
                c.check(text == self.validate_text, f"{rep}: validate output changed")

    def rep(self, label, tracer=None) -> dict:
        """One sample: a batch of load_params, as many model passes, then validates.

        Each phase is timed as one batch: one load_params takes about 50 us
        and one validate about 3 ms, too short to time one by one on a host
        whose speed wanders. Returns the mean wall per call of set-up, pass,
        sweep and validate.
        """
        count = TRACED_PASSES_PER_SAMPLE if tracer else PASSES_PER_SAMPLE
        with maybe_active(tracer, label, MODEL_PATCHES), maybe_span(tracer, "bench.rep"):
            t0 = time.perf_counter()
            for _ in range(count):
                with maybe_span(tracer, "params.load_params"):
                    p = load_params()
            t1 = time.perf_counter()
            passes, sweep = [], 0.0
            for _ in range(count):
                outputs, sweep_wall = model_pass(p, builtin_observations(p), tracer)
                passes.append(outputs)
                sweep += sweep_wall
            t2 = time.perf_counter()
            validates = [run_validate(tracer) for _ in range(VALIDATES_PER_SAMPLE)]
            t3 = time.perf_counter()
        self.verify(passes, validates, label)
        return {"setup": (t1 - t0) / count, "run": (t2 - t1) / count, "sweep": sweep / count,
                "validate": (t3 - t2) / VALIDATES_PER_SAMPLE}


def run_untraced(seconds: float, checks) -> tuple[dict, dict]:
    bench = ModelBench(checks)
    p = load_params()
    errors = anchor_errors(p)
    (outputs, _), peak = traced_peak(model_pass, p, builtin_observations(p))
    samples = {"setup": [], "run": [], "sweep": [], "validate": []}
    deadline = time.perf_counter() + seconds
    while not samples["run"] or time.perf_counter() < deadline:
        for key, wall in bench.rep(f"rep{len(samples['run'])}").items():
            samples[key].append(wall)
    run, verify = summarize(samples["run"]), summarize(samples["validate"])
    metrics = {
        "setup_s": statistics.median(samples["setup"]),
        "run_s_p75": run["p75"],
        "verify_s_p75": verify["p75"],
        "peak_mem_mb": peak / 1e6,
    }
    details = {
        "model_max_rel_err": max(errors.values()),
        "model_rel_err": errors,
        "model_configs_per_s": SWEEP_CONFIGS / statistics.median(samples["sweep"]),
        "sweep_configs": SWEEP_CONFIGS,
        "passes_per_sample": PASSES_PER_SAMPLE,
        "run_s_median": run["median"],
        "run_s_tail": run["tail"],
        "run_s_tail_pct": run["tail_pct"],
        "run_samples": run["n"],
        "verify_s_median": verify["median"],
        "calibrated": {"eff_bandwidth_1": outputs[0].model.eff_bandwidth_1,
                       "contention": outputs[0].model.contention},
        "digest": bench.expected,
    }
    return metrics, details


def _probe(tracer: Tracer, dims, engines, y_batch) -> dict:
    """Simulated terms of the kernel_time call the sweep made at one point."""
    by_id = {s.sid: s for s in tracer.spans}
    kids = tracer.children()
    for s in tracer.spans:
        if s.name != "dataflow.kernel_time" or s.capture is None:
            continue
        args = s.capture["args"]
        parent = by_id.get(s.parent)
        grand = by_id.get(parent.parent) if parent else None
        if (args["dims"], args["engines"], args["y_batch"]) != (dims, engines, y_batch):
            continue
        if grand is None or grand.name != "transfer.scaling_table":
            continue
        found = {c.name: c for c in kids.get(s.sid, ())}
        cycles_span = found.get("dataflow.kernel_compute_cycles")
        mem_span = found.get("dataflow.kernel_memory_seconds")
        if cycles_span is None or mem_span is None:
            break
        cycles = cycles_span.capture["result"]
        clock = cycles_span.capture["args"]["spec"].clock_hz
        pipe = next(c for c in kids[cycles_span.sid] if c.name == "dataflow.pipeline_cycles")
        run = pipe.capture["result"]
        runs = cycles / run.total_cycles
        sdram = next(c for c in kids[mem_span.sid] if c.name == "dataflow.kernel_memory_bytes")
        return {
            "fill_drain_cycles": runs * run.fill_cycles,
            "stream_cycles": runs * (run.total_cycles - run.fill_cycles),
            "sdram_bytes": sdram.capture["result"],
            "compute_s": cycles / clock,
            "memory_s": mem_span.capture["result"],
        }
    print(f"warning: no traced kernel_time call at {dims} x{engines} y_batch {y_batch}")
    return dict.fromkeys(("fill_drain_cycles", "stream_cycles", "sdram_bytes",
                          "compute_s", "memory_s"), 0.0)


def run_traced(seconds: float, checks, tracer: Tracer) -> tuple[dict, dict]:
    reps = alternate(seconds, tracer, ModelBench(checks).rep)
    walls = {traced: [r["run"] for r in rs] for traced, rs in reps.items()}
    sweeps = {traced: [r["sweep"] for r in rs] for traced, rs in reps.items()}
    loop = tracer.runs("rep")
    metrics = {}
    for probe, point in PROBES.items():
        for key, value in _probe(tracer, *point).items():
            metrics[f"dataflow.{key}.{probe}"] = value
    p = load_params()
    (cal, tables), _ = model_pass(p, builtin_observations(p))
    metrics["dataflow.calibrate_max_resid"] = max(abs(r) for r in cal.relative_residuals)
    largest = tables[-1][-1]  # GRID_LARGEST, y_batch 64, 12 engines
    metrics["transfer.dma_bytes"] = transfer_volume(GRID_LARGEST, "both")
    metrics["transfer.dma_s"] = largest.dma_seconds
    metrics["transfer.dma_fraction"] = largest.dma_fraction
    metrics["cli.validate_checks"] = sum(
        1 for line in run_validate()[1].splitlines() if line.startswith(("PASS", "FAIL")))
    metrics["cli.validate_s"] = statistics.median(
        s.wall for spans in loop for s in spans if s.name == "cli.main")
    metrics["params.load_s"] = statistics.median(
        s.wall for spans in loop for s in spans if s.name == "params.load_params")
    metrics.update(tracer.layer_self_s(loop, ("dataflow", "transfer", "cli", "params")))
    untraced, traced = statistics.median(walls[False]), statistics.median(walls[True])
    metrics["trace.overhead_frac"] = traced / untraced - 1
    metrics["trace.spans"] = len(tracer.spans)
    details = {
        "model_configs_per_s_untraced": SWEEP_CONFIGS / statistics.median(sweeps[False]),
        "model_configs_per_s_traced": SWEEP_CONFIGS / statistics.median(sweeps[True]),
        "untraced_samples": len(walls[False]),
        "traced_samples": len(walls[True]),
        "labels": {"dataflow.*": "simulated", "transfer.dma_s": "simulated",
                   "transfer.dma_fraction": "simulated",
                   "transfer.dma_bytes": "computed from array sizes"},
    }
    return metrics, details
