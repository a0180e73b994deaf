"""pwadvect benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Workloads: ladder_ref, xreorder_2eng (host kernel and schedules) and
model_anchors (the analytic model). The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics of a separate
traced run with --trace 1. Metric names and units come from BENCHMARK.json.
--out also writes the result with its details and host metadata. The
pwadvect package is imported from the src/ directory next to perfbench/,
never from an installed copy; without it the run exits non-zero and prints
no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("ladder_ref", "xreorder_2eng", "model_anchors")


def _import_pwadvect():
    if not (SRC / "pwadvect" / "__init__.py").is_file():
        sys.exit(f"error: no pwadvect sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pwadvect

    if Path(pwadvect.__file__).resolve().parent != (SRC / "pwadvect").resolve():
        sys.exit(f"error: pwadvect imported from {pwadvect.__file__}, not {SRC}")


def _metric_table(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _workload_arrays(name: str) -> dict:
    """Byte sizes, computed from array shapes, that the run keeps live."""
    from host_workloads import WORKLOADS as HOST
    from pwadvect import make_grid

    if name not in HOST:
        return {}
    field = make_grid(*HOST[name].grid).padded_len * 8
    return {"padded_field": field, "inputs_3_fields": 3 * field,
            "inputs_and_outputs_6_fields": 6 * field}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE", help="also write the full record as JSON")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_pwadvect()
    os.environ.pop("PWADVECT_PARAMS", None)  # the model always runs on built-in defaults
    units = _metric_table(bool(args.trace))

    from harness import Checks, host_metadata
    from tracing import Tracer

    checks = Checks()
    tracer = Tracer() if args.trace else None
    if args.workload == "model_anchors":
        import model_workload as wl

        measured = (wl.run_traced(args.seconds, checks, tracer) if tracer
                    else wl.run_untraced(args.seconds, checks))
    else:
        import host_workloads as wl

        workload = wl.WORKLOADS[args.workload]
        measured = (wl.run_traced(workload, args.seed, args.seconds, checks, tracer) if tracer
                    else wl.run_untraced(workload, args.seed, args.seconds, checks))
    values, details = measured

    unknown = sorted(set(values) - set(units))
    if unknown:
        sys.exit(f"error: metrics missing from BENCHMARK.json: {unknown}")
    if not args.trace:
        missing = sorted(set(units) - set(values))
        if missing:
            sys.exit(f"error: end-to-end metrics not measured: {missing}")
    # A layer this workload never calls reports 0.
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}

    if tracer:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans_{args.workload}.jsonl"
        tracer.write(spans_path)
        details["spans_file"] = str(spans_path.relative_to(ROOT))
        # A binding that moved leaves its layer's metrics at 0; say which.
        details["untraced_bindings"] = sorted(tracer.skipped)
        for name in details["untraced_bindings"]:
            print(f"warning: {name} not found, its calls are not traced")
    details["failed_frac"] = checks.failed / checks.attempted
    host = host_metadata(args.seed, _workload_arrays(args.workload))
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "result": result, "details": details,
                  "check_failures": checks.messages, "host": host}
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")

    for msg in checks.messages:
        print(f"FAIL {msg}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    for name, value in details.items():
        if isinstance(value, (int, float)):
            print(f"{args.workload}  {name} = {value:.6g}")
    print(f"{args.workload}  checks {checks.attempted - checks.failed}/{checks.attempted} passed")
    print(f"{args.workload}  host {json.dumps(host)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
