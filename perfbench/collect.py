"""Run every workload untraced and traced, and write one results file.

    python3 perfbench/collect.py --seed 1 --out perfbench/results/BENCH_<name>.json

Each run is a separate `run.py` process, as the benchmark contract runs it;
the file holds every record that run.py wrote with --out, in run order.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", required=True, metavar="FILE")
    args = parser.parse_args(argv)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    records = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            part = out_dir / f"{workload}-trace{trace}.json"
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", str(part.relative_to(ROOT))]
            print("running", " ".join(cmd[1:]), flush=True)
            subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            records.append(json.loads(part.read_text()))
    Path(args.out).write_text(json.dumps(
        {"command": "python3 perfbench/collect.py --seed {} --seconds {}".format(
            args.seed, args.seconds), "records": records}, indent=2) + "\n")
    print(f"wrote {len(records)} records to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
