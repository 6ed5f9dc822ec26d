#!/usr/bin/env python3
"""Record one result set: every workload once untraced and once traced.

    python3 perfbench/record.py [--seed 1] [--seconds N]

Each run is a separate `run.py` process, as the benchmark is used.  The
set goes to `perfbench/results/BENCH_<commit>.json`, with the tracing
overhead per workload (traced pass wall time minus untraced `wall_s`).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        out = Path(tmp) / "record.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--out", str(out)],
            capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            raise SystemExit(f"{workload} trace={trace} failed:\n{proc.stderr}")
        record = json.loads(out.read_text(encoding="utf-8"))
    record["result"] = json.loads(proc.stdout.strip().splitlines()[-1])
    for p in record["passes"]:
        p["failures"] = p["failures"][:10]
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=json.loads(
        (run.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args()
    run.WORK.mkdir(exist_ok=True)
    results = {}
    for workload in workloads.WORKLOADS:
        plain = one_run(workload, args.seed, args.seconds, 0)
        traced = one_run(workload, args.seed, args.seconds, 1)
        wall = plain["metrics"]["wall_s"]["value"]
        traced_wall = traced["metrics"]["traced.wall_s"]["value"]
        results[workload] = {
            "untraced": plain, "traced": traced,
            "tracing_overhead_s": traced_wall - wall,
            "tracing_overhead_share": (traced_wall - wall) / wall,
        }
        print(f"{workload:12s} wall_s {wall:.3f}  traced {traced_wall:.3f}  "
              f"failed {plain['result']['failed']}/{plain['result']['attempted']}")
    commit = run.git_commit() or "unknown"
    path = HERE / "results" / f"BENCH_{commit[:7]}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"commit": commit, "seed": args.seed,
                                "seconds": args.seconds,
                                "workloads": results}, indent=1) + "\n",
                    encoding="utf-8")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
