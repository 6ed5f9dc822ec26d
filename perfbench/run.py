#!/usr/bin/env python3
"""The clustercount benchmark: time to a checked count, end to end and per layer.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 40 --trace 0

One client drives `clustercount.cli.main(argv)` in-process as a closed
loop: each command starts when the previous one has returned, as for a
user waiting on each answer.  Stdout is captured and parsed as JSON, and
every answer is compared exactly with a reference computed outside the
timed region (see `workloads.py`).

A run builds the package in place if it has not been built in this
checkout, then sets up (imports the package and generates the seeded
inputs, several times; `setup_s` is the median).  Then it times passes over
the workload's op list, each on fresh seeded inputs whose references are
computed first, until the next pass would take the timed total past
`--seconds` (always at least one pass).  `wall_s` and `cpu_s` are
medians over passes, and `op_ms.p50` and `op_ms.p90` are percentiles over
every op of the run.  With `--trace 1` it times one pass with every layer
wrapped (see `spans.py`) and reports per-layer metrics instead; the spans
of the last traced run of each workload are written to
`.bench_build/spans/<workload>.npz`.

The last line of stdout is one JSON object with keys `correct`, `attempted`,
`failed` and `metrics`.  `--out FILE` also writes the full record: the
environment stamp, the input census (traced runs), per-pass figures and
every failure.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
SETUP_REPEATS = 15
GATE_SAMPLE = 6
GATE_NUMPY_MAX = 200_000
GATE_SCALAR_MAX = 4_000
PERCENTILES = (50, 90, 95, 99, 99.9)

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_ms.p50": "ms",
              "op_ms.p90": "ms", "cpu_s": "s", "peak_rss_mb": "MB"}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("assign_per_s"):
        return "1/s"
    if metric.endswith((".s", "self_s", "wall_s")):
        return "s"
    if metric.endswith(("ratio", "share")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail_percentile(samples: int) -> float | None:
    """The highest of PERCENTILES with at least ten samples beyond it."""
    ok = [p for p in PERCENTILES if samples * (100 - Fraction(str(p))) >= 1000]
    return max(ok) if ok else None


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (NumPy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


# ---------------------------------------------------------------------------
# build, set-up, references
# ---------------------------------------------------------------------------

def build() -> None:
    """Build the optional compiled kernel in place, once per checkout."""
    stamp = WORK / "built"
    if stamp.exists():
        return
    if not (ROOT / "setup.py").is_file():
        raise SystemExit(f"error: no setup.py under {ROOT}")
    proc = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                          cwd=ROOT, capture_output=True, text=True, timeout=850)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("error: build failed")
    WORK.mkdir(exist_ok=True)
    stamp.write_text(proc.stdout, encoding="utf-8")


def import_cli():
    """Import `clustercount.cli` afresh from this checkout's sources."""
    for name in [m for m in sys.modules
                 if m == "clustercount" or m.startswith("clustercount.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("clustercount.cli")
    origin = Path(sys.modules["clustercount"].__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"error: clustercount imported from {origin}, not {SRC}")
    return cli


def set_up(workload: str, seed: int, jobs: int, inputs: Path):
    """Import and generate SETUP_REPEATS times; returns the last set-up and
    the median time.  The first repeat also pays NumPy's import.  The input
    files are written after the timer stops: on a disk shared with other
    work, writing the 164 small files of `enumerate` took 9-126 ms, and
    swamped the import's 45-70 ms."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # drop the previous import's modules before timing
        t0 = time.perf_counter()
        cli = import_cli()
        ops = workloads.generate(workload, seed, jobs, inputs / "0")
        times.append(time.perf_counter() - t0)
    workloads.write_inputs(ops)
    return cli, ops, statistics.median(times)


def engine_gate(ops, seed: int) -> list[str]:
    """Re-count a seeded sample with every available engine; disagreements."""
    from clustercount import brute_count
    from clustercount.counting import EXTENSION_AVAILABLE

    small = [op for op in ops if op.variety is not None
             and op.variety.q ** op.variety.n <= GATE_NUMPY_MAX]
    small.sort(key=lambda op: op.variety.q ** op.variety.n)
    sample = random.Random(f"gate:{seed}").sample(small[1:], GATE_SAMPLE - 1)
    problems = []
    for op in [small[0]] + sample:
        inst = workloads.instance_of(op.variety)
        engines = ["numpy"] + (["ext"] if EXTENSION_AVAILABLE else [])
        if op.variety.q ** op.variety.n <= GATE_SCALAR_MAX:
            engines.append("scalar")
        for engine in engines:
            got = brute_count(inst, jobs=1, engine=engine).count
            if got != op.expected:
                problems.append(f"engine {engine} counts {got}, reference "
                                f"{op.expected}: {' '.join(op.argv)}")
    return problems


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------

def call(cli, argv, tracer=None):
    """One CLI invocation: (seconds, exit code, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    idx = tracer.enter("cli.main") if tracer else None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001 - an op that crashes counts as failed
        code, error = -1, traceback.format_exc()
    elapsed = time.perf_counter() - t0
    if tracer:
        tracer.exit(idx)
    return elapsed, code, out.getvalue(), error or err.getvalue()


def run_pass(cli, ops, tracer=None) -> dict:
    results = []
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    for op in ops:
        results.append(call(cli, op.argv, tracer))
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    failures, engines = [], set()
    for op, (_, code, stdout, error) in zip(ops, results):
        parsed = workloads.parse_stdout(stdout)
        problem = workloads.check_output(op, code, parsed)
        if problem:
            failures.append({"argv": op.argv, "problem": problem,
                             "stderr": error[-2000:]})
        if isinstance(parsed, dict):
            brute = parsed.get("methods", {}).get("brute", {})
            if "engine" in brute:
                engines.add(brute["engine"])
    latencies = [r[0] * 1000 for r in results]
    return {"wall_s": wall, "cpu_s": cpu, "ops": len(ops),
            "latencies_ms": latencies,
            "op_ms.p50": percentile(latencies, 50),
            "op_ms.p90": percentile(latencies, 90),
            "tail_percentile": tail_percentile(len(latencies)),
            "failures": failures, "engines": sorted(engines)}


def git_commit() -> str | None:
    """HEAD of the checkout, read without running git; None outside a repo."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(args, jobs: int, engines) -> dict:
    import numpy
    from clustercount.counting import EXTENSION_AVAILABLE

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": jobs, "extension_available": EXTENSION_AVAILABLE,
            "engines_chosen": sorted(engines), "git_commit": git_commit(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "traced": bool(args.trace),
            "machine": platform.machine()}


def measure(args) -> tuple[dict, dict]:
    """Everything one run measures: (final result line, full record)."""
    jobs = len(os.sched_getaffinity(0))
    inputs = WORK / "inputs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = spans.Tracer() if args.trace else None
    passes = []
    try:
        cli, ops, setup_s = set_up(args.workload, args.seed, jobs, inputs)
        while True:
            k = len(passes)
            if k:
                ops = workloads.generate(args.workload, args.seed, jobs,
                                         inputs / str(k), k)
                workloads.write_inputs(ops)
            workloads.compute_references(
                ops, random.Random(f"reference:{args.seed}:{k}"))
            if k == 0:
                gate = (engine_gate(ops, args.seed)
                        if args.workload == "enumerate" else [])
                if tracer:
                    tracer.install()
            passes.append(run_pass(cli, ops, tracer))
            walls = [p["wall_s"] for p in passes]
            if tracer or sum(walls) + max(walls) > args.seconds:
                break
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    attempted = sum(p["ops"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    engines = {e for p in passes for e in p["engines"]}
    record = {"env": environment(args, jobs, engines), "passes": passes,
              "engine_gate": gate, "failed_frac": len(failures) / attempted}
    if tracer:
        tracer.uninstall()
        metrics = spans.layer_metrics(tracer)
        metrics["traced.wall_s"] = passes[0]["wall_s"]
        from clustercount import counting
        record["census"] = spans.census(
            tracer, getattr(counting, "_PARALLEL_THRESHOLD", None))
        record["untraced_layers"] = tracer.missing
        spandir = WORK / "spans"
        spandir.mkdir(parents=True, exist_ok=True)
        span_file = spandir / f"{args.workload}.npz"
        tracer.write(span_file)
        record["spans_file"] = str(span_file.relative_to(ROOT))
    else:
        metrics = {"setup_s": setup_s}
        for name in ("wall_s", "cpu_s"):
            metrics[name] = statistics.median(p[name] for p in passes)
        # over every op of the run: each pass draws its inputs afresh, and
        # pooling the draws steadies a percentile more than a median of
        # per-pass percentiles does
        latencies = [ms for p in passes for ms in p["latencies_ms"]]
        for pct in (50, 90):
            metrics[f"op_ms.p{pct}"] = percentile(latencies, pct)
        metrics["peak_rss_mb"] = peak_rss_mb()
    record["metrics"] = {k: {"value": v, "unit": unit_of(k)}
                         for k, v in metrics.items()}
    result = {"correct": not failures and not gate, "attempted": attempted,
              "failed": len(failures), "metrics": record["metrics"]}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record here")
    args = parser.parse_args(argv)
    if not SRC.is_dir():
        print(f"error: no clustercount sources under {ROOT}", file=sys.stderr)
        return 2
    build()
    result, record = measure(args)
    env = record["env"]
    print(f"# {args.workload} seed={args.seed} traced={env['traced']} "
          f"passes={len(record['passes'])} python={env['python']} "
          f"numpy={env['numpy']} nproc={env['nproc']} "
          f"extension={env['extension_available']} "
          f"engines={','.join(env['engines_chosen']) or '-'} "
          f"commit={env['git_commit']}")
    for name, m in record["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':40s} {record['failed_frac']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    for problem in record["engine_gate"]:
        print(f"engine gate: {problem}")
    for failure in [f for p in record["passes"] for f in p["failures"]][:5]:
        print(f"failed: {' '.join(failure['argv'])}: {failure['problem']}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n",
                                  encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
