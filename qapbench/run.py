"""Benchmark of the qaplandscape CLI and library.

    python3 qapbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. For each workload it derives
every input from the seed, times set-up in fresh processes, then runs the
workload in one child process (`workload.py`) with `src` on PYTHONPATH and
the BLAS thread counts pinned to 1. With --trace 0 it reports the end-to-end
metrics of BENCHMARK.json, with --trace 1 the per-layer ones. It prints a
readable summary and, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

Exit status 0 when a result was printed (its "correct" flag says whether
every output check passed), 2 when the checkout has no library source or a
child process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, make_inputs, spec_for

HERE = Path(__file__).resolve().parent
# Fresh processes timed for setup_s, half before and half after the workload
# so that they sample the machine's speed at both ends of the run; one more
# runs first to compile bytecode.
SETUP_PROBES = 8
# Every run must end within 180 s; leave room to report.
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(root / "src")
    return env


def time_setup(inputs_path: Path, root: Path, env: dict) -> float:
    """Seconds from process start until the probe reports its instance ready."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(inputs_path)]
    start = perf_counter()
    with subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("set-up probe did not exit") from None
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"set-up probe failed: {line.strip()} {err.strip()[-500:]}")
    return elapsed


def run_workload(name: str, seed: int, seconds: int, trace: int, size: str,
                 root: Path) -> dict:
    began = perf_counter()
    spec = spec_for(name, size)
    outdir = root / ".bench_out" / f"{name}-seed{seed}-{size}"
    outdir.mkdir(parents=True, exist_ok=True)
    make_inputs(spec, seed, outdir)
    inputs_path = outdir / "inputs.json"
    env = child_env(root)

    setup = []
    if not trace:
        time_setup(inputs_path, root, env)
        setup = [time_setup(inputs_path, root, env) for _ in range(SETUP_PROBES // 2)]

    cmd = [sys.executable, str(HERE / "workload.py"), str(inputs_path),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(1.0, DEADLINE_S - (perf_counter() - began)))
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload {name} did not finish in time") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"workload {name} failed:\n{proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if setup:
        setup += [time_setup(inputs_path, root, env) for _ in range(SETUP_PROBES // 2)]
        result["metrics"]["setup_s"] = statistics.median(setup)
        result["info"]["setup_probes"] = len(setup)
    return result


def report(name: str, result: dict, declared: list) -> dict:
    """Print the readable summary; return the machine-readable result."""
    metrics = {}
    for entry in declared:
        if entry["name"] not in result["metrics"]:
            raise BenchError(f"workload {name} did not measure {entry['name']}")
        metrics[entry["name"]] = {
            "value": result["metrics"][entry["name"]], "unit": entry["unit"],
        }
    info = result["info"]
    print(f"workload {name}: " + ", ".join(f"{k} {v}" for k, v in info.items()))
    for key, m in metrics.items():
        print(f"  {key:34s} {m['value']:>16.6g} {m['unit']}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':34s} {rate:>16.6g} ratio "
          f"({result['failed']} failed of {result['attempted']} operations)")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qaplandscape benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny sizes for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "qaplandscape" / "__init__.py").is_file():
        print("error: no library source at src/qaplandscape; "
              "run from the root of a qaplandscape checkout", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace,
                                  args.size, root)
            lines[name] = report(name, result, declared)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in lines.values()),
            "attempted": sum(r["attempted"] for r in lines.values()),
            "failed": sum(r["failed"] for r in lines.values()),
            "workloads": lines,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
