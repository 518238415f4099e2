"""bettiq benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (see BENCHMARK.json and perfbench/README.md) in a fresh
process, with the BLAS thread count fixed here, from the repository's own
src/ tree. With --trace 0 it prints the end-to-end metrics; set-up is
repeated in separate processes and its median is reported. With --trace 1 it
prints the per-layer metrics of a traced run. Every op is checked against
the exact oracle. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Details of the run, including
each op's n, k, C, |S_k| and P and the machine it ran on, go to
.perfbench_run/<workload>-seed<n>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from metrics import END_TO_END

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("census6", "er_exact", "er_sampled", "encoding_verify")
BLAS_THREADS = 1  # at most nproc on any machine; one thread keeps timings steady on shared cores
SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0


class BenchmarkError(RuntimeError):
    pass


def child(args, env, deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawned-at", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    try:
        # on timeout, subprocess.run kills the child and waits for it
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"workload process exceeded {TIME_LIMIT_S:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bettiq benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    threads = str(BLAS_THREADS)
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = [] if args.trace else [
            child(args, env, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_REPEATS - 1)]
        result = child(args, env, deadline)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": END_TO_END["setup_s"][0]},
                   **metrics}
    print(f"{args.workload} seed={args.seed} trace={args.trace} blas_threads={threads}: "
          f"{result['attempted']} ops, {result['failed']} failed "
          f"(fail_frac {result['fail_frac']:.4g}); details in {result['detail']}")
    for name, fig in result["figures"].items():  # wall-clock figures, not declared metrics
        note = f" ({fig['note']})" if "note" in fig else ""
        print(f"  {name:<40} {fig['value']:.6g} {fig['unit']}{note}")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
