"""One benchmark workload, in a process of its own.

Started by run.py, which sets the BLAS thread count and PYTHONPATH. Set-up
(importing bettiq, generating the inputs from the seed, writing instance
files, one untimed warm-up op) is timed from the moment run.py spawned this
process. Then either:

* trace 0: the timed phase runs whole rounds of ops for about --seconds, with
  no tracing, and probes the machine's speed between ops with the workload's
  reference op (see reference.py); it gives the end-to-end metrics; or
* trace 1: the same rounds run untraced for about --seconds/2, then again
  with every layer boundary wrapped, and give the per-layer metrics.

Exact references are computed afterwards, outside any timed phase, and every
op is checked against them. The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy
import bettiq
from layers import TARGETS, layer_metrics
from metrics import END_TO_END, TAIL_PERCENTILE, percentile, percentile_allowed, samples_beyond
from spans import Tracer
from workloads import WORKLOADS, references

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_DIR = ".perfbench_run"


@dataclass
class Execution:
    op: object
    seconds: float
    summary: dict | None
    error: str | None
    segment: int = 0  # probes of the machine's speed taken before this op


def execute(op, tracer=None, index=None) -> Execution:
    if tracer is not None:
        tracer.op = index
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception:  # an op that raises is a failed op; the run goes on
        return Execution(op, time.perf_counter() - start, None, traceback.format_exc(limit=6))
    seconds = time.perf_counter() - start
    try:
        return Execution(op, seconds, op.summarize(result), None)
    except Exception:
        return Execution(op, seconds, None, traceback.format_exc(limit=6))


def run_rounds(rounds, seconds: float | None = None, count: int | None = None, tracer=None,
               probe=None, probe_every: float = 0.0):
    """Run whole rounds round-robin: `count` of them, or as many as fit in
    `seconds` judging by the last round's length (always at least one).
    With `probe` (a call that returns a reference time), the machine is probed
    before the first op, after an op once `probe_every` seconds have passed
    since the last probe, and after the last op. Returns the executions, the
    wall time spent in ops (probes excluded), the number of rounds run and
    the probe times."""
    executions: list[Execution] = []
    probes: list[float] = []
    probing = 0.0
    last_probe = start = time.perf_counter()

    def take_probe():
        nonlocal probing, last_probe
        before = time.perf_counter()
        probes.append(probe())
        last_probe = time.perf_counter()
        probing += last_probe - before

    if probe:
        take_probe()
    done, last = 0, 0.0
    while (done < count) if count is not None else (
            done == 0 or time.perf_counter() - start + last <= seconds):
        round_start = time.perf_counter()
        for op in rounds[done % len(rounds)]:
            ex = execute(op, tracer, len(executions))
            ex.segment = len(probes) - 1
            executions.append(ex)
            if probe and time.perf_counter() - last_probe >= probe_every:
                take_probe()
        last = time.perf_counter() - round_start
        done += 1
    if probe and executions[-1].segment == len(probes) - 1:
        take_probe()
    return executions, time.perf_counter() - start - probing, done, probes


def check_all(executions, refs) -> tuple[int, list[dict], dict]:
    """Check every execution; return the failure count, the failures, and a
    record per distinct op."""
    failures = []
    records: dict[int, dict] = {}
    for ex in executions:
        op = ex.op
        rec = records.setdefault(id(op), {
            "label": op.label, **op.meta, "S_k": refs[id(op)]["s_count"],
            "betti_exact": refs[id(op)]["betti"], "runs": 0, "failed": 0, "seconds": []})
        rec["runs"] += 1
        rec["seconds"].append(ex.seconds)
        error = ex.error
        if error is None:
            try:
                ok, info = op.check(ex.summary, refs[id(op)])
                rec.update(info)
                if not ok:
                    error = f"wrong result {ex.summary} (exact reference {refs[id(op)]['betti']})"
            except Exception:
                error = traceback.format_exc(limit=6)
        if error is not None:
            rec["failed"] += 1
            failures.append({"op": op.label, "error": error})
    for rec in records.values():
        rec["median_seconds"] = statistics.median(rec.pop("seconds"))
    return len(failures), failures, records


def machine() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env, timeout=30,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the launcher when it started this process")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    source = os.path.join(ROOT, "src", "bettiq")
    if os.path.dirname(os.path.abspath(bettiq.__file__)) != source:
        print(f"error: bettiq imported from {bettiq.__file__}, not from {source}", file=sys.stderr)
        return 2
    run_dir = os.path.join(ROOT, RUN_DIR)
    workdir = os.path.join(run_dir, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        plan = WORKLOADS[args.workload](args.seed, workdir)
        warmup = execute(plan.warmup)
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            spans_path = os.path.join(RUN_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
            result, detail = traced(plan, args.seconds, spans_path)
        else:
            import reference  # a frozen copy of the library, loaded after set-up is timed
            result, detail = timed(plan, args.seconds, reference, args.workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    executions = detail.pop("executions")
    refs = references([ex.op for ex in executions])
    failed, failures, records = check_all(executions, refs)
    if warmup.error is not None:
        failures.insert(0, {"op": "warm-up " + warmup.op.label, "error": warmup.error})
    correct_ops = len(executions) - failed
    if not args.trace:
        result = {"ops_per_ref": metric("ops_per_ref", correct_ops / detail["phase_refs"]),
                  **result}
        detail["figures"]["ops_per_s"] = {"value": correct_ops / detail["phase_seconds"],
                                          "unit": "ops/s"}
    detail.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_s": setup_s, "attempted": len(executions),
        "failed": failed, "fail_frac": failed / len(executions), "failures": failures[:20],
        "machine": machine(), "metrics": result, "ops": list(records.values()),
    })
    detail_path = os.path.join(RUN_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(os.path.join(ROOT, detail_path), "w") as fh:
        json.dump(detail, fh, indent=1, default=float)
    print(json.dumps({
        "setup_s": setup_s, "correct": failed == 0 and warmup.error is None,
        "attempted": len(executions), "failed": failed, "fail_frac": detail["fail_frac"],
        "figures": detail.get("figures", {}), "metrics": result, "detail": detail_path,
    }))
    return 0


def metric(name: str, value: float) -> dict:
    return {"value": value, "unit": END_TO_END[name][0]}


def timed(plan, seconds: float, reference, workload: str):
    """End-to-end metrics with tracing off. Each op's wall time is divided by
    the reference time probed around it (see reference.py); the wall-clock
    figures are kept too, as `figures`, for people to read."""
    work = reference.REFERENCES[workload]()
    executions, wall, rounds, probes = run_rounds(plan.rounds, seconds,
                                                  probe=lambda: reference.probe(work),
                                                  probe_every=reference.PROBE_EVERY_S)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = [ex.seconds for ex in executions]
    refs = reference.scales(probes, [ex.segment for ex in executions])
    scaled = [t / ref for t, ref in zip(times, refs)]
    n = len(times)
    figures = {"op_p50_s": {"value": statistics.median(times), "unit": "s"},
               "ref_s": {"value": statistics.median(probes), "unit": "s",
                         "note": f"median of {len(probes)} probes of the reference op"}}
    if percentile_allowed(TAIL_PERCENTILE, n):
        figures["op_p99_s"] = {"value": percentile(times, TAIL_PERCENTILE), "unit": "s",
                               "note": f"{samples_beyond(TAIL_PERCENTILE, n)} of {n} ops beyond it"}
    metrics = {"op_p50_ref": metric("op_p50_ref", statistics.median(scaled)),
               "peak_rss_mb": metric("peak_rss_mb", rss_mb)}
    detail = {"executions": executions, "phase_seconds": wall, "phase_refs": sum(scaled),
              "rounds": rounds, "op_samples": n, "probes": probes, "figures": figures}
    return metrics, detail


def traced(plan, seconds: float, spans_path: str):
    plain, plain_wall, rounds, _ = run_rounds(plan.rounds, seconds / 2.0)
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        spanned, spanned_wall, _, _ = run_rounds(plan.rounds, count=rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, sum(ex.seconds for ex in spanned), plain_wall, spanned_wall)
    with gzip.open(os.path.join(ROOT, spans_path), "wt") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    detail = {"executions": plain + spanned, "rounds": rounds, "untraced_seconds": plain_wall,
              "traced_seconds": spanned_wall, "spans": spans_path,
              "missing_layers": sorted(tracer.missing), "broken_counters": sorted(tracer.broken)}
    return metrics, detail


if __name__ == "__main__":
    sys.exit(main())
