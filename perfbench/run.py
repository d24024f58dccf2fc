"""Run one benchmark workload against zetali and print its metrics.

    python3 perfbench/run.py --workload partition_sums --seed 1 --seconds 60 --trace 0

Run from anywhere; the repository root is the parent of this directory.
The library is imported from ``src/`` of that root, never an installed
copy.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics.  The line before it is a JSON
report for diagnosis: job counts, the tail percentile used, failures,
a digest of all result digits and the environment.

``--seconds`` sizes the job list: rounds of one job per slot, about
that many seconds of job time at the speed the benchmark was calibrated
on.  The list is a function of workload, seed and seconds only.  On a
slower host the run stops at a round boundary before its job time passes
``DEADLINE`` times ``--seconds``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
#: setup_s is the median of this many set-ups: this process and fresh
#: interpreters, each importing the library cold
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
#: a run starts no round that would, at the median round time so far,
#: take its job time past this multiple of --seconds
DEADLINE = 1.05


def _parse(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def timed_setup(name):
    """Import the library and set the workload up; returns (seconds, workload)."""
    start = perf_counter()
    import workloads  # imports zetali

    workload = workloads.WORKLOADS[name]()
    workload.setup()
    return perf_counter() - start, workload


def _child_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _probe(argv):
    out = subprocess.run([sys.executable, *argv], env=_child_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def run_job(workload, job):
    """Run one job and check it; returns (seconds, failure or None, digits)."""
    start = perf_counter()
    try:
        result = workload.run(job)
    except Exception as exc:  # a job that raises counts as failed
        return perf_counter() - start, f"{job}: {type(exc).__name__}: {exc}", ""
    seconds = perf_counter() - start
    try:
        failure, digits = workload.check(job, result)
    except Exception as exc:
        failure, digits = f"check raised {type(exc).__name__}: {exc}", ""
    return seconds, failure and f"{job}: {failure}", digits


def run_jobs(workload, jobs, digest=None):
    """Run and check every job; returns (job times, failures, digest).
    Pass ``digest`` to carry one digest across several calls."""
    times, failures = [], []
    digest = digest or hashlib.sha256()
    for job in jobs:
        seconds, failure, digits = run_job(workload, job)
        times.append(seconds)
        digest.update(f"{job}={digits};".encode())
        if failure:
            failures.append(failure)
    return times, failures, digest.hexdigest()


def tail(times, planned):
    """(percentile, value): the highest whole percentile with at least ten
    of the ``planned`` jobs above it, by nearest rank over ``times``; the
    median when there are too few.  The percentile depends on the planned
    job list only, so a run cut short reports the same one."""
    q = max(50, (100 * (planned - 10)) // planned) if planned > 10 else 50
    ordered = sorted(times)
    rank = max(1, math.ceil(q * len(ordered) / 100))
    return q, ordered[rank - 1]


def machine_probe():
    """A fixed pure-Python loop; median seconds of three runs."""
    samples = []
    for _ in range(3):
        start = perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def environment():
    import mpmath

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
        "machine.probe_s": machine_probe(),
    }


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def measure(args, workload, setup_samples, setup_probe):
    """The untraced run: end-to-end metrics.  The rounds run one after
    the other until the job list is done or the deadline is near; the
    remaining set-up samples run in fresh interpreters between the first
    rounds, so that they see the host at several moments of the run."""
    planned = workload.rounds(args.seed, workload.round_count(args.seconds))
    run_failures = workload.prepare(args.seed)
    limit = DEADLINE * args.seconds
    jobs, times, round_times, failures = [], [], [], []
    digest = hashlib.sha256()
    for batch in planned:
        if round_times and sum(times) + statistics.median(round_times) > limit:
            break
        batch_times, batch_failures, _ = run_jobs(workload, batch, digest)
        jobs += batch
        times += batch_times
        round_times.append(sum(batch_times))
        failures += batch_failures
        if len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(setup_probe())
    while len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(setup_probe())
    planned_jobs = sum(len(batch) for batch in planned)
    q, tail_value = tail(times, planned_jobs)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": sum(round_times) / len(round_times),
        "job_s.p50": statistics.median(times),
        "job_s.tail": tail_value,
        "peak_rss_mb": peak_rss_mb(children=args.workload == "cli"),
    }
    report = {"jobs": len(jobs), "planned_jobs": planned_jobs,
              "rounds": len(round_times), "planned_rounds": len(planned),
              "job_time_s": sum(times), "tail_percentile": q,
              "failed_frac": len(failures) / len(jobs),
              "setup_samples": setup_samples}
    return planned, jobs, metrics, failures, run_failures, digest.hexdigest(), report


def measure_traced(args, workload):
    """The traced run: per-layer metrics.  Each job of half the job list
    runs twice, once untraced and once traced, in alternating order, so
    the overhead is measured on equal work under the same host speed."""
    from tracer import Tracer

    planned = jobs = workload.jobs(args.seed, args.seconds / 2)
    run_failures = workload.prepare(args.seed)
    tracer = Tracer()
    tracer.job = "setup"
    tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    times = {False: [], True: []}
    failures = []
    digest = hashlib.sha256()
    for index, job in enumerate(jobs):
        digits = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                tracer.job = index
                tracer.install()
            try:
                seconds, failure, digits[traced] = run_job(workload, job)
            finally:
                tracer.uninstall()
            times[traced].append(seconds)
            if failure:
                failures.append(failure)
        digest.update(f"{job}={digits[False]};".encode())
        if digits[True] != digits[False]:
            run_failures.append(f"{job}: traced result differs from untraced result")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    metrics = tracer.metrics()
    metrics["trace_overhead_frac"] = sum(times[True]) / sum(times[False]) - 1
    code = "import time; t = time.perf_counter(); import zetali.cli; print(time.perf_counter() - t)"
    metrics["cli.import_s"] = statistics.median(
        _probe(["-c", code]) for _ in range(IMPORT_SAMPLES))
    counts = {k: v for k, v in sorted(metrics.items())
              if k.endswith(".calls") or k in tracer.counts}
    report = {"jobs": len(jobs), "counts": counts}
    return planned, jobs + jobs, metrics, failures, run_failures, digest.hexdigest(), report


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = _parse(argv, spec)
    if not (ROOT / "src" / "zetali" / "__init__.py").is_file():
        print(f"run.py: no zetali sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        seconds, workload = timed_setup(args.workload)
        workload.close()
        print(seconds)
        return 0

    seconds, workload = timed_setup(args.workload)
    try:
        if args.trace:
            if args.workload == "cli":
                workload.in_process = True
            planned, jobs, metrics, failures, run_failures, digest, report = \
                measure_traced(args, workload)
            wanted = spec["per_layer"]
        else:
            probe = [str(Path(__file__).resolve()), "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--setup-probe"]
            planned, jobs, metrics, failures, run_failures, digest, report = \
                measure(args, workload, [seconds], lambda: _probe(probe))
            wanted = spec["end_to_end"]
    finally:
        workload.close()

    report.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "digest": digest,
        "job_list_sha256": hashlib.sha256(repr(planned).encode()).hexdigest(),
        "failures": failures[:20], "run_failures": run_failures,
        "environment": environment(),
    })
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not failures and not run_failures,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
