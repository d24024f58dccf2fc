"""Self-test of the benchmark: its checks bite and its runs repeat.

    python3 perfbench/selftest.py

* A perturbed gamma value in the shared table of ``partition_sums``
  makes jobs fail their cross-route checks.
* A flipped coefficient sign in ``expand_lambda_symbolic`` makes the
  ``cli`` workload's ``expand`` and ``verify`` jobs fail (the sign law,
  a ``verify`` row) and its run-level fixture check.
* Two traced runs with one seed give identical counts and an identical
  digest of all result digits, on every workload.
* Two seeds give different job lists, on every workload.

Exits 0 when every test passes.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import mpmath as mp

import run

sys.path.insert(0, str(run.ROOT / "src"))

import workloads  # noqa: E402


def corrupted_gamma():
    w = workloads.PartitionSums()
    w.setup()
    values = list(w.gamma.values)
    with mp.workprec(w.gamma.precision_bits):
        values[3] = values[3] * (1 + mp.mpf(2) ** -150)
    w.gamma = dataclasses.replace(w.gamma, values=tuple(values))
    jobs = w.jobs(seed=0, seconds=1)
    _, failures, _ = run.run_jobs(w, jobs)
    return len(failures) / len(jobs)


def flipped_sign():
    """Run the cli workload's expand and verify jobs in this process with
    one coefficient of every lambda expansion negated; the function is
    replaced in every zetali module that imported it."""
    original = workloads.li.expand_lambda_symbolic

    def flipped(n):
        exp = original(n)
        key = next(iter(exp.terms))
        exp.terms[key] = -exp.terms[key]
        return exp

    holders = [m for name, m in sorted(sys.modules.items())
               if name.startswith("zetali") and
               getattr(m, "expand_lambda_symbolic", None) is original]
    for module in holders:
        module.expand_lambda_symbolic = flipped
    w = workloads.Cli()
    w.in_process = True
    try:
        w.setup()
        run_failures = w.prepare(seed=0)
        jobs = [job for job in w.jobs(seed=0, seconds=1)
                if job[0][0] in ("expand", "verify")]
        _, failures, _ = run.run_jobs(w, jobs)
    finally:
        for module in holders:
            module.expand_lambda_symbolic = original
        w.close()
    return len(failures) / len(jobs), run_failures


def traced_report(name, seed):
    out = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def main():
    results = []

    frac = corrupted_gamma()
    results.append(("perturbed gamma_3 fails partition_sums jobs", frac > 0,
                    f"failed_frac={frac:.3f}"))
    frac, run_failures = flipped_sign()
    results.append(("flipped lambda coefficient sign fails cli jobs",
                    frac > 0 and bool(run_failures),
                    f"failed_frac={frac:.3f}, run-level: {run_failures[:1]}"))

    for name, cls in workloads.WORKLOADS.items():
        w = cls()
        differ = w.jobs(seed=1, seconds=20) != w.jobs(seed=2, seconds=20)
        results.append((f"{name}: seeds 1 and 2 give different job lists", differ, ""))

    for name in workloads.WORKLOADS:
        (a, res_a), (b, res_b) = traced_report(name, 5), traced_report(name, 5)
        same = (a["counts"] == b["counts"] and a["digest"] == b["digest"]
                and res_a["correct"] and res_b["correct"])
        results.append((f"{name}: one seed twice gives identical counts and digits",
                        same, f"{len(a['counts'])} counts, digest {a['digest'][:12]}"))

    for label, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {label}  {detail}")
    return 0 if all(ok for _, ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
