"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --seeds 1-10 [--workloads cli] [--trace 1]
        [--seconds S] [--json out.json]

Runs ``run.py`` once per (workload, seed), one at a time, with the
``run_seconds`` of BENCHMARK.json unless ``--seconds`` is given, and
prints per workload and metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  ``--json`` also
writes the summary and every raw result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def lean(item):
    """One run as kept in the JSON summary: the result and the diagnosis
    needed to read it."""
    report, result = item["report"], item["result"]
    return {"seed": item["seed"], "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "tail_percentile": report.get("tail_percentile"),
            "machine.probe_s": report["environment"]["machine.probe_s"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)

    runs = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900, check=True)
            report, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
            runs[workload].append({"seed": seed, "report": report["report"], "result": result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)

    summary = {}
    for workload, items in runs.items():
        names = items[0]["result"]["metrics"]
        summary[workload] = {
            name: dict(summarise([r["result"]["metrics"][name]["value"] for r in items]),
                       unit=names[name]["unit"])
            for name in names}
        summary[workload]["all_correct"] = all(r["result"]["correct"] for r in items)
        print(f"\n{workload} ({len(items)} runs, all correct: "
              f"{summary[workload]['all_correct']})")
        for name in names:
            s = summary[workload][name]
            print(f"  {name:40s} median {s['median']:12.6g} {s['unit']:6s} "
                  f"q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  spread {s['spread']:.3f}")
    if args.json:
        environment = next(iter(runs.values()))[0]["report"]["environment"]
        lean_runs = {w: [lean(item) for item in items] for w, items in runs.items()}
        args.json.write_text(json.dumps({"environment": environment, "summary": summary,
                                         "runs": lean_runs}, indent=1) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
