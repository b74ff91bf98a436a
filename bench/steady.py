"""Steadiness procedure: how much each end-to-end metric moves between runs.

    python3 bench/steady.py

Runs ``run.py`` ten times per workload, each with another seed, on
unchanged code, and reports for every end-to-end metric the median and the
quartile spread (third minus first quartile of the runs, over the median,
by ``statistics.quantiles(values, n=4)``).  A metric is steady when its
spread is below a third of the bound in BENCHMARK.json.  The whole set is
run twice on fresh seeds and the change of each median between the sets is
reported too; it must stay within the bound.  One traced run per workload
records the per-layer baseline.  Everything is stored, with the machine
facts and the ``src/`` line count, in ``bench/baseline.json``.  The exit
code is 0 only when every metric of every workload is steady.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2
FIRST_SEED = 1


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{' '.join(cmd)}: {result['failed']} failed ops")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float]:
    """(median, quartile spread as a share of the median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    report = {}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for s in range(SETS):
            seeds = [FIRST_SEED + 100 * s + i for i in range(RUNS)]
            started = time.monotonic()
            runs = [_run(workload, seed, seconds, 0) for seed in seeds]
            summary = {"seeds": seeds, "elapsed_s": round(time.monotonic() - started, 1)}
            for name in bounds:
                values = [r[name] for r in runs]
                med, spr = spread(values)
                summary[name] = {"median": med, "spread": spr, "values": values}
                ok = spr < bounds[name] / 3
                steady &= ok
                print(f"{workload:12s} set {s} {name:15s} median {med:12.6g} "
                      f"spread {spr:7.4f} bound {bounds[name]:.2f} {'ok' if ok else 'WIDE'} "
                      f"values {' '.join(f'{v:.4g}' for v in values)}",
                      flush=True)
            sets.append(summary)
        entry = {"sets": sets, "median_change": {}}
        for name in bounds:
            a, b = sets[0][name]["median"], sets[1][name]["median"]
            worse = [m for m in bench["end_to_end"] if m["name"] == name][0]["better"]
            change = (b - a) / a if worse == "lower" else (a - b) / a
            entry["median_change"][name] = change
            ok = change <= bounds[name]
            steady &= ok
            print(f"{workload:12s} {name:15s} second median worse by {change:+.4f} "
                  f"{'ok' if ok else 'OVER BOUND'}", flush=True)
        entry["per_layer"] = _run(workload, FIRST_SEED, seconds, 1)
        report[workload] = entry

    doc = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "platform": platform.platform()},
        "src_lines": src_lines(),
        "run_seconds": seconds,
        "runs_per_set": RUNS,
        "workloads": report,
    }
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
