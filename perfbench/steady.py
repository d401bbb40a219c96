"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/steady.py --runs 10                  # every workload
    python3 perfbench/steady.py --runs 5 --workload cache-order6
    python3 perfbench/steady.py --runs 10 --traced --baseline perfbench/baseline.json

Each run is one ``perfbench/run.py`` process, one after another. For every
workload and end-to-end metric it prints the median, the quartiles, the
spread (Q3−Q1)/median against the metric's bound, and the check results.
``--traced`` adds one traced run per workload; ``--baseline`` writes the
summary, the traced per-layer numbers and the host facts as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT)]

from perfbench.stats import quartiles, spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    out = json.loads(lines[-1])
    out["wall_s"] = wall
    logs = ROOT / ".bench_build" / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    (logs / f"{workload}-seed{seed}-trace{trace}.log").write_text(proc.stderr)
    problems = [ln for ln in proc.stderr.splitlines() if "check failed" in ln]
    out["problems"] = problems
    return out


def summarise(runs: list[dict], spec_metrics: list[dict]) -> dict:
    out = {}
    for m in spec_metrics:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, q2, q3 = quartiles(values)
        out[m["name"]] = {"unit": m["unit"], "median": q2, "q1": q1, "q3": q3,
                          "spread": spread(values), "bound": m["bound"], "values": values}
    return out


def git_sha() -> str | None:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--traced", action="store_true", help="add one traced run per workload")
    ap.add_argument("--baseline", type=Path, help="write the summary JSON here")
    args = ap.parse_args(argv)

    seconds = spec["run_seconds"]
    summary = {"host": {"git_sha": git_sha(), "nproc": os.cpu_count()}, "runs": args.runs,
               "seconds": seconds, "workloads": {}}
    worst = 0.0
    for wl in args.workload or names:
        runs = []
        for seed in range(1, args.runs + 1):
            r = run_once(wl, seed, seconds, 0)
            runs.append(r)
            print(f"{wl} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} wall={r['wall_s']:.1f}s", flush=True)
            for p in r["problems"]:
                print(f"    {p}", flush=True)
        metrics = summarise(runs, spec["end_to_end"])
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "wall_s": [round(r["wall_s"], 1) for r in runs],
                 "end_to_end": metrics}
        print(f"\n{wl}: correct={entry['correct']} attempted={entry['attempted']} "
              f"failed={entry['failed']}")
        print(f"  {'metric':<20}{'unit':>6}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}{'/bound':>8}")
        for name, s in metrics.items():
            print(f"  {name:<20}{s['unit']:>6}{s['median']:>12.5g}{s['q1']:>12.5g}"
                  f"{s['q3']:>12.5g}{s['spread']:>9.4f}{s['bound']:>7}"
                  f"{s['spread'] / s['bound']:>8.3f}")
            worst = max(worst, s["spread"] / s["bound"])
        if args.traced:
            r = run_once(wl, 1, seconds, 1)
            trace = json.loads((ROOT / ".bench_build" / f"trace-{wl}-seed1.json").read_text())
            entry["traced"] = {"seed": 1, "correct": r["correct"],
                               "wall_s": round(r["wall_s"], 1),
                               "per_layer": {k: v["value"] for k, v in r["metrics"].items()},
                               "per_mode": trace["per_mode"]}
            summary["host"].update(trace["host"])
            print(f"  traced run: correct={r['correct']} wall={r['wall_s']:.1f}s")
        summary["workloads"][wl] = entry
        print(flush=True)
    print(f"largest spread / bound: {worst:.3f}")
    if args.baseline:
        args.baseline.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
