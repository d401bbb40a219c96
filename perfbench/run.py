"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload movielens-approx --seed 1 --seconds 35 --trace 0

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``
with every ``end_to_end`` metric of ``BENCHMARK.json`` (``--trace 0``) or
every ``per_layer`` metric (``--trace 1``). Problems found by the
correctness checks go to standard error. The program is imported from
``src/`` of the checkout this file sits in; without it the run fails.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Import perfbench as a package and repro from this checkout only.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    from perfbench import session

    session.prepare_environment(ROOT)
    from perfbench.bench import run
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    out = run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    for problem in out.pop("problems"):
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    values = out["metrics"]
    if not values:
        out["metrics"] = {}
        print(json.dumps(out))
        return 1
    if set(values) != set(declared):
        raise SystemExit(
            f"perfbench: metrics {sorted(set(values) ^ set(declared))} "
            "differ from BENCHMARK.json"
        )
    out["metrics"] = {k: {"value": values[k], "unit": u} for k, u in declared.items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
