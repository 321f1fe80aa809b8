"""Run the benchmark over several seeds and workloads and summarise it.

Usage, from the root of a checkout::

    python3 perfbench/sweep.py --seeds 1 2 3

Runs ``run.py`` once per (workload, seed) for every workload in
``BENCHMARK.json``, for its ``run_seconds``, one run at a time, and prints for
every metric its median over the seeds, its quartiles, and its spread: the
distance between the quartiles as a share of the median, which is what
``BENCHMARK.json``'s bounds are judged against. With one seed this is the
single command that prints every end-to-end metric of every workload.
``--json FILE`` also writes these figures and every run's value as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent


def main() -> int:
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in args.seeds:
            completed = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=CHECKOUT, capture_output=True, text=True,
            )
            if completed.returncode != 0:
                print(completed.stderr, file=sys.stderr)
                return 1
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            runs.setdefault(workload, []).append({"seed": seed, **result})
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)

    print(f"{'workload':16s} {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s} unit")
    summary: dict[str, dict] = {}
    for workload, results in runs.items():
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            print(f"{workload:16s} {name:34s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {bound if bound is not None else '':>6} {first['unit']}")
            summary.setdefault(workload, {})[name] = {
                "unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "values": values,
            }
    if args.json is not None:
        args.json.write_text(json.dumps(
            {"seeds": args.seeds, "seconds": spec["run_seconds"], "trace": args.trace,
             "metrics": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
