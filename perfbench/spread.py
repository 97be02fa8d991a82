"""Run one workload once per seed and report every metric's median and spread.

Run from the repository root, e.g.

    python3 perfbench/spread.py --workload bsc7-grid --seeds 0-9
    python3 perfbench/spread.py --workload verify-mix --seeds 0 --trace 1

Runs are sequential, each a separate ``run.py`` process with the
``run_seconds`` of BENCHMARK.json.  Spread is (Q3 - Q1) / median with the
quartiles of ``statistics.quantiles(values, n=4)``; it needs two or more
seeds.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    results = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: {json.dumps(results[-1]['metrics'])}", file=sys.stderr)

    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        entry = {"unit": results[0]["metrics"][name]["unit"], "values": values,
                 "median": statistics.median(values)}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3,
                         spread=(q3 - q1) / entry["median"] if entry["median"] else None)
        summary[name] = entry
    print(json.dumps({
        "workload": args.workload,
        "seeds": parse_seeds(args.seeds),
        "trace": args.trace,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": summary,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
