"""Run the benchmark over several seeds and record the figures.

    python3 benchmarks/baseline.py [WORKLOAD ...]

For each workload (default: all): ten untraced runs of BENCHMARK.json's
``run_seconds``, each with another seed, then one traced run.  For every
end-to-end metric it records the values, their median and quartiles, and
the spread (interquartile distance over median), which must stay below the
metric's bound in BENCHMARK.json.  The file it writes,
``BENCH_baseline.json`` here, is the reference a change that claims a gain
compares against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIRST_SEED = 1
RUNS = 10
OUT = HERE / "BENCH_baseline.json"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    prov = json.loads(next(line for line in lines if line.startswith("provenance "))[11:])
    return json.loads(lines[-1]), prov


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "spread_within_third_of_bound": spread < bound / 3, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = contract["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    names = args.workloads or [w["name"] for w in contract["workloads"]]
    record = json.loads(OUT.read_text()) if OUT.exists() else {"workloads": {}}
    for name in names:
        seeds = list(range(FIRST_SEED, FIRST_SEED + RUNS))
        results = []
        for seed in seeds:
            result, prov = run_once(name, seed, seconds, 0)
            results.append(result)
            print(name, seed, json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
                  "correct" if result["correct"] else f"FAILED {result['failed']}", flush=True)
        traced, _ = run_once(name, seeds[0], seconds, 1)
        record["workloads"][name] = {
            "seeds": seeds,
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": {
                metric: summarize([r["metrics"][metric]["value"] for r in results], bound)
                for metric, bound in bounds.items()
            },
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        record["provenance"] = {k: prov[k] for k in prov if k not in ("workload", "seed", "absent")}
        record["run_seconds"] = seconds
        for metric, row in record["workloads"][name]["end_to_end"].items():
            print(f"{name} {metric}: median {row['median']:.6g} spread {row['spread']:.3f} "
                  f"(bound {row['bound']})", flush=True)
        OUT.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
