"""Record the gate's reference values from the current code.

    python3 benchmarks/make_reference.py [WORKLOAD ...]

Runs one pass of each workload per reference seed and writes
``reference.json``.  Closed-form cells and statuses come from the first
seed and must repeat exactly on the others.  Each Monte Carlo cell keeps
``[mean, se_of_mean, se_per_run]`` over the seeds: the pooled mean and its
standard error, and the root-mean-square standard error of a single run,
which bounds how noisy one run may be.  Run it only on a commit whose
outputs are trusted; the recorded file is the reference later commits are
checked against.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
import time
from pathlib import Path

import gate
import run

#: Seeds the reference pools, away from small seeds a caller might pick.
REFERENCE_SEEDS = tuple(range(1000, 1016))


def reference_for(workload: Path, seeds=REFERENCE_SEEDS) -> dict:
    """Reference rows of every sweep of one workload, keyed by spec name."""
    runs: dict[str, list[list[dict]]] = {}
    columns: dict[str, list[str]] = {}
    out = Path(tempfile.mkdtemp(prefix=".bench-ref-", dir=run.ROOT))
    try:
        for seed in seeds:
            report = run.run_pass(workload, out / str(seed), seed, False, time.perf_counter())
            for spec in sorted(workload.glob("*.sweep")):
                columns[spec.stem], rows = gate.read_csv(str(report["out"] / f"{spec.stem}.csv"))
                runs.setdefault(spec.stem, []).append(rows)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return {name: _pool(columns[name], per_seed) for name, per_seed in runs.items()}


def _pool(columns: list[str], per_seed: list[list[dict]]) -> list[dict]:
    at = columns.index("status")
    axis = [c for c in columns[:at] if not gate.is_closed_form(c) and "_mc_" not in c]
    refs = []
    for index, first in enumerate(per_seed[0]):
        ref = gate.reference_row(first, axis)
        for rows in per_seed[1:]:
            if gate.reference_row(rows[index], axis) != ref:
                raise SystemExit(f"row {index} differs between seeds beyond its Monte Carlo cells")
        mc = {}
        for name in gate.MC_OUTPUTS:
            if first.get(f"{name}_bits", "") == "":
                continue
            values = [float(rows[index][f"{name}_bits"]) for rows in per_seed]
            errors = [float(rows[index][f"{name}_se"]) for rows in per_seed]
            se_run = math.sqrt(sum(e * e for e in errors) / len(errors))
            mc[name] = [sum(values) / len(values), se_run / math.sqrt(len(values)), se_run]
        if mc:
            ref["mc"] = mc
        refs.append(ref)
    return refs


def main(argv: list[str]) -> int:
    data = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {"workloads": {}}
    names = argv or sorted(p.name for p in run.WORKLOADS.iterdir() if p.is_dir())
    for name in names:
        data["workloads"][name] = reference_for(run.WORKLOADS / name)
        print(f"{name}: {sum(len(r) for r in data['workloads'][name].values())} rows")
    data.update(commit=run.commit(), seeds=list(REFERENCE_SEEDS))
    run.REFERENCE.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
