"""Benchmark harness for dpris: runs one workload for a fixed time, checks
every output row against the reference, and prints the metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass of a workload runs in a fresh interpreter (``worker.py``): set-up,
then every sweep of the workload in sequence, one thread, one client.
Passes repeat while the next one is expected to end within ``--seconds``.
Each worker is pinned to the CPU where a short probe runs fastest.  With
``--trace 0`` the last line reports the end-to-end metrics, from each row's
best time over the passes; with ``--trace 1`` every pass is traced and it
reports the per-layer metrics.  The result
line is ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it give provenance and the raw figures.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = HERE / "workloads"
REFERENCE = HERE / "reference.json"
WORKER = HERE / "worker.py"

#: The master seed the package itself defaults to.
DEFAULT_SEED = 20260810
#: Set-ups timed per untraced run, counting those of the passes.  Their best
#: is steady with this many; more would take time from the passes.
SETUP_SAMPLES = 21
#: A run must end within 180 s; no worker outlives this much of it.
WORKER_TIMEOUT_S = 170.0
#: CPUs a worker may be pinned to, and the probe that picks one of them.
CPUS = sorted(os.sched_getaffinity(0))
PROBE_ROUNDS = 10
PROBE_LOOP = 20_000

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "row_ms_p50": "ms", "peak_rss_mb": "MiB"}
#: Units of the per-layer metrics, by the last part of their names.
PER_LAYER_UNITS = {"ms": "ms", "trial": "us", "frac": "ratio"}


class BenchmarkError(Exception):
    """The run cannot produce a valid result."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dpris benchmark harness")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "dpris" / "__init__.py").is_file():
            raise BenchmarkError(f"no dpris sources under {ROOT / 'src'}")
        if args.seed < 0:
            raise BenchmarkError(f"seed must be non-negative, got {args.seed}")
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"]
        if args.workload not in reference:
            raise BenchmarkError(f"unknown workload {args.workload!r} (known: {sorted(reference)})")
        result = run_workload(
            WORKLOADS / args.workload, reference[args.workload], args.seed, args.seconds, bool(args.trace)
        )
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print("provenance " + json.dumps(provenance(args.workload, args.seed, result)))
    print("raw " + json.dumps(result["raw"]))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_workload(workload: Path, reference: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Passes of one workload until ``seconds`` have gone, gated and summarized."""
    started = time.perf_counter()
    out = Path(tempfile.mkdtemp(prefix=".bench-out-", dir=ROOT))
    try:
        passes, setups, failures, attempted = [], [], [], 0
        while not passes or _next_pass_ends_by(passes, started, seconds):
            report = run_pass(workload, out / str(len(passes)), seed, trace, started)
            passes.append(report)
            setups.append(report)
            for name, refs in reference.items():
                _, rows = gate.read_csv(str(report["out"] / f"{name}.csv"))
                attempted += max(len(rows), len(refs))
                failures += [f"{name} {line}" for line in gate.check_sweep(rows, refs)]
            # Set-ups are spread over the run, like the passes.
            while not trace and len(setups) < SETUP_SAMPLES * _share_gone(started, seconds):
                setups.append(run_pass(workload, out / "setup", seed, False, started, setup_only=True))
        while not trace and len(setups) < SETUP_SAMPLES:
            setups.append(run_pass(workload, out / "setup", seed, False, started, setup_only=True))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for line in failures[:20]:
        print(f"gate: {line}", file=sys.stderr)
    threads = {r["provenance"]["blas_threads"] for r in setups} - {None}
    if any(t > 1 for t in threads):
        raise BenchmarkError(f"BLAS reports {max(threads)} threads; timings would be noise")
    raw = {
        "passes": len(passes),
        "traced": trace,
        "rows_per_pass": len(passes[0]["row_s"]),
        "expected_rejections_per_pass": sum(
            r["status"] == "failed" for refs in reference.values() for r in refs
        ),
        "setups": len(setups),
        "wall_s": [r["wall_s"] for r in passes],
        "setup_s": [r["setup_s"] for r in setups],
    }
    metrics = _per_layer(passes) if trace else _end_to_end(passes, setups)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "raw": raw,
        "worker": passes[0]["provenance"],
        "absent": passes[0].get("absent", []),
    }


def _share_gone(started: float, seconds: float) -> float:
    return min(1.0, (time.perf_counter() - started) / seconds) if seconds > 0 else 1.0


def _next_pass_ends_by(passes: list[dict], started: float, seconds: float) -> bool:
    """Whether a pass as long as the mean one so far would end in time."""
    mean_pass_s = (time.perf_counter() - started) / len(passes)
    return time.perf_counter() - started + mean_pass_s <= seconds


def _end_to_end(passes: list[dict], setups: list[dict]) -> dict:
    # Another tenant's load on a shared host slows a CPU for a second to
    # minutes at a time, but rarely the same row or set-up in every pass:
    # best times are steady where means and medians are not.
    best_rows = [min(times) for times in zip(*(r["row_s"] for r in passes))]
    best_other = min(r["wall_s"] - sum(r["row_s"]) for r in passes)
    values = {
        "setup_s": min(r["setup_s"] for r in setups),
        "wall_s": sum(best_rows) + best_other,
        "row_ms_p50": 1e3 * statistics.median(best_rows),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in values.items()}


def _per_layer(traced: list[dict]) -> dict:
    metrics = {}
    for name in traced[0]["trace"]:
        unit = PER_LAYER_UNITS.get(name.rpartition("_")[2], "count")
        values = [r["trace"][name] for r in traced]
        # Counts repeat exactly, so the lower median keeps them whole numbers.
        value = statistics.median(values) if unit != "count" else statistics.median_low(values)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run_pass(workload: Path, out: Path, seed: int, trace: bool, started: float, setup_only=False) -> dict:
    """One worker process writing into ``out``; its report plus ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    pin_quietest_cpu()
    command = [sys.executable, str(WORKER), str(workload), str(out), "--seed", str(seed)]
    command += ["--trace"] * trace + ["--setup-only"] * setup_only
    remaining = WORKER_TIMEOUT_S - (time.perf_counter() - started)
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(remaining, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker exceeded the run's time limit: {' '.join(command)}") from None
    if done.returncode != 0:
        raise BenchmarkError(f"worker failed ({done.returncode}): {done.stderr.strip()[-2000:]}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    report["out"] = out
    return report


def pin_quietest_cpu() -> None:
    """Pin this process, and so the next worker it starts, to the CPU where
    a short pure-Python probe runs fastest.  On a shared host another
    tenant's load slows one vCPU at a time, for seconds to minutes."""
    os.sched_setaffinity(0, {min(CPUS, key=_probe_s)})


def _probe_s(cpu: int) -> float:
    os.sched_setaffinity(0, {cpu})
    times = []
    for _ in range(PROBE_ROUNDS):
        start = time.perf_counter()
        sum(i * i for i in range(PROBE_LOOP))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def provenance(workload: str, seed: int, result: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "commit": commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        **result["worker"],
        "absent": result["absent"],
    }


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return done.stdout.strip() or "unknown"


def _source_digest() -> str:
    """Content hash of the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    package = ROOT / "src" / "dpris"
    for path in sorted(p for p in package.rglob("*") if p.suffix in (".py", ".sweep")):
        digest.update(str(path.relative_to(package)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
