"""One pass of a benchmark workload in a fresh interpreter.

    python3 benchmarks/worker.py WORKLOAD_DIR OUT_DIR --seed N [--trace | --setup-only]

Imports dpris from the checkout's ``src`` and parses every ``*.sweep`` file
of the workload (set-up), then runs each sweep through ``sweep.run_sweep``
and writes its CSV into OUT_DIR with ``sweep.write_csv``.  Prints one JSON
line with the timings, peak memory, provenance and, with ``--trace``, the
per-layer totals.
"""

import os

# Pinned before numpy loads: with threaded BLAS on a small box, timings are noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: OpenBLAS thread-count getters, newest naming first.
_BLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import dpris
    from dpris import scenario, sweep

    specs = []
    for path in sorted(args.workload.glob("*.sweep")):
        pairs = scenario.read_config_file(str(path))
        pairs["master_seed"] = str(args.seed)
        specs.append((path.stem, sweep.parse_sweep_pairs(pairs)))
    setup_s = time.perf_counter() - started
    if Path(dpris.__file__).resolve().parent != SRC / "dpris":
        raise SystemExit(f"imported dpris from {dpris.__file__}, not from {SRC}")

    report = {"setup_s": setup_s, "provenance": _provenance(dpris)}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    row_s = []
    begun = time.perf_counter()
    for name, spec in specs:
        result = sweep.run_sweep(spec)
        sweep.write_csv(result, str(args.out / f"{name}.csv"))
        row_s.extend(row["runtime_s"] for row in result.rows)
    wall_s = time.perf_counter() - begun

    report.update(
        wall_s=wall_s,
        row_s=row_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        tracer.restore()
        report["trace"] = tracer.metrics(wall_s)
        report["absent"] = tracer.absent
    print(json.dumps(report))
    return 0


def _provenance(dpris) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "dpris": getattr(dpris, "__version__", None),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
    }


def _blas_threads(numpy):
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in _BLAS_GETTERS:
            getter = getattr(handle, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


if __name__ == "__main__":
    sys.exit(main())
