"""Sweep engine: runs one scenario axis over a grid and emits a
self-describing CSV table (plus an optional gnuplot companion script).

Sweep spec files are flat key = value text.  Sweep-level keys are ``axis``,
``grid`` (comma-separated values), ``grid2`` (second grid, feed-angles
only), ``outputs`` (comma-separated column selection); every other key is
a scenario override.  Grid values parse as the scenario field of their
axis does, and a bad one fails with an error that names that field.
Re-running the same spec reproduces the CSV byte for byte except the
runtime column.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from . import capacity, scenario as scen
from .exceptions import DegenerateGeometryError, ModelInconsistencyError

OUTPUTS = ("dual-mc", "dual-ub", "single-mc", "single-ub", "allocation", "threshold")

_AXIS_COLUMNS = {
    "feed-gain": ("feed_gain_db",),
    "element-count": ("elements",),
    "snr": ("snr_db",),
    "xpd": ("xpd_coeff",),
    "feed-angles": ("feed_zenith_deg", "feed_azimuth_deg"),
    "power-allocation": ("allocation_lambda_v",),
    "phase-scheme": ("phase_scheme",),
}
AXES = tuple(_AXIS_COLUMNS)

_OUTPUT_COLUMNS = {
    "dual-mc": ("dual_mc_bits", "dual_mc_se"),
    "dual-ub": ("dual_ub_bits",),
    "single-mc": ("single_mc_bits", "single_mc_se"),
    "single-ub": ("single_ub_bits",),
    "allocation": ("lambda_v", "lambda_h"),
    "threshold": ("xpd_threshold",),
}


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    grid: tuple
    outputs: tuple[str, ...]
    base: scen.Scenario
    grid2: tuple = ()

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"unknown sweep axis {self.axis!r} (expected one of {AXES})")
        if not self.grid:
            raise ValueError("sweep grid must be non-empty")
        if not self.outputs:
            raise ValueError("sweep must select at least one output")
        for out in self.outputs:
            if out not in OUTPUTS:
                raise ValueError(f"unknown output {out!r} (expected subset of {OUTPUTS})")
        if self.axis == "feed-angles":
            if not self.grid2:
                raise ValueError("feed-angles sweeps need grid and grid2")
        elif self.grid2:
            raise ValueError("grid2 is only meaningful for feed-angles sweeps")
        if self.axis != "phase-scheme":
            values = [float(v) for v in self.grid]
            diffs = np.diff(values)
            if len(values) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
                raise ValueError("numeric sweep grids must be strictly monotone")


@dataclass
class SweepResult:
    spec: SweepSpec
    columns: tuple[str, ...]
    rows: list[dict] = field(default_factory=list)


def parse_sweep_pairs(pairs: dict[str, str], base: scen.Scenario | None = None) -> SweepSpec:
    pairs = dict(pairs)
    try:
        axis = pairs.pop("axis").strip()
        grid_raw = pairs.pop("grid")
        outputs_raw = pairs.pop("outputs")
    except KeyError as missing:
        raise ValueError(f"sweep spec is missing the {missing.args[0]!r} key") from None
    grid2_raw = pairs.pop("grid2", "")
    base = scen.parse_overrides(base or scen.Scenario(), pairs)
    if axis not in AXES:
        raise ValueError(f"unknown sweep axis {axis!r} (expected one of {AXES})")
    # grid values parse as the axis's fields do; grid2 is the feed azimuth
    keys = _AXIS_COLUMNS[axis]
    grid = _parse_grid(keys[0], grid_raw)
    grid2 = _parse_grid(keys[-1], grid2_raw)
    outputs = tuple(part.strip() for part in outputs_raw.split(",") if part.strip())
    return SweepSpec(axis=axis, grid=grid, outputs=outputs, base=base, grid2=grid2)


def _parse_grid(key: str, raw: str) -> tuple:
    values = tuple(scen._parse_value(key, part) for part in raw.split(",") if part.strip())
    if None in values:
        raise ValueError(f"{key} grid values must be numbers")
    return values


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every grid point; degenerate points become failed rows and
    the sweep continues."""
    columns = _AXIS_COLUMNS[spec.axis] + tuple(
        col for out in spec.outputs for col in _OUTPUT_COLUMNS[out]
    ) + ("status", "runtime_s")
    result = SweepResult(spec=spec, columns=columns)
    for point in _grid_points(spec):
        started = time.perf_counter()
        row = dict(zip(_AXIS_COLUMNS[spec.axis], point))
        try:
            row.update(_evaluate_point(spec, point))
            row["status"] = "ok"
        except (DegenerateGeometryError, ModelInconsistencyError, ValueError) as err:
            row["status"] = f"failed: {err}"
        row["runtime_s"] = time.perf_counter() - started
        result.rows.append(row)
    return result


def write_csv(result: SweepResult, path: str) -> None:
    """Provenance lines, then the table; a cell holding a comma, such as a
    failure message, is quoted, and every other cell is written as is."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("# dpris sweep\n")
        handle.write(f"# axis={result.spec.axis}\n")
        handle.write(f"# grid={_join(result.spec.grid)}\n")
        if result.spec.grid2:
            handle.write(f"# grid2={_join(result.spec.grid2)}\n")
        handle.write(f"# outputs={','.join(result.spec.outputs)}\n")
        for key, value in sorted(result.spec.base.as_dict().items()):
            handle.write(f"# {key}={_format(value)}\n")
        table = csv.writer(handle, lineterminator="\n")
        table.writerow(result.columns)
        for row in result.rows:
            table.writerow([_format_cell(row.get(c), c) for c in result.columns])


def gnuplot_script(result: SweepResult, csv_path: str) -> str:
    """A minimal companion script plotting each metric column over the
    first axis column."""
    x_col = 1
    lines = [
        "set datafile separator ','",
        "set datafile commentschars '#'",
        f"set xlabel '{result.columns[0]}'",
        "set ylabel 'bits/s/Hz'",
        "set key outside",
    ]
    plots = []
    for idx, col in enumerate(result.columns, start=1):
        if col.endswith("_bits") or col in ("lambda_v", "lambda_h", "xpd_threshold"):
            plots.append(f"'{csv_path}' using {x_col}:{idx} with linespoints title '{col}'")
    lines.append("plot " + ", \\\n     ".join(plots) if plots else "# nothing to plot")
    return "\n".join(lines) + "\n"


def _grid_points(spec: SweepSpec):
    if spec.axis == "feed-angles":
        return [(z, a) for z in spec.grid for a in spec.grid2]
    return [(value,) for value in spec.grid]


def _scenario_at(spec: SweepSpec, point: tuple) -> scen.Scenario:
    if spec.axis == "power-allocation":
        return spec.base.replace(allocation=repr(point[0]))
    return spec.base.replace(**dict(zip(_AXIS_COLUMNS[spec.axis], point)))


def _evaluate_point(spec: SweepSpec, point: tuple) -> dict:
    current = _scenario_at(spec, point)
    if current.phase_scheme == "random" and "threshold" in spec.outputs:
        raise ValueError(
            "output threshold is a closed form of the aligned-phase O_V/O_H; "
            "it does not describe phase_scheme = random"
        )
    model = scen.build_link_model(current)
    if "dual-mc" in spec.outputs or "single-mc" in spec.outputs:
        # one estimator call gives both Monte Carlo columns from the same draws
        mc = capacity.ergodic_capacity_mc(
            model.moments, model.lambda_v, model.snr, current.trials, current.master_seed
        )
    cells: dict = {}
    for out in spec.outputs:
        if out == "dual-ub":
            cells["dual_ub_bits"] = capacity.moment_upper_bound(
                model.moments, model.lambda_v, model.snr
            )
        elif out == "single-ub":
            cells["single_ub_bits"] = capacity.single_pol_moment_bound(model.moments, model.snr)
        elif out == "allocation":
            cells["lambda_v"] = model.lambda_v
            cells["lambda_h"] = 1.0 - model.lambda_v
        elif out == "threshold":
            try:
                cells["xpd_threshold"] = capacity.xpd_threshold(model.o_v, model.o_h, model.snr)
            except ModelInconsistencyError:
                cells["xpd_threshold"] = None
        elif out == "dual-mc":
            cells["dual_mc_bits"] = mc.estimate
            cells["dual_mc_se"] = mc.standard_error
        elif out == "single-mc":
            cells["single_mc_bits"] = mc.single_pol_estimate
            cells["single_mc_se"] = mc.single_pol_standard_error
    return cells


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def _format(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return "" if value is None else str(value)


def _format_cell(value, column: str) -> str:
    if value is None:
        return ""
    if column == "runtime_s":
        return format(value, ".3f")
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)
