"""Sweeps: one scenario axis over a grid, into a self-describing CSV
table and an optional gnuplot script.  ``OUTPUTS`` is the one table of
what a point reports; ``evaluate`` reads it for a sweep row and for
``dpris capacity`` alike.  Re-running a spec reproduces its CSV byte for
byte except the runtime column.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from . import capacity, scenario as scen
from .exceptions import DegenerateGeometryError, ModelInconsistencyError

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


def _threshold(link):
    try:
        return (capacity.xpd_threshold(*link.forms.tolist(), link.snr),)
    except ModelInconsistencyError:
        return (None,)  # no root in (0, 1): the cell stays empty


def _quality(link):
    # the forms the row's moments split from, averaged over a random row's draws
    return tuple(link.forms.reshape(-1, 2).mean(axis=0).tolist())


#: Output name -> (its columns, their cells as a function of the link model
#: alone; ``link.mc`` runs the point's Monte Carlo once, on first read).
#: ``quality`` and ``mc-moments`` are opt-in diagnostics; ``mc-moments``
#: reads the Monte Carlo's trials but not its estimates.
OUTPUTS = {
    "dual-mc": (
        ("dual_mc_bits", "dual_mc_se"),
        lambda link: (link.mc.estimate, link.mc.standard_error),
    ),
    "dual-ub": (
        ("dual_ub_bits",),
        lambda link: (capacity.moment_upper_bound(link.moments, link.lambda_v, link.snr),),
    ),
    "single-mc": (
        ("single_mc_bits", "single_mc_se"),
        lambda link: (link.mc.single_pol_estimate, link.mc.single_pol_standard_error),
    ),
    "single-ub": (
        ("single_ub_bits",),
        lambda link: (capacity.single_pol_moment_bound(link.moments, link.snr),),
    ),
    "allocation": (("lambda_v", "lambda_h"), lambda link: (link.lambda_v, 1 - link.lambda_v)),
    "threshold": (("xpd_threshold",), _threshold),
    "quality": (("o_v", "o_h"), _quality),
    "mc-moments": (
        ("mc_m11", "mc_m12", "mc_m21", "mc_m22"),
        lambda link: capacity.mc_moments(link.moments, link.trials, link.master_seed).tolist(),
    ),
}


def evaluate(scenario: scen.Scenario, outputs) -> dict:
    """The cells of ``outputs`` at one scenario point, keyed by column in
    the order of ``outputs``, from its link model; the Monte Carlo runs
    once if any output reads it.  Raises, in this order, ValueError for
    ``outputs`` given as one string or naming an output not in ``OUTPUTS``
    or one twice (``_check_outputs``); the link build's errors
    (``scen.build_link_model``, whose float range is its own);
    ModelInconsistencyError for ``threshold`` on a random-phase point; and
    ModelInconsistencyError for an overflow or invalid value in a cell."""
    _check_outputs(outputs)
    link = scen.build_link_model(scenario)
    if "threshold" in outputs and scenario.phase_scheme == "random":
        raise ModelInconsistencyError(
            "output threshold is a closed form of the aligned-phase O_V/O_H; "
            "it does not describe phase_scheme = random"
        )
    cells: dict = {}
    try:
        with np.errstate(over="raise", invalid="raise"):
            for name in outputs:
                columns, values = OUTPUTS[name]
                cells.update(zip(columns, values(link)))
    except FloatingPointError as err:
        details = {"snr": link.snr, "moments": link.moments}
        raise ModelInconsistencyError(f"the estimators leave the float range ({err})", details)
    return cells


def _check_outputs(outputs) -> None:
    # a bare name would be read one letter at a time, and a repeated one
    # computed and written twice
    if isinstance(outputs, str):
        raise ValueError(f"outputs must be a sequence of output names, not the string {outputs!r}")
    for name in outputs:
        if name not in OUTPUTS:
            raise ValueError(f"unknown output {name!r} (expected one of {tuple(OUTPUTS)})")
        if outputs.count(name) > 1:
            raise ValueError(f"output {name!r} is named twice")


@dataclass(frozen=True)
class SweepSpec:
    """A checked sweep: the axis, its grid (and ``grid2``), the outputs in
    column order and the base scenario.  Raises ValueError for an axis not
    in ``AXES``, an empty grid, no outputs or outputs that ``evaluate``
    refuses, a ``grid2`` that a ``feed-angles`` sweep lacks or another axis
    has, or a numeric grid that is not strictly monotone."""

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
        _check_outputs(self.outputs)
        if not self.outputs:
            raise ValueError("sweep must select at least one output")
        if self.axis == "feed-angles":
            if not self.grid2:
                raise ValueError("feed-angles sweeps need grid and grid2")
        elif self.grid2:
            raise ValueError("grid2 is only meaningful for feed-angles sweeps")
        for name, grid in (("grid", self.grid), ("grid2", self.grid2)):
            if self.axis != "phase-scheme" and len(grid) > 1:
                diffs = np.diff([float(v) for v in grid])
                if not (np.all(diffs > 0) or np.all(diffs < 0)):
                    raise ValueError(f"{name} must be strictly monotone, got {_join(grid)}")


@dataclass
class SweepResult:
    """A run sweep: one dict per point, keyed by ``columns``, which are the
    axis's, the outputs', ``status`` (``ok`` or ``failed: ...``) and
    ``runtime_s``."""

    spec: SweepSpec
    columns: tuple[str, ...]
    rows: list[dict] = field(default_factory=list)


def parse_sweep_pairs(pairs: dict[str, str]) -> SweepSpec:
    """The sweep that flat key = value ``pairs`` describe: ``axis`` (one of
    ``AXES``), ``grid`` (comma-separated values, parsed as the axis's field
    is), ``grid2`` (the azimuths of a ``feed-angles`` sweep) and ``outputs``
    (comma-separated names of ``OUTPUTS``); every other key overrides the
    base scenario.  Raises ValueError, naming the key or field."""
    pairs = dict(pairs)
    try:
        axis = pairs.pop("axis").strip()
        grid_raw = pairs.pop("grid")
        outputs_raw = pairs.pop("outputs")
    except KeyError as missing:
        raise ValueError(f"sweep spec is missing the {missing.args[0]!r} key") from None
    grid2_raw = pairs.pop("grid2", "")
    base = scen.parse_overrides(scen.Scenario(), pairs)
    # grid values parse as the axis's fields do, grid2 as the feed azimuth;
    # an unknown axis's stay text, as phase-scheme's do, for SweepSpec to name
    keys = _AXIS_COLUMNS.get(axis, _AXIS_COLUMNS["phase-scheme"])
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
    """Evaluate every grid point.  A bad grid value or a named degeneracy
    (DegenerateGeometryError, ModelInconsistencyError) fails its row; any
    other error is a fault of the program and propagates."""
    columns = _AXIS_COLUMNS[spec.axis] + tuple(
        col for out in spec.outputs for col in OUTPUTS[out][0]
    ) + ("status", "runtime_s")
    result = SweepResult(spec=spec, columns=columns)
    for point in _grid_points(spec):
        started = time.perf_counter()
        row = dict(zip(_AXIS_COLUMNS[spec.axis], point))
        try:
            current = _scenario_at(spec, point)
        except ValueError as err:
            row["status"] = f"failed: {err}"
        else:
            try:
                row.update(evaluate(current, spec.outputs), status="ok")
            except (DegenerateGeometryError, ModelInconsistencyError) as err:
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
        handle.writelines(line + "\n" for line in scenario_echo(result.spec.base))
        table = csv.writer(handle, lineterminator="\n")
        table.writerow(result.columns)
        for row in result.rows:
            table.writerow([format_cell(row.get(c), c) for c in result.columns])


def scenario_echo(scenario: scen.Scenario) -> list[str]:
    """One ``# key=value`` line per scenario field, sorted by name."""
    return [f"# {key}={format_cell(value)}" for key, value in sorted(vars(scenario).items())]


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


def _join(values) -> str:
    return ",".join(str(v) for v in values)


def format_cell(value, column: str = "") -> str:
    """A value as the CSV table and the scenario echo write it: the
    ``runtime_s`` column to the millisecond, every other float to 17
    significant digits, None as an empty cell and anything else as text."""
    if isinstance(value, float):
        return format(value, ".3f" if column == "runtime_s" else ".17g")
    return "" if value is None else str(value)
