"""Correctness gate: checks every row of the CSVs a workload pass writes
against reference values recorded from an earlier commit.

A row fails when
  - its status class ("ok" or "failed") differs from the reference;
  - a closed-form cell (``*_ub_bits``, ``lambda_*``, ``xpd_threshold``)
    differs from the reference by more than 1e-9 relative;
  - a Monte Carlo cell lies more than 4 sqrt(se^2 + se_ref^2) from the
    reference mean, or its standard error exceeds 1.1 times the reference
    per-run standard error (so accuracy cannot be traded for speed);
  - ``dual_mc_bits > dual_ub_bits + 3 se`` (Jensen).

Reference MC cells pool several seeds: ``[mean, se_of_mean, se_per_run]``.
This module uses only the standard library, so the harness never imports
numpy.
"""

from __future__ import annotations

import math

CLOSED_REL_TOL = 1e-9
CLOSED_ABS_TOL = 1e-15
MC_SIGMAS = 4.0
SE_RATIO = 1.1
JENSEN_SIGMAS = 3.0
MC_OUTPUTS = ("dual_mc", "single_mc")


def read_csv(path: str) -> tuple[list[str], list[dict[str, str]]]:
    """Columns and rows of a sweep CSV; '#' lines are provenance.

    Status messages may contain commas and the writer does not quote, so
    the status cell takes whatever lies between the columns before it and
    the columns after it.
    """
    with open(path, encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle if not line.startswith("#")]
    columns = lines[0].split(",")
    at = columns.index("status")
    after = len(columns) - at - 1
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        tail = len(fields) - after
        cells = fields[:at] + [",".join(fields[at:tail])] + fields[tail:]
        rows.append(dict(zip(columns, cells)))
    return columns, rows


def is_closed_form(column: str) -> bool:
    return column.endswith("_ub_bits") or column in ("lambda_v", "lambda_h", "xpd_threshold")


def status_class(status: str) -> str:
    return status.split(":", 1)[0].strip()


def reference_row(row: dict[str, str], axis_columns: list[str]) -> dict:
    """The seed-independent part of a reference row: axis cells, status
    class and closed-form cells (None for an empty cell)."""
    return {
        "axis": {c: row[c] for c in axis_columns},
        "status": status_class(row["status"]),
        "closed": {c: _number(v) for c, v in row.items() if is_closed_form(c)},
    }


def check_row(row: dict[str, str], ref: dict) -> list[str]:
    """Every violation of the gate in one row (empty when it passes)."""
    problems = []
    for column, expected in ref["axis"].items():
        if not _same_cell(row.get(column), expected):
            problems.append(f"{column}={row.get(column)!r}, reference {expected!r}")
    got_status = status_class(row.get("status", ""))
    if got_status != ref["status"]:
        problems.append(f"status {row.get('status')!r}, reference {ref['status']!r}")
        return problems
    for column, expected in ref["closed"].items():
        got = _number(row.get(column))
        if expected is None or got is None:
            if got is not expected:
                problems.append(f"{column}={got!r}, reference {expected!r}")
        elif not math.isclose(got, expected, rel_tol=CLOSED_REL_TOL, abs_tol=CLOSED_ABS_TOL):
            problems.append(f"{column}={got!r}, reference {expected!r}")
    for name, (mean, se_mean, se_run) in ref.get("mc", {}).items():
        value, se = _number(row.get(f"{name}_bits")), _number(row.get(f"{name}_se"))
        if value is None or se is None:
            problems.append(f"{name} missing")
            continue
        if abs(value - mean) > MC_SIGMAS * math.sqrt(se * se + se_mean * se_mean):
            problems.append(f"{name}={value!r} (se {se!r}), reference {mean!r} (se {se_mean!r})")
        if se > SE_RATIO * se_run:
            problems.append(f"{name}_se={se!r} exceeds {SE_RATIO} x reference {se_run!r}")
    dual_mc, dual_se, dual_ub = (
        _number(row.get(c)) for c in ("dual_mc_bits", "dual_mc_se", "dual_ub_bits")
    )
    if None not in (dual_mc, dual_se, dual_ub) and dual_mc > dual_ub + JENSEN_SIGMAS * dual_se:
        problems.append(f"dual_mc_bits={dual_mc!r} > dual_ub_bits={dual_ub!r} + 3 se")
    return problems


def check_sweep(rows: list[dict[str, str]], refs: list[dict]) -> list[str]:
    """One entry per failed row; a missing or extra row is a failed row."""
    failures = []
    for index, (row, ref) in enumerate(zip(rows, refs)):
        problems = check_row(row, ref)
        if problems:
            failures.append(f"row {index}: " + "; ".join(problems))
    for index in range(min(len(rows), len(refs)), max(len(rows), len(refs))):
        failures.append(f"row {index}: present in only one of output and reference")
    return failures


def _number(cell):
    if cell is None or cell == "":
        return None
    return float(cell)


def _same_cell(got, expected) -> bool:
    if got is None:
        return False
    try:
        return float(got) == float(expected)
    except ValueError:
        return got == expected
