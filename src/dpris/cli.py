"""The ``dpris`` command line (``main``): ``sweep`` runs a spec file into
a CSV; ``capacity`` evaluates one scenario point as a sweep row does and
prints the scenario echo, then a ``column = value`` line per cell of
``REPORT``; ``threshold`` prints the cross-polarization threshold of given
link qualities; ``recipes`` lists or runs the bundled recipes.  ``sweep``,
``capacity`` and ``recipes run`` read key = value pairs from a file, then
the ``--set KEY=VALUE`` items, which win, and parse the merged pairs once.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import capacity, recipes, scenario as scen, sweep
from .exceptions import ModelInconsistencyError

USAGE_ERROR = 2
MODEL_ERROR = 3
IO_ERROR = 4
#: The outputs ``dpris capacity`` reports, in this order.
REPORT = ("allocation", "quality", "dual-mc", "dual-ub", "mc-moments")


def main(argv: list[str] | None = None) -> int:
    """Run the command line on ``argv`` (``sys.argv[1:]`` when None) and
    return its exit code: 0 on success; 2 for a usage error (any bad
    scenario value, named by its field, after which a sweep writes no CSV)
    or a degenerate geometry; 3 for a model inconsistency, an overflow
    anywhere in the point included; 4 for an I/O failure."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ModelInconsistencyError as err:
        print(f"error: {err}", file=sys.stderr)
        for key, value in err.details.items():
            print(f"  {key} = {value}", file=sys.stderr)
        return MODEL_ERROR
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return IO_ERROR


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpris",
        description="Dual-polarized reflective-surface link simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a sweep spec file, write CSV")
    p_sweep.add_argument("spec", help="flat key=value sweep spec file")
    p_sweep.add_argument("--out", help="output CSV path (default: <spec>.csv)")
    p_sweep.add_argument(
        "--gnuplot", action="store_true", help="also write a companion .gp plot script"
    )
    _add_set(p_sweep, "override a sweep/scenario key (repeatable; wins over the file)")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_cap = sub.add_parser("capacity", help="evaluate one scenario point")
    p_cap.add_argument("--config", help="scenario config file (flat key=value)")
    _add_set(p_cap, "override a scenario key (repeatable; wins over the file)")
    p_cap.set_defaults(handler=_cmd_capacity)

    p_thr = sub.add_parser("threshold", help="cross-polarization threshold from link qualities")
    p_thr.add_argument("--ov", type=float, required=True, help="V-polarization quality O_V")
    p_thr.add_argument("--oh", type=float, required=True, help="H-polarization quality O_H")
    p_thr.add_argument("--snr-db", required=True, help="transmit SNR in dB, checked as snr_db")
    p_thr.set_defaults(handler=_cmd_threshold)

    p_rec = sub.add_parser("recipes", help="list or run bundled figure recipes")
    rec_sub = p_rec.add_subparsers(dest="recipes_command", required=True)
    p_list = rec_sub.add_parser("list", help="list bundled recipes")
    p_list.set_defaults(handler=_cmd_recipes_list)
    p_run = rec_sub.add_parser("run", help="run one bundled recipe")
    p_run.add_argument("name")
    p_run.add_argument("--out", help="output CSV path (default: <name>.csv)")
    p_run.add_argument("--gnuplot", action="store_true")
    _add_set(p_run, "override a sweep/scenario key (repeatable; wins over the recipe)")
    p_run.set_defaults(handler=_cmd_recipes_run)

    return parser


def _add_set(parser: argparse.ArgumentParser, help_text: str) -> None:
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE", help=help_text
    )


def _set_pairs(args) -> dict[str, str]:
    """The ``--set`` items, parsed as the lines of a config file are."""
    return scen.parse_pairs("\n".join(args.overrides), "--set")


def _cmd_sweep(args) -> int:
    pairs = scen.read_config_file(args.spec)
    spec = sweep.parse_sweep_pairs({**pairs, **_set_pairs(args)})
    return _run_sweep(spec, args.out or (Path(args.spec).stem + ".csv"), args.gnuplot)


def _run_sweep(spec: sweep.SweepSpec, out: str, gnuplot: bool) -> int:
    """Run a sweep, write its CSV to ``out`` and, if asked, the companion
    gnuplot script next to it."""
    result = sweep.run_sweep(spec)
    sweep.write_csv(result, out)
    print(f"wrote {out} ({len(result.rows)} rows)")
    if gnuplot:
        gp = str(Path(out).with_suffix(".gp"))
        with open(gp, "w", encoding="utf-8") as handle:
            handle.write(sweep.gnuplot_script(result, out))
        print(f"wrote {gp}")
    return 0


def _cmd_capacity(args) -> int:
    pairs = scen.read_config_file(args.config) if args.config else {}
    base = scen.parse_overrides(scen.Scenario(), {**pairs, **_set_pairs(args)})
    cells = sweep.evaluate(base, REPORT)
    print("# dpris capacity report")
    print(*sweep.scenario_echo(base), sep="\n")
    for column, value in cells.items():
        print(f"{column} = {sweep.format_cell(value, column)}")
    return 0


def _cmd_threshold(args) -> int:
    snr_db = scen.parse_overrides(scen.Scenario(), {"snr_db": args.snr_db}).snr_db
    if snr_db is None:
        raise ValueError(f"snr_db must be a number, got {args.snr_db!r}")
    value = capacity.xpd_threshold(args.ov, args.oh, scen.db_to_linear(snr_db))
    print(f"xpd_threshold = {value:.10g}")
    return 0


def _cmd_recipes_list(args) -> int:
    for name, description in recipes.list_recipes():
        print(f"{name}  {description}")
    return 0


def _cmd_recipes_run(args) -> int:
    spec = recipes.load_recipe(args.name, _set_pairs(args))
    return _run_sweep(spec, args.out or f"{args.name}.csv", args.gnuplot)


def entrypoint() -> None:
    """The ``dpris`` console script: exits with ``main``'s code."""
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
