"""Command-line front end.

Subcommands: ``sweep`` runs a spec file and writes CSV; ``capacity``
evaluates one scenario point and prints a report from the same link model
a sweep row reads: the SNR, the power split (lambda_v, 1 - lambda_v),
O_V/O_H and the exact moments of G, the ``random_phase_draws`` ensemble
for the random scheme; ``threshold`` prints the cross-polarization
threshold for given link qualities; ``recipes`` lists or runs the bundled
figure recipes.

Exit codes: 0 success, 2 usage error (such as an unknown key, scheme or
convention name, an allocation outside [0, 1] or an SNR that underflows to
zero), 3 model inconsistency, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import capacity, recipes, scenario as scen, sweep
from .exceptions import ModelInconsistencyError
from .numerics import db_to_linear

USAGE_ERROR = 2
MODEL_ERROR = 3
IO_ERROR = 4


def main(argv: list[str] | None = None) -> int:
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
    p_sweep.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a sweep/scenario key (repeatable; wins over the file)",
    )
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_cap = sub.add_parser("capacity", help="evaluate one scenario point")
    p_cap.add_argument("--config", help="scenario config file (flat key=value)")
    p_cap.add_argument("--elements", type=int)
    p_cap.add_argument("--snr-db", type=float)
    p_cap.add_argument("--power-dbm", type=float)
    p_cap.add_argument("--xpd-coeff", type=float)
    p_cap.add_argument("--feed-gain-db", type=float)
    p_cap.add_argument("--trials", type=int)
    p_cap.add_argument("--seed", type=int, help="master seed for the trial streams")
    p_cap.add_argument("--allocation", help="equal | optimal | lambda_v value")
    p_cap.add_argument("--phase-scheme", choices=scen.PHASE_SCHEMES)
    p_cap.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any scenario key (repeatable; wins over flags)",
    )
    p_cap.set_defaults(handler=_cmd_capacity)

    p_thr = sub.add_parser("threshold", help="cross-polarization threshold from link qualities")
    p_thr.add_argument("--ov", type=float, required=True, help="V-polarization quality O_V")
    p_thr.add_argument("--oh", type=float, required=True, help="H-polarization quality O_H")
    p_thr.add_argument("--snr-db", type=float, required=True)
    p_thr.set_defaults(handler=_cmd_threshold)

    p_rec = sub.add_parser("recipes", help="list or run bundled figure recipes")
    rec_sub = p_rec.add_subparsers(dest="recipes_command", required=True)
    p_list = rec_sub.add_parser("list", help="list bundled recipes")
    p_list.set_defaults(handler=_cmd_recipes_list)
    p_run = rec_sub.add_parser("run", help="run one bundled recipe")
    p_run.add_argument("name")
    p_run.add_argument("--out", help="output CSV path (default: <name>.csv)")
    p_run.add_argument("--gnuplot", action="store_true")
    p_run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a sweep/scenario key (repeatable)",
    )
    p_run.set_defaults(handler=_cmd_recipes_run)

    return parser


def _cmd_sweep(args) -> int:
    pairs = scen.read_config_file(args.spec)
    pairs.update(_parse_overrides(args.overrides))
    spec = sweep.parse_sweep_pairs(pairs)
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
    base = scen.Scenario()
    if args.config:
        base = scen.parse_overrides(base, scen.read_config_file(args.config))
    flag_map = {
        "elements": args.elements,
        "snr_db": args.snr_db,
        "power_dbm": args.power_dbm,
        "xpd_coeff": args.xpd_coeff,
        "feed_gain_db": args.feed_gain_db,
        "trials": args.trials,
        "master_seed": args.seed,
        "allocation": args.allocation,
        "phase_scheme": args.phase_scheme,
    }
    base = base.replace(**{k: v for k, v in flag_map.items() if v is not None})
    base = scen.parse_overrides(base, _parse_overrides(args.overrides))
    model = scen.build_link_model(base)
    mc = capacity.ergodic_capacity_mc(
        model.moments, model.lambda_v, model.snr, base.trials, base.master_seed
    )
    bound = capacity.moment_upper_bound(model.moments, model.lambda_v, model.snr)
    print("# dpris capacity report")
    print(f"elements = {base.elements}")
    print(f"snr = {model.snr:.6g}")
    print(f"xpd_coeff = {base.xpd_coeff}")
    print(f"phase_scheme = {base.phase_scheme}")
    print(f"allocation = ({model.lambda_v:.6g}, {1.0 - model.lambda_v:.6g})")
    print(f"o_v = {model.o_v:.10g}  [closed-form]")
    print(f"o_h = {model.o_h:.10g}  [closed-form]")
    print(
        f"dual_mc_bits = {mc.estimate:.10g} (se {mc.standard_error:.3g}) "
        f"[monte-carlo, trials {base.trials}, seed {base.master_seed}]"
    )
    print(f"dual_ub_bits = {bound:.10g}  [closed-form]")
    moments = ", ".join(f"{m:.6g}" for m in mc.moments)
    print(f"gram_moments = ({moments})  [monte-carlo]")
    return 0


def _cmd_threshold(args) -> int:
    value = capacity.xpd_threshold(args.ov, args.oh, db_to_linear(args.snr_db))
    print(f"xpd_threshold = {value:.10g}")
    return 0


def _cmd_recipes_list(args) -> int:
    for name, description in recipes.list_recipes():
        print(f"{name}  {description}")
    return 0


def _cmd_recipes_run(args) -> int:
    spec = recipes.load_recipe(args.name, _parse_overrides(args.overrides))
    return _run_sweep(spec, args.out or f"{args.name}.csv", args.gnuplot)


def _parse_overrides(pairs: list[str]) -> dict[str, str]:
    parsed: dict[str, str] = {}
    for item in pairs:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        parsed[key.strip()] = value.strip()
    return parsed


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
