"""Differential check of two trees of this repository: the same seeded
points through each tree's ``dpris``, one line per link build and per
cell, compared line by line.

    python tests/differential.py [--against REV] [--points N] [--seed S]

The points are drawn once, in this tree: changes to a 16-element scenario
from ``FIELDS`` (``tests/test_scenario.py``), so a new field joins without
an edit, every fifth of them after ``conftest.clear_caches`` drops every
kept result it finds (a cold build); feed moves in sequence, which keep the
grid and the UE side warm; random rows of 1 to 8 draws; every degenerate
placement; and overflowing links.  Each tree then evaluates them in one
subprocess: the other tree is this repository at ``REV``, unpacked with
``git archive``, or, without ``--against``, this tree again.  A point
prints one line for ``scenario.build_link_model``: how the scenario was
made, the build's snr, split and a hash of its forms and moments, with any
warning it raised; then one line per cell, each output of ``OUTPUTS``
evaluated alone by ``sweep.evaluate``, so one output's fault cannot hide
another's; numbers as ``float.hex``, errors as their type and message.
Prints the number of differing lines and the first of them; exits 1 if
any line differs.
"""

import argparse
import hashlib
import io
import os
import pickle
import subprocess
import sys
import tarfile
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def draw_points(count: int, seed: int) -> list:
    """``count`` points, each (cold, how, values): ``how`` is ``fields``
    (``Scenario(**values)``) or ``pairs`` (text ``parse_overrides``)."""
    paths = (str(ROOT / "src"), str(ROOT / "tests"))
    sys.path[:0] = [path for path in paths if path not in sys.path]
    import numpy as np
    from hypothesis import HealthCheck, Phase, given, settings
    from hypothesis import seed as seeded

    import test_scenario as ts
    import test_sweep_cli as tc

    base = {k: v for k, v in vars(ts.BASE).items() if v != getattr(ts.scen.Scenario(), k)}
    changes = []

    @seeded(seed)
    @settings(database=None, max_examples=count // 2 + 5, phases=[Phase.generate],
              deadline=None, suppress_health_check=list(HealthCheck))
    @given(ts.CHANGES)
    def collect(change):
        changes.append(change)

    collect()
    placements = [ts.FEED_ON, {**ts.FEED_ON, **ts.UE_ON}, ts.IN_PLANE, ts.BEHIND, ts.GRAZING,
                  ts.UE_ON, ts.FACING_AWAY, {**ts.BEHIND, **ts.UE_ON, **ts.FACING_AWAY},
                  {**ts.FACING_AWAY, "incidence_convention": "transverse-plane"}]
    overflowing = [tc.OVERFLOWING, tc.OVERFLOWING_BUILD, {**tc.NEAR_ELEMENT, "snr_db": "100"},
                   tc.FAINT, {**tc.FAINT, "allocation": "optimal"},
                   {**tc.NEAR_ELEMENT, "snr_db": "300", "allocation": "equal"},
                   {**tc.NEAR_ELEMENT, "snr_db": "200", "allocation": "equal",
                    "phase_scheme": "random", "random_phase_draws": "2"}]
    rng = np.random.default_rng(seed)
    drawn = iter(changes)
    points = []
    while len(points) < count:
        step = len(points)
        kind = step % 10
        if kind < 5:
            points.append((step % 10 == 0, "fields", {**base, **next(drawn)}))
        elif kind < 7:
            angles = {"feed_zenith_deg": float(rng.choice(np.arange(30.0, 151.0, 20.0))),
                      "feed_azimuth_deg": float(rng.choice(np.arange(80.0, 281.0, 20.0)))}
            points.append((False, "fields", {"elements": 16, "boresight_deg": "origin", **angles}))
        elif kind == 7:
            row = {"elements": int(rng.choice([1, 4, 9, 16])), "phase_scheme": "random",
                   "random_phase_draws": int(rng.integers(1, 9)), "trials": 64,
                   "phase_seed": int(rng.choice([0, 5, 2**32 - 3])) + int(rng.integers(0, 4))}
            points.append((bool(rng.integers(0, 2)), "fields", row))
        elif kind == 8:
            scheme = {"phase_scheme": "random", "random_phase_draws": 2} if step % 20 < 10 else {}
            placement = placements[step // 20 % len(placements)]
            points.append((False, "fields", {"elements": 9, **scheme, **placement}))
        else:
            pairs = overflowing[step // 10 % len(overflowing)]
            points.append((False, "pairs", {"trials": "10", **pairs}))
    return points


def _text(value) -> str:
    """A cell or detail as text, a float by ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if hasattr(value, "tolist"):
        return _text(value.tolist())
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(_text, value)) + "]"
    return repr(value)


def _error(err: Exception) -> str:
    details = ", ".join(f"{k}={_text(v)}" for k, v in getattr(err, "details", {}).items())
    return f"{type(err).__name__}: {err} {{{details}}}"


def evaluate_points(path: str, src: str) -> None:
    """Print the lines of each point of the pickled ``path`` through the
    ``dpris`` under ``src``: its build, then one per output."""
    sys.path.insert(0, src)
    import numpy as np

    from conftest import clear_caches
    from dpris import scenario as scen, sweep

    if not Path(scen.__file__).is_relative_to(src):
        raise RuntimeError(f"dpris was imported from {scen.__file__}, not from {src}")

    with open(path, "rb") as handle:
        points = pickle.load(handle)
    for index, (cold, how, values) in enumerate(points):
        if cold:
            clear_caches()
        try:
            if how == "pairs":
                scenario = scen.parse_overrides(scen.Scenario(), values)
            else:
                scenario = scen.Scenario(**values)
        except Exception as err:
            print(f"{index} scenario {_error(err)}")
            continue
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                link = scen.build_link_model(scenario)
            digest = hashlib.sha256()
            for array in (link.forms, link.moments):
                digest.update(repr(array.shape).encode() + np.ascontiguousarray(array).tobytes())
            parts = [f"{_text(link.snr)} {_text(link.lambda_v)} {digest.hexdigest()[:16]}"]
            parts += [f"warning {w.category.__name__}: {w.message}" for w in caught]
        except Exception as err:
            parts = [_error(err)]
        print(f"{index} build " + " | ".join(parts))
        for name in sweep.OUTPUTS:
            try:
                cells = sweep.evaluate(scenario, [name])
                text = " ".join(f"{k}={_text(v)}" for k, v in cells.items())
            except Exception as err:
                text = _error(err)
            print(f"{index} {name} {text}")


def run_tree(tree: Path, points_path: str) -> list[str]:
    """The lines of ``tree``'s ``dpris`` on the pickled points, from one
    subprocess."""
    result = subprocess.run(
        [sys.executable, __file__, "--evaluate", points_path, str(tree.resolve() / "src")],
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", help="git revision of this repository (default: this tree)")
    parser.add_argument("--points", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--show", type=int, default=5, help="differing lines to print")
    parser.add_argument("--evaluate", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.evaluate:
        evaluate_points(*args.evaluate)
        return 0
    with tempfile.TemporaryDirectory() as scratch:
        points_path = os.path.join(scratch, "points.pickle")
        with open(points_path, "wb") as handle:
            pickle.dump(draw_points(args.points, args.seed), handle)
        other = ROOT
        if args.against:
            other = Path(scratch, "other")
            archive = subprocess.run(
                ["git", "-C", str(ROOT), "archive", "--format=tar", args.against],
                capture_output=True,
                check=True,
            ).stdout
            with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
                tar.extractall(other, filter="data")
        ours, theirs = run_tree(ROOT, points_path), run_tree(other, points_path)
    differing = [(a, b) for a, b in zip(ours, theirs) if a != b]
    differing += [(a, "") for a in ours[len(theirs):]] + [("", b) for b in theirs[len(ours):]]
    print(f"{args.points} points, {len(differing)} differing lines")
    for a, b in differing[: args.show]:
        print(f"- this tree:  {a}\n+ the other: {b}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
