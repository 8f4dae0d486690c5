import csv
import functools
import importlib
import math
import os
import pkgutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dpris
from dpris import capacity, channel, cli, geometry, recipes, ris, scenario as scen, sweep
from dpris.exceptions import DegenerateGeometryError, ModelInconsistencyError

import oracles
from conftest import clear_caches, kept_results


def spec_from(text_pairs):
    return sweep.parse_sweep_pairs(dict(text_pairs))


BOUNDS_ONLY_16 = {"elements": "16", "trials": "50"}
#: ``dpris capacity`` arguments of a small, quick point.
ELEMENTS_16_TRIALS_10 = ["--set", "elements=16", "--set", "trials=10"]


def test_a_spec_made_in_code_names_an_unknown_axis():
    # SweepSpec owns the axis check, so a spec made in code is checked as
    # a parsed one is, whatever its grid
    with pytest.raises(ValueError, match="unknown sweep axis 'bogus'"):
        sweep.SweepSpec(axis="bogus", grid=(1.0,), outputs=("dual-ub",), base=scen.Scenario())
    with pytest.raises(ValueError, match="unknown sweep axis 'bogus'"):
        spec_from({"axis": "bogus", "grid": "x, y", "outputs": "dual-ub"})


def test_evaluate_names_an_unknown_output():
    with pytest.raises(ValueError, match="unknown output 'bogus'.*'dual-ub'"):
        sweep.evaluate(scen.Scenario(elements=16), ("dual-ub", "bogus"))
    # a bare name is refused whole, not read as the names of its letters
    with pytest.raises(ValueError, match="outputs must be a sequence .* not the string 'dual-ub'"):
        sweep.evaluate(scen.Scenario(elements=16), "dual-ub")


def test_evaluate_and_sweep_spec_refuse_the_same_names_alike():
    # one check of the names for a point and for a sweep, before any link
    # is built: an unknown name and a repeated one (which would compute
    # its cells twice) fail with the same message from either
    unbuildable = scen.Scenario(elements=16, feed_azimuth_deg=0.0)  # feed behind the surface
    for outputs, message in (
        (("dual-ub", "dual-ub"), "output 'dual-ub' is named twice"),
        (("single-ub", "bogus"), "unknown output 'bogus' (expected one of "),
    ):
        errors = []
        for check in (
            lambda: sweep.evaluate(unbuildable, outputs),
            lambda: sweep.SweepSpec(axis="xpd", grid=(0.0, 1.0), outputs=outputs, base=unbuildable),
        ):
            with pytest.raises(ValueError) as excinfo:
                check()
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1] and errors[0].startswith(message)


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        spec_from({"axis": "frequency", "grid": "1,2", "outputs": "dual-ub"})
    with pytest.raises(ValueError):
        spec_from({"axis": "xpd", "grid": "", "outputs": "dual-ub"})
    with pytest.raises(ValueError):
        spec_from({"axis": "xpd", "grid": "0,0.5,0.2", "outputs": "dual-ub"})
    with pytest.raises(ValueError):
        spec_from({"axis": "xpd", "grid": "0,1", "outputs": "dual-ub,banana"})
    with pytest.raises(ValueError):
        spec_from({"axis": "feed-angles", "grid": "30,60", "outputs": "dual-ub"})
    with pytest.raises(ValueError):
        spec_from({"axis": "xpd", "grid": "0,1", "grid2": "1,2", "outputs": "dual-ub"})
    with pytest.raises(ValueError):
        spec_from({"grid": "0,1", "outputs": "dual-ub"})
    with pytest.raises(ValueError):
        spec_from({"axis": "xpd", "grid": "0,1", "outputs": "dual-ub", "bogus_key": "3"})
    # no output, parsed from a list of empty names or built in code
    with pytest.raises(ValueError, match="sweep must select at least one output"):
        spec_from({"axis": "xpd", "grid": "0,1", "outputs": ","})
    with pytest.raises(ValueError, match="sweep must select at least one output"):
        sweep.SweepSpec(axis="xpd", grid=(0.0, 1.0), outputs=(), base=scen.Scenario())
    with pytest.raises(ValueError, match="outputs must be a sequence .* not the string 'dual-ub'"):
        sweep.SweepSpec(axis="xpd", grid=(0.0, 1.0), outputs="dual-ub", base=scen.Scenario())
    # an output named twice, and a grid or grid2 that is not strictly
    # monotone, would write a column or a row twice; the error names it
    with pytest.raises(ValueError, match="'dual-ub' is named twice"):
        spec_from({"axis": "xpd", "grid": "0,1", "outputs": "dual-ub, dual-ub"})
    with pytest.raises(ValueError, match="grid must be strictly monotone, got 0.0,0.5,0.5"):
        spec_from({"axis": "xpd", "grid": "0,0.5,0.5", "outputs": "dual-ub"})
    with pytest.raises(ValueError, match="grid2 must be strictly monotone, got 100.0,80.0"):
        spec_from(
            {
                "axis": "feed-angles",
                "grid": "90",
                "grid2": "100, 80, 120, 100",
                "outputs": "dual-ub",
            }
        )


def test_grid_values_parse_as_their_field():
    # a grid value that does not parse fails with an error naming the
    # axis's field; power-allocation values are the V share as floats
    for axis, grid, field in (
        ("snr", "100, abc", "snr_db"),
        ("snr", "100, none", "snr_db"),
        ("element-count", "16, 1e3", "elements"),
        ("feed-gain", "10, 1O", "feed_gain_db"),
    ):
        with pytest.raises(ValueError, match=field):
            spec_from({"axis": axis, "grid": grid, "outputs": "dual-ub"})
    with pytest.raises(ValueError, match="feed_azimuth_deg"):
        spec_from({"axis": "feed-angles", "grid": "90", "grid2": "0, x", "outputs": "dual-ub"})
    spec = spec_from({"axis": "element-count", "grid": "16, 36", "outputs": "dual-ub"})
    assert spec.grid == (16, 36) and all(type(v) is int for v in spec.grid)
    spec = spec_from({"axis": "power-allocation", "grid": "0, 0.5, 1", "outputs": "dual-ub"})
    assert spec.grid == (0.0, 0.5, 1.0) and all(type(v) is float for v in spec.grid)


def test_xpd_sweep_endpoints_and_dip():
    spec = spec_from(
        {
            "axis": "xpd",
            "grid": "0, 0.5, 1",
            "outputs": "dual-ub",
            "allocation": "optimal",
            **BOUNDS_ONLY_16,
        }
    )
    result = sweep.run_sweep(spec)
    values = [row["dual_ub_bits"] for row in result.rows]
    statuses = [row["status"] for row in result.rows]
    assert statuses == ["ok"] * 3
    assert values[0] == values[2]
    assert values[1] < values[0]


def test_sweep_rows_are_deterministic():
    pairs = {
        "axis": "snr",
        "grid": "100, 110, 120",
        "outputs": "dual-mc, dual-ub",
        **BOUNDS_ONLY_16,
    }
    first = sweep.run_sweep(spec_from(pairs))
    second = sweep.run_sweep(spec_from(pairs))
    for a, b in zip(first.rows, second.rows):
        for column in first.columns:
            if column == "runtime_s":
                continue
            assert a.get(column) == b.get(column)


def test_sweep_csv_byte_identical_modulo_runtime(tmp_path):
    pairs = {
        "axis": "element-count",
        "grid": "16, 36",
        "outputs": "dual-mc, dual-ub",
        "trials": "40",
    }
    paths = []
    for tag in ("a", "b"):
        result = sweep.run_sweep(spec_from(dict(pairs)))
        path = tmp_path / f"{tag}.csv"
        sweep.write_csv(result, str(path))
        paths.append(path)

    def strip_runtime(path):
        lines = path.read_text().splitlines()
        out = []
        for line in lines:
            if line.startswith("#"):
                out.append(line)
            else:
                out.append(",".join(line.split(",")[:-1]))
        return out

    assert strip_runtime(paths[0]) == strip_runtime(paths[1])


def test_random_phase_row_is_jensen_consistent():
    # every column of a random-scheme row describes the same ensemble of
    # phase draws, so the Monte Carlo mean stays below the mean bound
    spec = spec_from(
        {
            "axis": "phase-scheme",
            "grid": "random",
            "outputs": "dual-mc, dual-ub",
            "elements": "16",
            "power_dbm": "43",
            "phase_seed": "5",
            "random_phase_draws": "200",
        }
    )
    row = sweep.run_sweep(spec).rows[0]
    assert row["status"] == "ok"
    assert row["dual_mc_bits"] <= row["dual_ub_bits"] + 3.0 * row["dual_mc_se"]


RANDOM_16 = {
    "elements": "16",
    "power_dbm": "43",
    "phase_seed": "5",
    "random_phase_draws": "200",
}


def test_random_phase_row_single_pol_describes_its_draws():
    # the single-polarized bound of a random row averages over the row's
    # own draws: Jensen holds against its Monte Carlo, and random phases
    # lose the aligned bound's array gain
    spec = spec_from(
        {
            "axis": "phase-scheme",
            "grid": "optimal, random",
            "outputs": "single-mc, single-ub",
            "trials": "20000",
            **RANDOM_16,
        }
    )
    aligned, random = sweep.run_sweep(spec).rows
    assert random["status"] == "ok"
    assert random["single_mc_bits"] <= random["single_ub_bits"] + 3.0 * random["single_mc_se"]
    assert random["single_ub_bits"] < aligned["single_ub_bits"]


@pytest.mark.parametrize(
    "pairs,field",
    [({"outputs": "dual-ub, threshold"}, "threshold"), ({"allocation": "optimal"}, "allocation")],
)
def test_random_phase_row_rejects_aligned_closed_forms(pairs, field):
    axis = {"axis": "phase-scheme", "grid": "optimal, random", "outputs": "dual-ub"}
    spec = spec_from({**axis, **RANDOM_16, **pairs})
    aligned, random = sweep.run_sweep(spec).rows
    assert aligned["status"] == "ok"
    assert random["status"].startswith("failed:") and field in random["status"]


@pytest.mark.parametrize("draws", [1, 2])
def test_threshold_refuses_a_random_scenario_outside_a_sweep(draws):
    # the refusal is the output's own, so a direct caller gets it by name, as a sweep row does
    current = scen.Scenario(elements=16, phase_scheme="random", random_phase_draws=draws)
    with pytest.raises(ModelInconsistencyError, match="output threshold"):
        sweep.evaluate(current, ("threshold",))


def random_row(draws):
    current = scen.Scenario(
        elements=16,
        power_dbm=43.0,
        phase_scheme="random",
        phase_seed=5,
        random_phase_draws=draws,
        trials=3000,
    )
    return current, scen.build_link_model(current)


def test_random_phase_chunks_stack_the_seeded_draws():
    # row d of the model's moments is draw phase_seed + d, bit for bit
    current, model = random_row(300)
    parts = oracles.link_parts(current)
    assert model.moments.shape == (300, 4)
    for draw in range(300):
        v, h = oracles.random_phases(4, 4, 5 + draw).reshape(2, 16)
        config = oracles.RisConfiguration(
            parts.config.amplitudes_v, parts.config.amplitudes_h, v, h
        )
        np.testing.assert_array_equal(model.moments[draw], config.moments(parts))


@pytest.mark.parametrize("elements", [16, 400])
def test_chunking_cannot_change_a_number(monkeypatch, elements):
    # one draw per chunk, chunks that leave a remainder, and every draw in
    # one chunk give the same bits
    current, _ = random_row(300)
    current = current.replace(elements=elements)
    parts = oracles.link_parts(current)
    points = 4 * elements + 3 * parts.spectrum.size  # buffer points one draw takes
    rows = {}
    for per_chunk in (1, 7, 300):
        monkeypatch.setattr(capacity, "_FFT_LATTICE_POINTS", per_chunk * points)
        scen._surface_memo.clear()  # each chunking builds the surface anew
        rows[per_chunk] = scen.build_link_model(current).moments
    for per_chunk in (7, 300):
        np.testing.assert_array_equal(rows[per_chunk], rows[1])
    surface = parts.config.surface(parts)
    side = math.isqrt(elements)
    draws = np.stack([oracles.random_phases(side, side, 5 + d) for d in range(300)])
    q = oracles.fft2_draw_forms(surface, draws, parts.spectrum)
    np.testing.assert_array_equal(capacity.moment_layout(q, parts.xpd_coeff), rows[1])


def record_phase_seeds(monkeypatch):
    """The seeds whose draws ``ris.random_phase_chunks`` writes, in order."""
    seeds = []
    chunks = ris.random_phase_chunks

    def counted(out, draws):
        written = 0
        for chunk in chunks(out, draws):
            seeds.extend(draws[written : written + len(chunk)])
            written += len(chunk)
            yield chunk

    monkeypatch.setattr(ris, "random_phase_chunks", counted)
    return seeds


def test_random_phase_row_draws_each_seed_once(monkeypatch):
    # a D-draw row writes D phase draws: those of phase_seed + d, and no
    # further draw of phase_seed for phases that nothing reads
    seeds = record_phase_seeds(monkeypatch)
    current, _ = random_row(1000)
    assert seeds == list(range(5, 1005))


def test_random_phase_row_matches_per_draw_oracle():
    # 100 trials of 137 draws: only the first 100 draws enter the Monte
    # Carlo, while the bound averages all 137
    for trials in (3000, 100):
        current = random_row(137)[0].replace(trials=trials)
        spec = sweep.SweepSpec(
            axis="phase-scheme", grid=("random",), outputs=("dual-mc", "dual-ub"), base=current
        )
        row = sweep.run_sweep(spec).rows[0]
        bound, mc = oracles.random_row_per_draw(current, 0.5)
        assert row["dual_ub_bits"] == pytest.approx(bound, rel=1e-12)
        assert row["dual_mc_bits"] == pytest.approx(mc, rel=1e-12)


def test_random_phase_row_memory_stays_flat():
    # a row never holds all of its draws: the 1000 draws' phases alone
    # take 6.4 MB at N = 400
    spec = spec_from(
        {
            "axis": "phase-scheme",
            "grid": "random",
            "outputs": "dual-ub",
            "elements": "400",
            "random_phase_draws": "1000",
        }
    )
    sweep.run_sweep(spec)  # warm the kernel-spectrum cache and lazy imports
    scen._surface_memo.clear()  # but build the surface and its draws anew
    tracemalloc.start()
    try:
        row = sweep.run_sweep(spec).rows[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert row["status"] == "ok"
    assert peak < 4 * 2**20


def count_surface_ffts(monkeypatch):
    """Record (kernel name, surface shape) for every call of the two
    surface FFT kernels."""
    calls = []
    for name in ("compute_O", "expected_gram_moments"):

        def counted(surface, *rest, name=name, kernel=getattr(capacity, name)):
            calls.append((name, surface.shape))
            return kernel(surface, *rest)

        monkeypatch.setattr(capacity, name, counted)
    return calls


def test_aligned_row_builds_moments_from_O(monkeypatch):
    # an aligned row takes its moments from O_V and O_H: the one compute_O
    # call on both amplitude vectors is its only surface FFT, whatever its
    # outputs
    calls = count_surface_ffts(monkeypatch)
    spec = spec_from(
        {
            "axis": "phase-scheme",
            "grid": "optimal-with-adjustment",
            "outputs": "dual-ub, single-ub, dual-mc, single-mc, allocation, threshold",
            **BOUNDS_ONLY_16,
        }
    )
    row = sweep.run_sweep(spec).rows[0]
    assert row["status"] == "ok"
    assert calls == [("compute_O", (2, 4, 4))]


def test_snr_sweep_builds_its_surface_once(monkeypatch):
    # the points of an snr sweep share one surface, so its one FFT runs
    # for the first point only
    calls = count_surface_ffts(monkeypatch)
    spec = spec_from(
        {
            "axis": "snr",
            "grid": "100, 110, 120, 130, 140",
            "outputs": "dual-ub, allocation",
            "elements": "400",
            "allocation": "optimal",
        }
    )
    rows = sweep.run_sweep(spec).rows
    assert [row["status"] for row in rows] == ["ok"] * 5
    assert len({row["lambda_v"] for row in rows}) == 5
    assert calls == [("compute_O", (2, 20, 20))]


def test_random_xpd_sweep_seeds_its_draws_once(monkeypatch):
    # the points of an xpd sweep share the random scheme's phase draws
    seeds = record_phase_seeds(monkeypatch)
    spec = spec_from(
        {
            "axis": "xpd",
            "grid": "0, 0.5, 1",
            "outputs": "dual-ub, dual-mc",
            "phase_scheme": "random",
            "phase_seed": "5",
            "random_phase_draws": "20",
            **BOUNDS_ONLY_16,
        }
    )
    rows = sweep.run_sweep(spec).rows
    assert [row["status"] for row in rows] == ["ok"] * 3
    assert seeds == list(range(5, 25))


@pytest.mark.parametrize(
    "outputs",
    [
        "dual-mc",
        "single-mc",
        "mc-moments",
        "single-mc, dual-mc",
        "mc-moments, dual-mc, single-mc",
    ],
)
def test_row_makes_one_estimator_call(monkeypatch, outputs):
    # the Monte Carlo columns read one kept trial set, drawn once; the
    # estimates come from one estimator call, and mc-moments alone makes none
    results = []
    estimator = capacity.ergodic_capacity_mc

    def counted(*args, **kwargs):
        results.append(estimator(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(capacity, "ergodic_capacity_mc", counted)
    spec = spec_from({"axis": "xpd", "grid": "0.2", "outputs": outputs, **BOUNDS_ONLY_16})
    row = sweep.run_sweep(spec).rows[0]
    assert row["status"] == "ok" and capacity._trial_statistics.cache_info().misses == 1
    assert len(results) == ("dual-mc" in outputs or "single-mc" in outputs)
    if "dual-mc" in outputs:
        (mc,) = results
        assert (row["dual_mc_bits"], row["dual_mc_se"]) == (mc.estimate, mc.standard_error)
    if "single-mc" in outputs:
        (mc,) = results
        assert row["single_mc_bits"] == mc.single_pol_estimate
        assert row["single_mc_se"] == mc.single_pol_standard_error
    if "mc-moments" in outputs:
        # each entry's mean of |z_ij|^2 m_ij / 2 over those trials
        link = scen.build_link_model(spec.base.replace(xpd_coeff=0.2))
        power = capacity._trial_statistics(link.trials, link.master_seed)[0]
        expected = (power * (link.moments / 2.0)[:, None]).T.mean(axis=0)
        assert [row[f"mc_m{i}"] for i in (11, 12, 21, 22)] == expected.tolist()


def test_unknown_names_fail_the_row_or_the_command(capsys, tmp_path):
    # a bad grid value fails its row only; a bad name given to the CLI is a
    # usage error; both name the field
    spec = spec_from(
        {"axis": "phase-scheme", "grid": "optimal, bogus", "outputs": "dual-ub", **BOUNDS_ONLY_16}
    )
    ok, bad = sweep.run_sweep(spec).rows
    assert ok["status"] == "ok"
    assert bad["status"].startswith("failed:") and "phase_scheme" in bad["status"]
    # the failure message holds commas, yet its row keeps the header's width
    path = tmp_path / "schemes.csv"
    sweep.write_csv(sweep.run_sweep(spec), str(path))
    with open(path, newline="", encoding="utf-8") as handle:
        table = list(csv.reader(line for line in handle if not line.startswith("#")))
    assert [len(row) for row in table] == [4, 4, 4]
    assert table[2][2] == bad["status"]
    rc = cli.main(["capacity", "--set", "elements=16", "--set", "incidence_convention=bogus"])
    assert rc == 2
    assert "incidence_convention" in capsys.readouterr().err


def test_sweep_marks_degenerate_rows_and_continues():
    spec = spec_from(
        {
            "axis": "feed-angles",
            "grid": "90",
            "grid2": "80, 180, 280",
            "outputs": "dual-ub",
            "boresight_deg": "origin",
            "elements": "16",
        }
    )
    result = sweep.run_sweep(spec)
    statuses = [row["status"] for row in result.rows]
    assert statuses[0].startswith("failed:")
    assert statuses[1] == "ok"
    assert statuses[2].startswith("failed:")
    assert result.rows[1]["dual_ub_bits"] > 0.0


def test_feed_angles_sweep_builds_the_kernel_spectrum_once(monkeypatch):
    # every row of a feed-angles sweep builds its surface anew, all on one
    # grid, so the spectrum kept with the UE side serves all 77 rows
    spectra = count_calls(monkeypatch, capacity, "kernel_spectrum")
    spec = spec_from(
        {
            "axis": "feed-angles",
            "grid": "30, 40, 50, 60, 70, 80, 90",
            "grid2": "130, 140, 150, 160, 170, 180, 190, 200, 210, 220, 230",
            "outputs": "dual-ub",
            "elements": "16",
        }
    )
    result = sweep.run_sweep(spec)
    assert [row["status"] for row in result.rows] == ["ok"] * 77
    assert [args[:2] for args in spectra] == [(4, 4)]


def count_calls(monkeypatch, module, name) -> list:
    """The argument tuples of every call of ``module.name`` from now on."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "axis,builds",
    [
        ({"axis": "feed-angles", "grid": "60, 90, 120", "grid2": "150, 180, 210"}, 1),
        ({"axis": "element-count", "grid": "4, 9, 16"}, 3),
    ],
    ids=["feed-angles", "element-count"],
)
def test_feed_moves_reuse_the_grid_and_ue_side_bit_for_bit(monkeypatch, axis, builds):
    # a feed move keeps the grid and the UE's pathloss weights, a new
    # element count builds both; every row has the bits of a cold build
    spec = spec_from({**axis, "outputs": "dual-ub, quality", "elements": "16"})
    grids = count_calls(monkeypatch, geometry, "build_ris_grid")
    weights = count_calls(monkeypatch, channel, "pathloss_weights")
    rows = sweep.run_sweep(spec).rows
    assert [row["status"] for row in rows] == ["ok"] * len(rows)
    assert (len(grids), len(weights)) == (builds, builds)
    for row, point in zip(rows, sweep._grid_points(spec)):
        clear_caches()
        cold = sweep.evaluate(sweep._scenario_at(spec, point), spec.outputs)
        assert cold == {column: row[column] for column in cold}


def test_feed_fault_is_named_before_the_ue_fault_on_a_kept_grid():
    # the UE sits on an element of the 3 x 3 surface, at (0, 0, pitch): a
    # feed behind the surface names the feed, one in front the UE
    pitch = 1.0 / 3.0 * 0.0115
    spec = spec_from(
        {
            "axis": "feed-angles",
            "grid": "60, 90",
            "grid2": "0, 180",
            "outputs": "dual-ub",
            "elements": "9",
            "ue_r_m": repr(pitch),
            "ue_zenith_deg": "0",
        }
    )
    aperture = "element 0 has non-positive projected aperture"
    statuses = [row["status"] for row in sweep.run_sweep(spec).rows]
    assert [status.startswith(f"failed: {aperture}") for status in statuses] == [True, False] * 2
    assert statuses[1::2] == ["failed: UE coincides with an element"] * 2


def test_clear_caches_clears_every_cache_the_package_keeps(monkeypatch):
    # a cache the package adds but conftest.clear_caches misses would carry
    # results from one test into the next, making tests depend on their
    # order; so clear_caches finds the caches rather than naming them: a
    # cache put in any dpris module is found, and what a sweep keeps is
    # found and dropped
    probes = {}
    for info in pkgutil.iter_modules(dpris.__path__):
        module = importlib.import_module(f"dpris.{info.name}")
        name = f"{module.__name__}._probe"
        probes[name] = functools.lru_cache(maxsize=1)(lambda: None)
        monkeypatch.setattr(module, "_probe", probes[name], raising=False)
    kept = kept_results()
    assert all(kept.get(name) is probe for name, probe in probes.items())

    def sizes():
        return {
            name: len(value) if isinstance(value, dict) else value.cache_info().currsize
            for name, value in kept.items()
        }

    for probe in probes.values():
        probe()
    spec = spec_from(
        {
            "axis": "feed-angles",
            "grid": "60, 90",
            "grid2": "150, 180",
            "outputs": "dual-ub, dual-mc",
            "elements": "16",
            "trials": "16",
        }
    )
    assert [row["status"] for row in sweep.run_sweep(spec).rows] == ["ok"] * 4
    assert len(kept) > len(probes) + 1  # the package's own caches beside the memo
    assert sizes() == dict.fromkeys(kept, 1)
    clear_caches()
    assert sizes() == dict.fromkeys(kept, 0)


def test_sweep_nonsquare_element_count_fails_row_only():
    spec = spec_from(
        {"axis": "element-count", "grid": "16, 24", "outputs": "dual-ub", "trials": "10"}
    )
    result = sweep.run_sweep(spec)
    assert result.rows[0]["status"] == "ok"
    assert result.rows[1]["status"].startswith("failed:")
    # a grid built in code may hold floats; a float count, even a whole
    # one, fails its row alone, by name
    spec = sweep.SweepSpec("element-count", (9, 16.0, 25), ("dual-ub",), scen.Scenario())
    statuses = [row["status"] for row in sweep.run_sweep(spec).rows]
    assert statuses[::2] == ["ok", "ok"]
    assert statuses[1].startswith("failed: elements must be an integer")


def test_csv_header_echoes_scenario(tmp_path):
    spec = spec_from({"axis": "xpd", "grid": "0,1", "outputs": "single-ub", **BOUNDS_ONLY_16})
    path = tmp_path / "echo.csv"
    sweep.write_csv(sweep.run_sweep(spec), str(path))
    text = path.read_text()
    assert "# axis=xpd\n" in text
    assert "# elements=16\n" in text
    assert "# master_seed=20260810\n" in text
    header_line = [l for l in text.splitlines() if not l.startswith("#")][0]
    assert header_line.split(",")[0] == "xpd_coeff"
    assert "status" in header_line and "runtime_s" in header_line


def test_gnuplot_companion_mentions_columns():
    spec = spec_from({"axis": "xpd", "grid": "0,1", "outputs": "dual-ub", **BOUNDS_ONLY_16})
    script = sweep.gnuplot_script(sweep.run_sweep(spec), "out.csv")
    assert "dual_ub_bits" in script
    assert "plot " in script


def test_recipes_registry_complete():
    names = [name for name, _ in recipes.list_recipes()]
    assert names == ["fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"]
    with pytest.raises(ValueError):
        recipes.load_recipe("fig99")


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", [name for name, _ in recipes.list_recipes()])
def test_recipes_match_golden_outputs(tmp_path, name):
    # every recipe at 64 trials reproduces its recorded CSV bit for bit:
    # every header line, and every cell but the runtime
    path = tmp_path / f"{name}.csv"
    sweep.write_csv(sweep.run_sweep(recipes.load_recipe(name, {"trials": "64"})), str(path))

    def split(text):
        lines = text.splitlines()
        header = [line for line in lines if line.startswith("#")]
        table = list(csv.reader(line for line in lines if not line.startswith("#")))
        runtime = table[0].index("runtime_s")
        return header, [row[:runtime] + row[runtime + 1 :] for row in table]

    assert split(path.read_text()) == split((GOLDEN / f"{name}.csv").read_text())


def recipe_rows(name):
    """The rows of a bundled recipe, run at its own settings."""
    return sweep.run_sweep(recipes.load_recipe(name)).rows


def rises_then_falls(steps):
    """Steps up, then steps down: at least one of each, one change of sign."""
    signs = np.sign(steps)
    return signs[0] > 0 and signs[-1] < 0 and np.count_nonzero(np.diff(signs)) == 1


def test_fig3_capacity_rises_then_falls_with_the_feed_gain():
    # the claim of fig3's description, at its own 10^5 trials: the bound
    # and the Monte Carlo capacity rise with the feed gain, then fall; the
    # Monte Carlo peak lies at 15-17 dB, within its standard error
    rows = recipe_rows("fig3")
    assert all(row["status"] == "ok" for row in rows)
    gain_db, bound, mc, se = (
        np.array([row[column] for row in rows])
        for column in ("feed_gain_db", "dual_ub_bits", "dual_mc_bits", "dual_mc_se")
    )
    assert rises_then_falls(np.diff(bound))
    # a Monte Carlo step counts where it exceeds 3 SE of the difference
    steps = np.diff(mc)
    assert rises_then_falls(steps[np.abs(steps) > 3.0 * np.hypot(se[1:], se[:-1])])
    top = np.argmax(mc)
    near_top = mc >= mc[top] - 3.0 * np.hypot(se, se[top])
    assert np.all((15.0 <= gain_db[near_top]) & (gain_db[near_top] <= 17.1))


def test_fig4_bound_grows_with_the_surface_and_saturates():
    # the claim of fig4's description: nondecreasing in N, saturating; the
    # bound's step to each N shrinks from N = 64 on
    rows = recipe_rows("fig4")
    assert all(row["status"] == "ok" for row in rows)
    elements = [row["elements"] for row in rows]
    steps = np.diff([row["dual_ub_bits"] for row in rows])
    assert np.all(steps > 0)
    assert np.all(np.diff(steps[elements.index(64) - 1 :]) < 0)


def test_fig5_aligning_schemes_tie_and_random_phases_fall_below():
    rows = {row["phase_scheme"]: row for row in recipe_rows("fig5")}
    assert all(row["status"] == "ok" for row in rows.values())
    aligned = rows["optimal"]["dual_ub_bits"]
    assert rows["optimal-with-adjustment"]["dual_ub_bits"] == aligned
    assert rows["random"]["dual_ub_bits"] < aligned - 0.5


def test_fig6_v_takes_more_power_and_the_gap_closes_with_snr():
    rows = recipe_rows("fig6")
    assert all(row["status"] == "ok" for row in rows)
    lambda_v = np.array([row["lambda_v"] for row in rows])
    assert np.all((0.5 < lambda_v) & (lambda_v <= 1.0))
    assert np.all(np.diff(lambda_v) < 0)


def test_fig8_fails_exactly_the_feeds_behind_the_surface():
    rows = recipe_rows("fig8")
    failed = [row for row in rows if row["status"] != "ok"]
    assert len(rows) == 77 and len(failed) == 14
    assert {row["feed_azimuth_deg"] for row in failed} == {80.0, 280.0}
    assert all("non-positive projected aperture" in row["status"] for row in failed)


def test_fig9_xpd_claims_hold_for_the_split_they_name():
    # the claims of fig9's description, at its own 10^5 trials: the dual
    # bound is highest at the endpoints and dips at 1/2, the single bound
    # decays, the Monte Carlo stays under the bound within 3 SE, and above
    # the threshold the dual bound exceeds twice the single one
    rows = recipe_rows("fig9")
    assert all(row["status"] == "ok" for row in rows)
    xpd, dual_ub, single_ub, dual_mc, dual_se = (
        np.array([row[column] for row in rows])
        for column in ("xpd_coeff", "dual_ub_bits", "single_ub_bits", "dual_mc_bits", "dual_mc_se")
    )
    assert np.all(dual_ub[1:-1] < min(dual_ub[0], dual_ub[-1]))
    assert xpd[np.argmin(dual_ub)] == 0.5
    assert np.all(np.diff(single_ub) < 0)
    assert np.all(dual_mc <= dual_ub + 3.0 * dual_se)
    # the threshold is the closed form of the equal split, so the claim is
    # checked on that split's bounds; the recipe's own optimal split
    # crosses at the same grid step
    (threshold,) = {row["xpd_threshold"] for row in rows}
    assert 0.5 < threshold < 0.55
    equal = sweep.run_sweep(
        recipes.load_recipe("fig9", {"allocation": "equal", "outputs": "dual-ub, single-ub"})
    ).rows
    assert [row["xpd_coeff"] for row in equal] == list(xpd)
    equal_gain = np.array([row["dual_ub_bits"] - 2.0 * row["single_ub_bits"] for row in equal])
    np.testing.assert_array_equal(equal_gain > 0.0, xpd > threshold)
    np.testing.assert_array_equal(dual_ub - 2.0 * single_ub > 0.0, xpd > threshold)


def test_recipe_overrides_apply():
    spec = recipes.load_recipe("fig9", {"grid": "0, 0.5, 1", "trials": "20", "elements": "16"})
    assert spec.base.elements == 16
    assert len(spec.grid) == 3


def test_cli_capacity_smoke(capsys):
    argv = ["capacity", "--set", "elements=16", "--set", "snr_db=0"]
    rc = cli.main(argv + ["--set", "xpd_coeff=0.2", "--set", "trials=500"])
    out = capsys.readouterr().out
    assert rc == 0
    values = {}
    for line in out.splitlines():
        if " = " in line:
            key, value = line.split(" = ")
            values[key] = float(value)
    assert values["dual_mc_bits"] <= values["dual_ub_bits"] + 3.0 * values["dual_mc_se"]
    assert "# trials=500" in out.splitlines()


@pytest.mark.parametrize("scheme", ["optimal", "random"])
def test_cli_capacity_quality_describes_its_row(capsys, scheme):
    # quality is the mean over the row's draws of the forms (q_V, q_H) its
    # moments split from: O_V and O_H themselves under the aligning phases
    changes = ["--set", f"phase_scheme={scheme}", "--set", "random_phase_draws=4"]
    assert cli.main(["capacity", *ELEMENTS_16_TRIALS_10, *changes]) == 0
    lines = capsys.readouterr().out.splitlines()
    values = dict(line.split(" = ") for line in lines if " = " in line)
    current = scen.Scenario(elements=16, trials=10, phase_scheme=scheme, random_phase_draws=4)
    if scheme == "random":
        parts = oracles.link_parts(current)
        draws = (oracles.random_phases(4, 4, current.phase_seed + d) for d in range(4))
        surface = parts.config.surface(parts)
        expected = oracles.fft2_draw_forms(surface, draws, parts.spectrum).mean(axis=0)
    else:
        expected = scen.build_link_model(current).forms
    assert (float(values["o_v"]), float(values["o_h"])) == tuple(expected)


def test_cli_capacity_rejects_zero_trials(capsys):
    rc = cli.main(["capacity", "--set", "elements=16", "--set", "trials=0"])
    assert rc == 2
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field,values",
    [
        pytest.param("trials", ("0", "-3", "1e5"), id="trials"),
        pytest.param("random_phase_draws", ("0", "-3"), id="random_phase_draws"),
        pytest.param("elements", ("0", "-4"), id="elements"),
        pytest.param("xpd_coeff", ("abc",), id="xpd_coeff"),
    ],
)
def test_counts_are_rejected_when_parsed(field, values):
    # a count below 1, or a value that does not parse, fails with an error
    # that names the field when the scenario is made
    for value in values:
        with pytest.raises(ValueError, match=field):
            scen.parse_overrides(scen.Scenario(), {field: value})
    assert getattr(scen.Scenario(**{field: 1}), field) == 1


@pytest.mark.parametrize("field", ["elements", "trials", "random_phase_draws"])
def test_a_count_past_its_ceiling_is_a_usage_error(capsys, field):
    # 10^12 elements or trials would size arrays of terabytes, and 10^12
    # draws would run for years (1000 take about 43 ms at N = 400): the
    # count is refused by name when parsed, before any array is made
    argv = ["capacity", "--set", "phase_scheme=random", "--set", f"{field}=1000000000000"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert f"{field} must be finite and lie in [1, 1000000]" in err and "Traceback" not in err


def test_a_huge_element_count_fails_its_row_and_the_csv_is_written(tmp_path):
    spec_path = tmp_path / "huge.sweep"
    spec_path.write_text(
        "axis = element-count\ngrid = 16, 1000000000000\noutputs = dual-ub\ntrials = 10\n"
    )
    out_path = tmp_path / "huge.csv"
    assert cli.main(["sweep", str(spec_path), "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    assert [row["elements"] for row in rows] == ["16", "1000000000000"]
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"].startswith("failed: elements must be finite and lie in [1, 1000000]")


@pytest.mark.parametrize(
    "override",
    [
        "snr_db=inf",
        "noise_dbm=-inf",
        "power_dbm=nan",
        "xpd_coeff=1.5",
        "feed_r_m=0",
        "feed_r_m=-1",
        "ue_r_m=0",
        "feed_zenith_deg=200",
        "ue_zenith_deg=-5",
        "boresight_deg=a,b,c",
        "boresight_deg=0,0,0",
        "normal_incidence_phase_deg=180",
        "feed_gain_db=2",
        "pitch_wavelengths=0",
        "wavelength_m=-1",
        "pathloss_exponent=0",
        "elements=15",
        "beta0_db=4000",
        "feed_gain_db=4000",
        "pitch_wavelengths=1e300",
        "wavelength_m=1e-300",
        "feed_r_m=1e154",
        "feed_r_m=1e200",
        "ue_r_m=1e155",
        "ue_r_m=1e160",
        # finite rays whose carrier phase overflows
        "wavelength_m=1e-300 pitch_wavelengths=1e150 feed_r_m=1e10",
        # a seed below 0, named before any generator sees it
        "master_seed=-1",
        "phase_seed=-5 phase_scheme=random",
    ],
)
def test_non_finite_or_out_of_range_values_are_usage_errors(capsys, override):
    # every range the link model assumes is checked when the scenario is
    # made, before any surface is laid out (no numpy warning, which the
    # test configuration turns into an error), and the error names the
    # first field of the override, and its range where the value is outside
    argv = ["capacity", "--set", "trials=10"]
    for pair in override.split():
        argv += ["--set", pair]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    field, _, value = override.split()[0].partition("=")
    assert field in err
    least, greatest = scen._RANGES.get(field, (-math.inf, math.inf))
    if field in scen._RANGES and not least <= float(value) <= greatest:
        assert f"{field} must be finite and lie in [{least}, {greatest}]" in err


@pytest.mark.parametrize(
    "override", ["feed_r_m = 0", "beta0_db = 4000", "master_seed = -3", "phase_seed = -5"]
)
def test_sweep_with_bad_base_is_usage_error(tmp_path, capsys, override):
    # a bad base value fails the command, not every row, and no CSV is
    # written
    spec_path = tmp_path / "bad.sweep"
    spec_path.write_text(f"axis = xpd\ngrid = 0, 1\noutputs = dual-ub\n{override}\n")
    out_path = tmp_path / "bad.csv"
    assert cli.main(["sweep", str(spec_path), "--out", str(out_path)]) == 2
    assert override.split(" ")[0] in capsys.readouterr().err
    assert not out_path.exists()


def test_out_of_range_grid_value_fails_its_row():
    # a grid value out of range fails its row only, and names its field
    spec = spec_from(
        {"axis": "element-count", "grid": "9, 15, 25", "outputs": "dual-ub", "trials": "10"}
    )
    rows = sweep.run_sweep(spec).rows
    assert [row["status"] for row in rows[::2]] == ["ok", "ok"]
    assert rows[1]["status"].startswith("failed:") and "elements" in rows[1]["status"]


@pytest.mark.parametrize(
    "override,message",
    [
        ("feed_zenith_deg=180", "the feed meets the surface at grazing incidence"),
        ("boresight_deg=180,90,90", "no power reaches the V polarization"),
    ],
)
def test_capacity_names_a_degenerate_link(capsys, override, message):
    # a valid scenario whose link is degenerate is a usage error that names
    # the cause; it never reports a silent all-zero link
    rc = cli.main(["capacity", *ELEMENTS_16_TRIALS_10, "--set", override])
    assert rc == 2
    assert message in capsys.readouterr().err


#: A 50 dB feed beam turned 13 degrees from the surface normal: O_V and
#: O_H are near 1e-166, positive, but their product underflows.
FAINT = {"elements": "16", "feed_gain_db": "50", "boresight_deg": "13,77,90"}


def test_underflowing_split_is_a_model_inconsistency(capsys):
    # both link qualities are positive, but their product underflows, so the
    # optimal split has nothing to balance
    sets = [arg for key, value in FAINT.items() for arg in ("--set", f"{key}={value}")]
    assert cli.main(["capacity", *sets, "--set", "allocation=optimal"]) == 3
    err = capsys.readouterr().err
    assert "m11 m22 + m12 m21" in err and "snr = " in err
    model = scen.build_link_model(scen.parse_overrides(scen.Scenario(), FAINT))
    assert 0.0 < model.forms.min() and model.forms.prod() == 0.0
    pairs = {**FAINT, "allocation": "optimal", "trials": "50"}
    spec = spec_from({"axis": "xpd", "grid": "0.2", "outputs": "dual-ub", **pairs})
    assert sweep.run_sweep(spec).rows[0]["status"].startswith("failed: the split needs")


#: A 3 x 3 surface at a pitch of 1 um (lambda/100 at 3 THz), its UE about
#: 1e-22 m and its feed about 2e-10 m from the element at (0, pitch, 0):
#: every value is in range, but the UE's pathloss weight there, near
#: 1e66, gives O near 5e139, an overflow that is geometry, not range.
NEAR_ELEMENT = {
    "elements": "9",
    "wavelength_m": "1e-4",
    "pitch_wavelengths": "0.01",
    "beta0_db": "0",
    "pathloss_exponent": "6",
    "tau_offset": "1",
    "feed_r_m": "1.0000000000000002e-06",
    "feed_azimuth_deg": "90.01",
    "ue_r_m": "1.0000000000000002e-06",
    "ue_zenith_deg": "90",
    "ue_azimuth_deg": "90",
    "allocation": "optimal",
    "trials": "10",
}
#: At 200 dB, rho^2 m11 m22 overflows in every estimator.
OVERFLOWING = {**NEAR_ELEMENT, "snr_db": "200"}
#: At 300 dB the optimal split's 2 rho (m11 m22 + m12 m21) overflows.
OVERFLOWING_BUILD = {**NEAR_ELEMENT, "snr_db": "300"}


def dpris_env():
    """The environment of a ``dpris`` process that imports this checkout."""
    src = str(Path(dpris.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_overflowing_received_snr_is_a_model_inconsistency():
    # run apart, because pytest turns the warnings it must not print into
    # errors; the Monte Carlo's overflow is numpy's, and an overflow in the
    # link build's split, the step it names, fails the same way, before
    # any moment is reported
    cases = [
        (OVERFLOWING, "the estimators leave the float range (overflow encountered", "moments = "),
        (
            OVERFLOWING_BUILD,
            "the link build leaves the float range (the split's 2 rho (m11 m22 + m12 m21) is inf)",
            "link = not built",
        ),
    ]
    for pairs, failed, detail in cases:
        sets = [arg for key, value in pairs.items() for arg in ("--set", f"{key}={value}")]
        out = subprocess.run(
            [sys.executable, "-m", "dpris.cli", "capacity", *sets],
            env=dpris_env(),
            capture_output=True,
            text=True,
        )
        assert out.returncode == 3
        assert f"error: {failed}" in out.stderr
        assert "snr = " in out.stderr and detail in out.stderr
        assert "RuntimeWarning" not in out.stderr
        assert "dual_mc_bits" not in out.stdout


def test_overflowing_row_fails_and_the_sweep_goes_on():
    axis = {"axis": "snr", "grid": "100, 200, 300", "outputs": "allocation, dual-ub, dual-mc"}
    finite, overflowing, unbuilt = sweep.run_sweep(spec_from({**axis, **NEAR_ELEMENT})).rows
    # 2^991 is still a float
    assert finite["status"] == "ok" and finite["dual_ub_bits"] == pytest.approx(991.997, abs=0.01)
    assert 0.0 < finite["lambda_v"] < 1.0
    assert overflowing["status"].startswith("failed: the estimators leave the float range")
    # a build that overflows fails its row too, with the point's snr, and
    # the sweep goes on; a direct build of the point fails the same way
    assert unbuilt["status"].startswith("failed: the link build leaves the float range")
    point = scen.parse_overrides(scen.Scenario(), OVERFLOWING_BUILD)
    for call in (scen.build_link_model, lambda point: sweep.evaluate(point, ["dual-ub"])):
        with pytest.raises(ModelInconsistencyError, match="link build leaves") as excinfo:
            call(point)
        assert excinfo.value.details == {"snr": 1e30, "link": "not built"}


def test_an_overflowing_bound_fails_its_cell_alone():
    # at 200 dB rho^2 m11 m22 overflows: the dual bound, evaluated alone,
    # fails by the step it names, and the all-V bound, whose rho m11 does
    # not overflow, is finite
    point = scen.parse_overrides(scen.Scenario(), OVERFLOWING)
    message = "the estimators leave the float range (the moment bound's shift is inf)"
    with pytest.raises(ModelInconsistencyError) as excinfo:
        sweep.evaluate(point, ["dual-ub"])
    assert str(excinfo.value) == message
    assert 0.0 < sweep.evaluate(point, ["single-ub"])["single_ub_bits"] < np.inf


def test_mc_moments_are_their_own_cells_where_the_estimates_overflow():
    # at 200 dB the Monte Carlo's shift overflows, but the moments' means,
    # up to about 4.5e139, do not: mc-moments, evaluated alone, gives the
    # mean of |G_ij|^2 over the same trials drawn afresh, and dual-mc fails
    # its cell
    point = scen.parse_overrides(scen.Scenario(), OVERFLOWING)
    moments = scen.build_link_model(point).moments
    z = oracles.standard_channels(point.trials, point.master_seed)
    expected = (np.abs(z * np.sqrt(moments / 2.0)) ** 2).mean(axis=0)
    cells = sweep.evaluate(point, ("mc-moments",))
    values = [cells[f"mc_m{i}"] for i in (11, 12, 21, 22)]
    assert np.all(np.isfinite(values))
    np.testing.assert_allclose(values, expected, rtol=1e-12)
    with pytest.raises(ModelInconsistencyError, match="the estimators leave the float range"):
        sweep.evaluate(point, ("dual-mc",))


def test_direct_build_reports_an_overflowing_surface_as_out_of_range(monkeypatch):
    # pathloss weights that overflow leave the float range inside the build,
    # even under a caller's errstate that ignores overflow: a direct build
    # fails with the error of evaluate and a sweep row, the point's snr and
    # no link, and not as a polarization no power reaches; no value in
    # range overflows the weights, so the test scales them
    real = channel.pathloss_weights
    monkeypatch.setattr(channel, "pathloss_weights", lambda *args: real(*args) * 1e300 * 1e300)
    overflowing = scen.Scenario(elements=16)
    failures = []
    for call in (scen.build_link_model, lambda point: sweep.evaluate(point, ["dual-ub"])):
        with np.errstate(all="ignore"):
            with pytest.raises(ModelInconsistencyError) as excinfo:
                call(overflowing)
        failures.append((str(excinfo.value), excinfo.value.details))
    message, details = failures[0]
    assert failures[1] == failures[0]
    assert message == "the link build leaves the float range (overflow encountered in multiply)"
    assert details == {"snr": pytest.approx(10.0**13.1, rel=1e-12), "link": "not built"}
    spec = spec_from({"axis": "xpd", "grid": "0.2", "outputs": "dual-ub", "elements": "16"})
    (row,) = sweep.run_sweep(spec).rows
    assert row["status"].startswith("failed: the link build leaves the float range")
    # an O that is finite but not positive is still a degeneracy
    monkeypatch.undo()
    with pytest.raises(DegenerateGeometryError, match=r"no power reaches the V .*O_V = 0\.0"):
        scen.build_link_model(scen.Scenario(elements=16, boresight_deg="180,90,90"))


#: What each poisoned form fails as, and the details it carries.
GATE_FAILURES = {
    "compute_O": (
        "the link build leaves the float range (overflow encountered in multiply)",
        {"snr", "link"},
    ),
    "expected_gram_moments": (
        "the surface forms must be finite and non-negative",
        {"snr", "moments"},
    ),
}


@pytest.mark.parametrize(
    "target, bad_forms",
    [("compute_O", lambda o: o * 1e308 * 1e308), ("expected_gram_moments", np.negative)],
)
def test_gate_rejects_forms_that_are_not_finite_and_non_negative(monkeypatch, target, bad_forms):
    # an O that overflows raises under the build's errstate, and a negative
    # form of a random draw fails the gate of the random forms; either fails
    # the link build with the point's snr, and so fails its row
    real = getattr(capacity, target)
    monkeypatch.setattr(capacity, target, lambda *args: bad_forms(real(*args)))
    message, details = GATE_FAILURES[target]
    pairs = {"elements": "16", "phase_scheme": "random", "random_phase_draws": "3"}
    with pytest.raises(ModelInconsistencyError) as excinfo:
        scen.build_link_model(scen.parse_overrides(scen.Scenario(), pairs))
    assert str(excinfo.value) == message and set(excinfo.value.details) == details
    spec = spec_from({"axis": "xpd", "grid": "0.2, 0.4", "outputs": "quality", **pairs})
    for row in sweep.run_sweep(spec).rows:
        assert row["status"] == f"failed: {message}"


@pytest.mark.parametrize("allocation", ["equal", "optimal"])
@pytest.mark.parametrize("xpd_coeff", ["0", "1"])
@pytest.mark.parametrize("snr_db", ["100", "170"])
def test_rows_stay_finite_over_the_recipes_range(snr_db, xpd_coeff, allocation):
    pairs = {"xpd_coeff": xpd_coeff, "allocation": allocation}
    spec = spec_from({"axis": "snr", "grid": snr_db, "outputs": ",".join(sweep.OUTPUTS), **pairs})
    (row,) = sweep.run_sweep(spec).rows
    assert row["status"] == "ok"
    for column, value in row.items():
        if column != "status" and not (column == "xpd_threshold" and value is None):
            assert np.isfinite(value), column
    assert row["dual_mc_bits"] <= row["dual_ub_bits"] + 3.0 * row["dual_mc_se"]


def test_plain_error_in_an_estimator_propagates(monkeypatch):
    # only a named degeneracy fails a row; any other error inside the build
    # or an estimator is a fault of the program and stops the sweep
    def broken(*args):
        raise ValueError("broken bound")

    monkeypatch.setattr(capacity, "moment_upper_bound", broken)
    spec = spec_from({"axis": "xpd", "grid": "0.2", "outputs": "dual-ub", **BOUNDS_ONLY_16})
    with pytest.raises(ValueError, match="broken bound"):
        sweep.run_sweep(spec)


def test_bound_only_rows_run_no_monte_carlo(monkeypatch):
    # the estimator runs only when a selected output reads it
    def unexpected(*args):
        raise AssertionError("Monte Carlo ran for a bound-only row")

    monkeypatch.setattr(capacity, "ergodic_capacity_mc", unexpected)
    outputs = "dual-ub, single-ub, allocation, threshold, quality"
    spec = spec_from({"axis": "xpd", "grid": "0.2", "outputs": outputs, **BOUNDS_ONLY_16})
    assert sweep.run_sweep(spec).rows[0]["status"] == "ok"


def test_cli_threshold_prints_value(capsys):
    rc = cli.main(["threshold", "--ov", "2e-13", "--oh", "2e-13", "--snr-db", "127"])
    out = capsys.readouterr().out
    assert rc == 0
    value = float(out.split("=")[1])
    assert 0.0 < value < 1.0


def test_cli_threshold_model_inconsistency_exit_code(capsys):
    rc = cli.main(["threshold", "--ov", "1e-13", "--oh", "9e-13", "--snr-db", "0"])
    assert rc == 3
    assert "outside (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "ov,oh,snr_db",
    [
        ("inf", "1", "0"),
        ("1", "nan", "0"),
        ("1", "1", "inf"),
        ("1e-14", "1e-14", "1000"),
        ("1", "1", "none"),
        ("1", "1", ""),
    ],
)
def test_cli_threshold_rejects_non_finite_inputs(capsys, ov, oh, snr_db):
    # a quality that is not positive and finite is the threshold's to
    # refuse; the SNR is read as the field snr_db is, so one outside its
    # range, or none, is a usage error that names the field
    rc = cli.main(["threshold", "--ov", ov, "--oh", oh, "--snr-db", snr_db])
    assert rc == 2
    expected = "must be positive and finite" if snr_db == "0" else "error: snr_db must be"
    assert expected in capsys.readouterr().err


def test_cli_sweep_and_gnuplot(tmp_path, capsys):
    spec_path = tmp_path / "mini.sweep"
    spec_path.write_text(
        "axis = xpd\ngrid = 0, 0.5, 1\noutputs = dual-ub\nelements = 16\n"
    )
    out_path = tmp_path / "mini.csv"
    rc = cli.main(["sweep", str(spec_path), "--out", str(out_path), "--gnuplot"])
    assert rc == 0
    assert out_path.exists()
    assert out_path.with_suffix(".gp").exists()


def test_cli_sweep_missing_file_is_io_error(tmp_path, capsys):
    rc = cli.main(["sweep", str(tmp_path / "nope.sweep")])
    assert rc == 4


def test_cli_sweep_unknown_key_is_usage_error(tmp_path, capsys):
    spec_path = tmp_path / "bad.sweep"
    spec_path.write_text("axis = xpd\ngrid = 0, 1\noutputs = dual-ub\nwhatever = 3\n")
    assert cli.main(["sweep", str(spec_path)]) == 2


def test_cli_recipes_list_and_run(tmp_path, capsys):
    assert cli.main(["recipes", "list"]) == 0
    listed = capsys.readouterr().out
    for name in ("fig3", "fig9"):
        assert name in listed
    out_path = tmp_path / "f9.csv"
    rc = cli.main(
        [
            "recipes",
            "run",
            "fig9",
            "--out",
            str(out_path),
            "--set",
            "grid=0, 0.5, 1",
            "--set",
            "trials=25",
            "--set",
            "elements=16",
        ]
    )
    assert rc == 0
    body = [l for l in out_path.read_text().splitlines() if not l.startswith("#")]
    assert len(body) == 4  # header plus three rows


def test_cli_set_requires_key_value(capsys):
    rc = cli.main(["capacity", *ELEMENTS_16_TRIALS_10, "--set", "oops"])
    assert rc == 2


def test_capacity_merges_config_and_set_before_parsing(tmp_path, capsys):
    # the file's pairs and the --set items are merged and parsed once, as in
    # a sweep: --set allocation=equal lifts the file's optimal split, which
    # its random scheme rejects
    config = tmp_path / "random.cfg"
    config.write_text("allocation = optimal\nphase_scheme = random\nrandom_phase_draws = 4\n")
    argv = ["--config", str(config), *ELEMENTS_16_TRIALS_10, "--set", "allocation=equal"]
    assert cli.main(["capacity", *argv]) == 0
    assert "# allocation=equal" in capsys.readouterr().out.splitlines()
    spec_path = tmp_path / "random.sweep"
    spec_path.write_text(config.read_text() + "axis = xpd\ngrid = 0.2\noutputs = dual-ub\n")
    out = str(tmp_path / "random.csv")
    assert cli.main(["sweep", str(spec_path), "--out", out, *argv[2:]]) == 0
    assert cli.main(["capacity", "--config", str(config)]) == 2
    assert "allocation" in capsys.readouterr().err


def test_scenario_config_file_round_trip(tmp_path):
    config = tmp_path / "scenario.cfg"
    config.write_text("elements = 25\nxpd_coeff = 0.4  # inline comment\n")
    base = scen.parse_overrides(scen.Scenario(), scen.read_config_file(str(config)))
    assert base.elements == 25
    assert base.xpd_coeff == 0.4
    with pytest.raises(ValueError):
        scen.parse_overrides(scen.Scenario(), {"element": "25"})
    with pytest.raises(ValueError):
        scen.parse_overrides(scen.Scenario(), {"workers": "2"})


def test_import_leaves_numpy_fft_unloaded():
    # numpy.fft and numpy.random are reached at call time only, which
    # keeps start-up short, and a Monte Carlo on aligned phases (fig7's
    # base: both estimates and the moments) never reaches numpy.random
    code = (
        "import sys, numpy; mods = ('numpy.fft', 'numpy.random'); "
        "print(*(m in sys.modules for m in mods)); "
        "import dpris, dpris.scenario, dpris.sweep, dpris.cli; "
        "print(*(m in sys.modules for m in mods)); "
        "from dpris import recipes, sweep; "
        "cells = sweep.evaluate(recipes.load_recipe('fig7').base, "
        "('dual-mc', 'single-mc', 'mc-moments')); "
        "print(len(cells), 'numpy.fft' in sys.modules, 'numpy.random' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=dpris_env(), capture_output=True, text=True, check=True
    )
    by_numpy, by_dpris, by_mc = (line.split() for line in out.stdout.splitlines())
    assert by_mc[:2] == ["8", "True"]
    checked = [after for before, after in zip(by_numpy, by_dpris) if before == "False"]
    if not checked:
        pytest.skip("this numpy imports numpy.fft and numpy.random itself")
    assert checked == ["False"] * len(checked)
    if by_numpy[1] == "False":
        assert by_mc[2] == "False"


@pytest.mark.parametrize("phase_seed", [0, 2**32 - 3, 2**64 - 3, 2**128 - 3])
def test_random_row_seeds_its_draws_under_raising_errstate(phase_seed):
    # the seed hash wraps its uint32 words in array arithmetic, which sets
    # no floating-point flag; numpy's scalar arithmetic would raise under
    # the errstate a sweep row is evaluated in (seeds across 2^32, 2^64, 2^128)
    current = scen.Scenario(
        elements=16, phase_scheme="random", phase_seed=phase_seed, random_phase_draws=6
    )
    scen._surface_memo.clear()
    with np.errstate(over="raise", invalid="raise"):
        model = scen.build_link_model(current)
    assert model.forms.shape == (6, 2)
    draws = [oracles.random_phases(4, 4, phase_seed + d) for d in range(6)]
    parts = oracles.link_parts(current)
    expected = oracles.fft2_draw_forms(parts.config.surface(parts), draws, parts.spectrum)
    np.testing.assert_array_equal(model.forms, expected)


def test_large_surface_row_is_finite_and_jensen_consistent():
    spec = spec_from(
        {
            "axis": "element-count",
            "grid": "65536",
            "outputs": "dual-mc,dual-ub",
            "trials": "1000",
        }
    )
    row = sweep.run_sweep(spec).rows[0]
    assert row["status"] == "ok"
    assert np.isfinite(row["dual_ub_bits"]) and np.isfinite(row["dual_mc_bits"])
    assert row["dual_mc_bits"] > 0.0
    assert row["dual_mc_bits"] <= row["dual_ub_bits"] + 3.0 * row["dual_mc_se"]
