import csv
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dpris
from dpris import capacity, cli, recipes, ris, scenario as scen, sweep

import oracles


def spec_from(text_pairs, base=None):
    return sweep.parse_sweep_pairs(dict(text_pairs), base=base)


BOUNDS_ONLY_16 = {"elements": "16", "trials": "50"}


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
        v, h = ris.random_phases(16, 5 + draw)
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
    points = 16 * elements  # buffer points one draw takes
    rows = {}
    for per_chunk in (1, 7, 300):
        monkeypatch.setattr(capacity, "_FFT_LATTICE_POINTS", per_chunk * points)
        rows[per_chunk] = scen.build_link_model(current).moments
    for per_chunk in (7, 300):
        np.testing.assert_array_equal(rows[per_chunk], rows[1])
    parts = oracles.link_parts(current)
    surface = parts.config.surface(parts)
    draws = np.stack([ris.random_phases(elements, 5 + d) for d in range(300)])
    np.testing.assert_array_equal(
        capacity.expected_gram_moments(surface, draws, parts.spectrum, parts.xpd_coeff), rows[1]
    )


def test_random_phase_row_draws_each_seed_once(monkeypatch):
    # a D-draw row seeds D phase generators: the draws phase_seed + d, and
    # no further draw of phase_seed for phases that nothing reads
    seeds = []
    default_rng = np.random.default_rng

    def counted(seed=None):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    current, _ = random_row(1000)
    assert seeds == list(range(5, 1005))


def test_random_phase_row_matches_per_draw_oracle():
    current, _ = random_row(137)
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
    tracemalloc.start()
    try:
        row = sweep.run_sweep(spec).rows[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert row["status"] == "ok"
    assert peak < 4 * 2**20


def test_aligned_row_builds_moments_from_O(monkeypatch):
    # an aligned row takes its moments from O_V and O_H: the one compute_O
    # call on both amplitude vectors is its only surface FFT, whatever its
    # outputs
    calls = []
    quadforms = capacity._surface_quadforms

    def counted(vectors, spectrum):
        calls.append(vectors.shape)
        return quadforms(vectors, spectrum)

    monkeypatch.setattr(capacity, "_surface_quadforms", counted)
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
    assert calls == [(2, 16)]


@pytest.mark.parametrize("outputs", ["dual-mc", "single-mc", "single-mc, dual-mc"])
def test_row_makes_one_estimator_call(monkeypatch, outputs):
    # both Monte Carlo columns come from one call's draws
    results = []
    estimator = capacity.ergodic_capacity_mc

    def counted(*args, **kwargs):
        results.append(estimator(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(capacity, "ergodic_capacity_mc", counted)
    spec = spec_from({"axis": "xpd", "grid": "0.2", "outputs": outputs, **BOUNDS_ONLY_16})
    row = sweep.run_sweep(spec).rows[0]
    assert row["status"] == "ok" and len(results) == 1
    (mc,) = results
    if "dual-mc" in outputs:
        assert (row["dual_mc_bits"], row["dual_mc_se"]) == (mc.estimate, mc.standard_error)
    if "single-mc" in outputs:
        assert row["single_mc_bits"] == mc.single_pol_estimate
        assert row["single_mc_se"] == mc.single_pol_standard_error


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
    rc = cli.main(["capacity", "--elements", "16", "--set", "incidence_convention=bogus"])
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


def test_sweep_nonsquare_element_count_fails_row_only():
    spec = spec_from(
        {"axis": "element-count", "grid": "16, 24", "outputs": "dual-ub", "trials": "10"}
    )
    result = sweep.run_sweep(spec)
    assert result.rows[0]["status"] == "ok"
    assert result.rows[1]["status"].startswith("failed:")
    # a grid built in code may hold floats
    spec = sweep.SweepSpec("element-count", (16.0, 16.5), ("dual-ub",), scen.Scenario())
    result = sweep.run_sweep(spec)
    assert result.rows[0]["status"] == "ok"
    assert result.rows[1]["status"].startswith("failed:")


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


def test_recipe_overrides_apply():
    spec = recipes.load_recipe("fig9", {"grid": "0, 0.5, 1", "trials": "20", "elements": "16"})
    assert spec.base.elements == 16
    assert len(spec.grid) == 3


def test_cli_capacity_smoke(capsys):
    rc = cli.main(
        ["capacity", "--elements", "16", "--snr-db", "0", "--xpd-coeff", "0.2", "--trials", "500"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    values = {}
    for line in out.splitlines():
        if "=" in line:
            key = line.split("=")[0].strip()
            values[key] = line.split("=", 1)[1].strip()
    mc = float(values["dual_mc_bits"].split()[0])
    ub = float(values["dual_ub_bits"].split()[0])
    se = float(values["dual_mc_bits"].split("se")[1].split(")")[0])
    assert mc <= ub + 3.0 * se


def test_cli_capacity_rejects_zero_trials(capsys):
    rc = cli.main(["capacity", "--elements", "16", "--trials", "0"])
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
    ],
)
def test_non_finite_or_out_of_range_values_are_usage_errors(capsys, override):
    # every range the link model assumes is checked when the scenario is
    # made, before any surface is laid out, and the error names the field
    rc = cli.main(["capacity", "--trials", "10", "--set", override])
    assert rc == 2
    assert override.split("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("override", ["feed_r_m = 0", "beta0_db = 4000"])
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
    rc = cli.main(["capacity", "--elements", "16", "--trials", "10", "--set", "oops"])
    assert rc == 2


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
    # keeps start-up short
    src = str(Path(dpris.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, numpy; mods = ('numpy.fft', 'numpy.random'); "
        "print(*(m in sys.modules for m in mods)); "
        "import dpris, dpris.sweep; print(*(m in sys.modules for m in mods))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    by_numpy, by_dpris = (line.split() for line in out.stdout.splitlines())
    checked = [after for before, after in zip(by_numpy, by_dpris) if before == "False"]
    if not checked:
        pytest.skip("this numpy imports numpy.fft and numpy.random itself")
    assert checked == ["False"] * len(checked)


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
