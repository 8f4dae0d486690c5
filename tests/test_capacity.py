import dataclasses

import numpy as np
import pytest

from dpris import capacity, channel, cli, feed, geometry, ris, scenario as scen, sweep
from dpris.exceptions import ModelInconsistencyError

import oracles
from conftest import PITCH, WAVELENGTH

LN2 = np.log(2.0)


def unit_budget(snr=1.0):
    return capacity.LinkBudget.from_snr(snr)


def manual_sample(h_vv, h_vh, h_hv, h_hh):
    return oracles.ChannelSample(
        h_vv=np.asarray(h_vv, dtype=complex),
        h_vh=np.asarray(h_vh, dtype=complex),
        h_hv=np.asarray(h_hv, dtype=complex),
        h_hh=np.asarray(h_hh, dtype=complex),
    )


def unit_pm(n):
    ones = np.ones(n, dtype=complex)
    return feed.PropagationMatrix(shared=ones, copol_v=ones, copol_h=ones)


def moments_of(scenario):
    """Moments of G under the scenario's phases, from its rebuilt parts."""
    parts = oracles.link_parts(scenario)
    return capacity.expected_gram_moments(parts.config, parts.pm, parts.stats)


def aligned_moments(o_v, o_h, xpd_coeff):
    return capacity.moment_layout(np.array([o_v, o_h]), xpd_coeff)


def cli_report(capsys, argv):
    """``dpris capacity`` report lines as key -> value text."""
    assert cli.main(["capacity", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    return dict(line.split(" = ", 1) for line in lines if " = " in line)


def reported(values, key):
    """The number on a report line, and its standard error if it has one."""
    text = values[key]
    se = float(text.split("(se ")[1].split(")")[0]) if "(se " in text else None
    return float(text.split()[0]), se


def unit_config(n, amplitude=1.0):
    return ris.RisConfiguration(
        amplitudes_v=np.full(n, amplitude),
        amplitudes_h=np.full(n, amplitude),
        phases_v=np.zeros(n),
        phases_h=np.zeros(n),
    )


def test_power_allocation_validation():
    with pytest.raises(ValueError):
        capacity.PowerAllocation(0.7, 0.5)
    with pytest.raises(ValueError):
        capacity.PowerAllocation(-0.1, 0.5)
    assert capacity.PowerAllocation.equal().lambda_v == 0.5
    split = capacity.PowerAllocation.split(0.3)
    assert split.lambda_h == 0.7


def test_link_budget_validation():
    with pytest.raises(ValueError):
        capacity.LinkBudget.from_snr(0.0)
    with pytest.raises(ValueError):
        capacity.LinkBudget(snr=5.0, noise_variance=1.0, transmit_power=1.0)
    ok = capacity.LinkBudget.from_powers(2.0, 0.5)
    assert ok.snr == 4.0


def test_equivalent_channel_trivial_cases():
    g = oracles.equivalent_channel(
        manual_sample([1 + 2j], [0], [0], [3j]), unit_config(1), unit_pm(1)
    )
    assert g[0, 0] == 1 + 2j
    assert g[0, 1] == 0 and g[1, 0] == 0
    assert g[1, 1] == 3j

    zero_amp = oracles.equivalent_channel(
        manual_sample([1], [1], [1], [1]), unit_config(1, amplitude=0.0), unit_pm(1)
    )
    assert np.all(zero_amp == 0.0)

    with pytest.raises(ValueError):
        oracles.equivalent_channel(manual_sample([1], [1], [1], [1]), unit_config(2), unit_pm(2))


def test_equivalent_channel_matched_xpd_kills_cross_entries(table_scenario_16):
    parts = oracles.link_parts(table_scenario_16.replace(xpd_coeff=0.0))
    sample = oracles.sample_channel(parts.stats, parts.geometry, np.random.default_rng(1))
    g = oracles.equivalent_channel(sample, parts.config, parts.pm)
    assert g[0, 1] == 0.0 and g[1, 0] == 0.0
    assert g[0, 0] != 0.0


def test_mc_zero_allocation_is_exactly_zero(table_scenario_16):
    result = capacity.ergodic_capacity_mc(
        moments_of(table_scenario_16),
        capacity.PowerAllocation(0.0, 0.0),
        unit_budget(1e6),
        trials=50,
        master_seed=1,
    )
    assert result.estimate == 0.0
    assert result.standard_error == 0.0


def test_mc_vanishes_at_low_snr(table_scenario_16):
    result = capacity.ergodic_capacity_mc(
        moments_of(table_scenario_16),
        capacity.PowerAllocation.equal(),
        unit_budget(1e-9),
        trials=200,
        master_seed=3,
    )
    assert 0.0 < result.estimate < 1e-6


def test_mc_rejects_bad_arguments(table_scenario_16):
    equal = capacity.PowerAllocation.equal()
    with pytest.raises(ValueError):
        capacity.ergodic_capacity_mc(
            moments_of(table_scenario_16),
            equal,
            unit_budget(),
            trials=0,
            master_seed=1,
        )
    with pytest.raises(ValueError):
        capacity.ergodic_capacity_mc(np.ones((2, 3)), equal, unit_budget(), 10, 1)
    # a kernel that is not positive semidefinite gives negative moments
    parts = oracles.link_parts(table_scenario_16)
    stats = dataclasses.replace(parts.stats, kernel_spectrum=-parts.stats.kernel_spectrum)
    moments = capacity.expected_gram_moments(parts.config, parts.pm, stats)
    with pytest.raises(ModelInconsistencyError) as excinfo:
        capacity.ergodic_capacity_mc(moments, equal, unit_budget(), 10, 1)
    assert np.all(excinfo.value.details["moments"] < 0.0)


@pytest.mark.parametrize("xpd", [0.0, 0.2, 1.0])
def test_mc_matches_full_vector_oracle(oblique_scenario, xpd):
    # the 2x2 law against full per-element draws through the correlation
    # factor, at rho (m11 + m21) = 1 where the capacity is far from both
    # its low- and high-SNR limits; an unequal split on unequal
    # polarizations tells every entry's moment apart
    scenario = oblique_scenario.replace(xpd_coeff=xpd)
    model = scen.build_link_model(scenario)
    parts = oracles.link_parts(scenario)
    budget = unit_budget(1.0 / model.o_v)
    allocation = capacity.PowerAllocation.split(0.7)
    trials = 20_000
    mc = capacity.ergodic_capacity_mc(
        moments_of(scenario), allocation, budget, trials, master_seed=9
    )
    for value, value_se, oracle_allocation in (
        (mc.estimate, mc.standard_error, allocation),
        (mc.single_pol_estimate, mc.single_pol_standard_error, None),
    ):
        estimate, se = oracles.full_vector_mc(
            parts.stats,
            parts.geometry,
            parts.config,
            parts.pm,
            oracle_allocation,
            budget,
            trials,
            seed=10,
        )
        assert abs(value - estimate) <= 4.0 * np.hypot(value_se, se)
    assert mc.estimate > 0.1


def test_single_pol_equals_dual_with_v_only_power_when_matched():
    # with xpd_coeff = 0 the HV entry vanishes, so the dual estimate under
    # allocation (1, 0) collapses to the single-polarized one of the same
    # draws
    base = scen.Scenario(elements=16, xpd_coeff=0.0)
    model = scen.build_link_model(base)
    mc = capacity.ergodic_capacity_mc(
        model.moments,
        capacity.PowerAllocation(1.0, 0.0),
        unit_budget(3e12),
        trials=500,
        master_seed=21,
    )
    assert mc.estimate == mc.single_pol_estimate
    assert mc.standard_error == mc.single_pol_standard_error


def test_moment_upper_bound_values():
    equal = capacity.PowerAllocation.equal()
    assert capacity.moment_upper_bound((0, 0, 0, 0), equal, unit_budget()) == 0.0
    # quadratic term drops when one polarization gets no power
    only_v = capacity.PowerAllocation(0.6, 0.0)
    value = capacity.moment_upper_bound((0.8, 0.1, 0.2, 0.9), only_v, unit_budget(2.0))
    assert value == pytest.approx(np.log1p(2.0 * 0.6 * 1.0) / LN2, rel=1e-12)
    # full reference case, recomputed independently
    full = capacity.moment_upper_bound((0.8, 0.1, 0.2, 0.9), equal, unit_budget())
    assert full == pytest.approx(1.1276332797258737, rel=1e-12)
    with pytest.raises(ValueError):
        capacity.moment_upper_bound((0.1, -0.2, 0.3, 0.4), equal, unit_budget())


def test_compute_O_small_cases():
    pm = unit_pm(1)
    pm_half = feed.PropagationMatrix(
        shared=np.array([0.5 + 0.0j]),
        copol_v=np.array([0.5 + 0.0j]),
        copol_h=np.array([0.5 + 0.0j]),
    )
    # a 1x1 grid; a spectrum of ones is the identity kernel
    stats = channel.ChannelStatistics(
        xpd_coeff=0.2, weights=np.sqrt([2.0 / 4.0]), kernel_spectrum=np.ones((2, 2))
    )
    # N = 1: O = A^2 |b|^2 beta0 d^-alpha
    assert capacity.compute_O(np.array([0.3]), pm_half, stats) == pytest.approx(
        0.3**2 * 0.25 * 2.0 / 4.0, rel=1e-12
    )
    assert capacity.compute_O(np.array([1.0]), pm, stats) == pytest.approx(0.5, rel=1e-12)


def test_compute_O_identity_correlation_reduces_to_sum():
    rng = np.random.default_rng(8)
    n = 6
    amplitudes = rng.uniform(0, 1, n)
    shared = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    pm = feed.PropagationMatrix(shared=shared, copol_v=shared, copol_h=shared)
    distances = rng.uniform(1, 10, n)
    # a 1 x n grid; a spectrum of ones is the identity kernel
    stats = channel.ChannelStatistics(
        xpd_coeff=0.5,
        weights=np.sqrt(1.3 * distances**-2.0),
        kernel_spectrum=np.ones((2, 2 * n)),
    )
    expected = np.sum(amplitudes**2 * np.abs(shared) ** 2 * 1.3 * distances**-2.0)
    assert capacity.compute_O(amplitudes, pm, stats) == pytest.approx(expected, rel=1e-12)


def test_compute_O_matches_double_sum_oracle():
    # the FFT forms against the brute double sum over the dense sinc
    # matrix, for real (O) and complex (random-phase moment) vectors
    rng = np.random.default_rng(15)
    for rows, cols in [(1, 1), (1, 7), (3, 7), (7, 3), (4, 4), (20, 20)]:
        n = rows * cols
        geo = geometry.build_ris_grid(rows, cols, PITCH, WAVELENGTH)
        correlation = oracles.correlation_matrix(geo)
        for _ in range(5):
            beta0, alpha, l = rng.uniform(0.1, 2.0), rng.uniform(1.0, 4.0), rng.uniform(0.0, 1.0)
            ue = np.array([rng.uniform(0.05, 2.0), *rng.uniform(-0.5, 0.5, 2)])
            stats = channel.build_channel_statistics(geo, ue, beta0, alpha, l)
            distances = np.linalg.norm(ue - geo.element_positions, axis=1)
            weights = np.sqrt(beta0 * distances**-alpha)
            amplitudes = rng.uniform(0, 1, n)
            shared = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            pm = feed.PropagationMatrix(
                shared=shared,
                copol_v=rng.standard_normal(n) + 1j * rng.standard_normal(n),
                copol_h=rng.standard_normal(n) + 1j * rng.standard_normal(n),
            )
            config = ris.RisConfiguration(
                amplitudes_v=amplitudes,
                amplitudes_h=rng.uniform(0, 1, n),
                phases_v=rng.uniform(0, 2 * np.pi, n),
                phases_h=rng.uniform(0, 2 * np.pi, n),
            )

            def brute(u):
                wu = weights * u
                return float(np.sum(np.conj(wu)[:, None] * wu[None, :] * correlation).real)

            o = capacity.compute_O(amplitudes, pm, stats)
            assert o == pytest.approx(brute(amplitudes * np.abs(shared)), rel=1e-12)
            # a stack of amplitude vectors gives one form per vector
            stacked = capacity.compute_O(np.stack([amplitudes, config.amplitudes_h]), pm, stats)
            assert stacked.shape == (2,)
            assert stacked[0] == pytest.approx(o, rel=1e-12)
            assert stacked[1] == pytest.approx(
                brute(config.amplitudes_h * np.abs(shared)), rel=1e-12
            )
            q_v = brute(config.gamma_v * pm.copol_v)
            q_h = brute(config.gamma_h * pm.copol_h)
            np.testing.assert_allclose(
                capacity.expected_gram_moments(config, pm, stats),
                [(1 - l) * q_v, l * q_h, l * q_v, (1 - l) * q_h],
                rtol=1e-12,
            )


def test_closed_form_equals_moment_bound_with_model_moments():
    rng = np.random.default_rng(31)
    for _ in range(25):
        o_v, o_h = rng.uniform(0.1, 3.0, 2)
        l = rng.uniform(0.0, 1.0)
        allocation = capacity.PowerAllocation.split(rng.uniform(0.0, 1.0))
        budget = unit_budget(rng.uniform(0.01, 50.0))
        moments = ((1 - l) * o_v, l * o_h, l * o_v, (1 - l) * o_h)
        np.testing.assert_array_equal(aligned_moments(o_v, o_h, l), moments)
        assert oracles.closed_form_upper_bound(
            o_v, o_h, allocation, budget, l
        ) == pytest.approx(
            capacity.moment_upper_bound(moments, allocation, budget), rel=1e-12
        )


def test_closed_form_reference_value_and_endpoint_symmetry():
    # the moment bound at aligned moments is the paper's closed form
    value = capacity.moment_upper_bound(
        aligned_moments(2.0, 1.0, 0.0), capacity.PowerAllocation.split(0.75), unit_budget()
    )
    assert value == pytest.approx(1.6438561897747247, rel=1e-12)
    matched = capacity.moment_upper_bound(
        aligned_moments(1.7, 0.4, 0.0), capacity.PowerAllocation.equal(), unit_budget(3.0)
    )
    mismatched = capacity.moment_upper_bound(
        aligned_moments(1.7, 0.4, 1.0), capacity.PowerAllocation.equal(), unit_budget(3.0)
    )
    assert matched == mismatched


def test_optimal_allocation_symmetric_and_reference():
    balanced = capacity.optimal_power_allocation(1.0, 1.0, unit_budget(), 0.3)
    assert balanced.lambda_v == 0.5 and balanced.lambda_h == 0.5
    skewed = capacity.optimal_power_allocation(2.0, 1.0, unit_budget(), 0.0)
    assert skewed.lambda_v == pytest.approx(0.75, rel=1e-12)
    assert skewed.lambda_h == pytest.approx(0.25, rel=1e-12)


def test_optimal_allocation_evens_out_at_high_snr():
    allocation = capacity.optimal_power_allocation(3.0, 1.0, unit_budget(1e12), 0.2)
    assert abs(allocation.lambda_v - 0.5) < 1e-6


def test_optimal_allocation_matches_grid_search():
    rng = np.random.default_rng(44)
    grid = np.linspace(0.0, 1.0, 10_001)
    for _ in range(25):
        o_v = 10.0 ** rng.uniform(-13, -9)
        o_h = 10.0 ** rng.uniform(-13, -9)
        rho = 10.0 ** rng.uniform(0, 6)
        l = rng.uniform(0.0, 1.0)
        budget = unit_budget(rho)
        best = capacity.optimal_power_allocation(o_v, o_h, budget, l)
        mix = l * l + (1 - l) * (1 - l)
        shift = rho * ((1 - grid) * o_h + grid * o_v) + rho * rho * grid * (1 - grid) * o_h * o_v * mix
        assert abs(best.lambda_v - grid[int(np.argmax(shift))]) <= 2e-4


def test_optimal_allocation_rejects_zero_quality():
    with pytest.raises(ValueError):
        capacity.optimal_power_allocation(0.0, 0.0, unit_budget(), 0.2)


def test_single_pol_bound_values():
    def bound(o_v, budget, l):
        return capacity.single_pol_moment_bound(aligned_moments(o_v, 0.5, l), budget)

    assert bound(5.0, unit_budget(), 1.0) == 0.0
    one_bit = bound(1.0, unit_budget(1.0), 0.0)
    assert one_bit == pytest.approx(1.0, abs=1e-15)
    values = [bound(2.0, unit_budget(4.0), l) for l in np.linspace(0.0, 1.0, 41)]
    assert np.all(np.diff(values) < 0.0)
    for l in (0.0, 0.3, 1.0):
        assert bound(2.0, unit_budget(4.0), l) == pytest.approx(
            oracles.single_pol_upper_bound(2.0, unit_budget(4.0), l), rel=1e-12
        )


def test_equal_allocation_bound_properties():
    equal = capacity.PowerAllocation.equal()
    assert capacity.moment_upper_bound(
        aligned_moments(1.0, 1.0, 0.0), equal, unit_budget()
    ) == pytest.approx(1.1699250014423124, rel=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(25):
        o_v, o_h = rng.uniform(0.1, 4.0, 2)
        l = rng.uniform(0.0, 1.0)
        b = unit_budget(rng.uniform(0.1, 10.0))
        moments = aligned_moments(o_v, o_h, l)
        eq = capacity.moment_upper_bound(moments, equal, b)
        assert eq == pytest.approx(
            oracles.equal_allocation_lower_bound(o_v, o_h, b, l), rel=1e-12
        )
        best = capacity.optimal_power_allocation(o_v, o_h, b, l)
        assert eq <= capacity.moment_upper_bound(moments, best, b) + 1e-12


def test_xpd_threshold_symmetric_reference():
    # rho * O = 1 exactly: threshold is (7 - sqrt(35)) / 2
    value = capacity.xpd_threshold(0.25, 0.25, unit_budget(4.0))
    assert value == pytest.approx(0.5419601084501920, rel=1e-12)


def test_xpd_threshold_definition_holds_at_root():
    budget = unit_budget(7.3e12)
    o_v, o_h = 3.1e-13, 2.2e-13
    root = capacity.xpd_threshold(o_v, o_h, budget)
    dual = oracles.equal_allocation_lower_bound(o_v, o_h, budget, root)
    single = oracles.single_pol_upper_bound(o_v, budget, root)
    assert dual == pytest.approx(2.0 * single, abs=1e-9)


def test_xpd_threshold_sign_change_bracket():
    rng = np.random.default_rng(62)
    found = 0
    grid = np.linspace(0.0, 1.0, 20_001)
    while found < 10:
        o_v = 10.0 ** rng.uniform(-13, -9)
        o_h = 10.0 ** rng.uniform(-13, -9)
        rho = 10.0 ** rng.uniform(10, 14)
        budget = unit_budget(rho)
        try:
            root = capacity.xpd_threshold(o_v, o_h, budget)
        except ModelInconsistencyError:
            continue
        dual = np.array(
            [oracles.equal_allocation_lower_bound(o_v, o_h, budget, l) for l in grid]
        )
        single = np.array(
            [oracles.single_pol_upper_bound(o_v, budget, l) for l in grid]
        )
        sign = np.sign(dual - 2.0 * single)
        changes = np.nonzero(np.diff(sign) != 0)[0]
        assert changes.size >= 1
        step = grid[1] - grid[0]
        assert any(grid[c] - step <= root <= grid[c + 1] + step for c in changes)
        found += 1


def test_xpd_threshold_error_paths():
    with pytest.raises(ValueError):
        capacity.xpd_threshold(0.0, 1.0, unit_budget())
    with pytest.raises(ModelInconsistencyError) as excinfo:
        # strongly mismatched qualities at low SNR push the root negative
        capacity.xpd_threshold(1e-13, 9e-13, unit_budget(1.0))
    assert "root" in excinfo.value.details


def test_multiplexing_gain_synthetic_and_errors():
    snr = np.array([1e4, 1e5, 1e6])
    caps = 2.0 * np.log2(1.0 + snr)
    assert capacity.multiplexing_gain(snr, caps) == pytest.approx(2.0, abs=1e-3)
    with pytest.raises(ValueError):
        capacity.multiplexing_gain([1e5], [10.0])
    with pytest.raises(ValueError):
        capacity.multiplexing_gain([10.0, 1e5], [1.0, 2.0])


def test_mc_is_reproducible_and_chunking_invariant(table_scenario_16):
    kwargs = dict(
        allocation=capacity.PowerAllocation.equal(),
        budget=unit_budget(2e12),
        trials=600,
        master_seed=5,
    )
    first = capacity.ergodic_capacity_mc(moments_of(table_scenario_16), **kwargs)
    again = capacity.ergodic_capacity_mc(moments_of(table_scenario_16), **kwargs)
    assert first.estimate == again.estimate
    assert first.standard_error == again.standard_error
    assert first.single_pol_estimate == again.single_pol_estimate
    assert first.single_pol_standard_error == again.single_pol_standard_error
    np.testing.assert_array_equal(first.moments, again.moments)
    np.testing.assert_array_equal(first.moment_standard_errors, again.moment_standard_errors)

    # a short run's draws are a prefix of a longer run's, across a chunk
    # boundary in both
    chunk = capacity._CHUNK_TRIALS
    prefix = capacity._standard_channels(chunk + 100, 5)
    longer = capacity._standard_channels(2 * chunk + 1, 5)
    np.testing.assert_array_equal(prefix, longer[: chunk + 100])
    assert not np.array_equal(longer[:chunk], longer[chunk : 2 * chunk])


def test_capacity_report_is_jensen_consistent(capsys):
    values = cli_report(capsys, ["--elements", "16", "--trials", "3000", "--seed", "12"])
    mc, se = reported(values, "dual_mc_bits")
    bound, _ = reported(values, "dual_ub_bits")
    assert mc <= bound + 3.0 * se
    assert "trials 3000, seed 12" in values["dual_mc_bits"]
    assert reported(values, "o_v")[0] > 0.0 and reported(values, "o_h")[0] > 0.0


def test_capacity_report_bound_describes_its_configuration(capsys):
    # the report's bound and Monte Carlo describe the configurations it
    # simulates: the aligned closed form, or the per-draw oracle over the
    # random_phase_draws ensemble; compared at the report's printed digits
    base = scen.Scenario(elements=16, power_dbm=43.0, phase_seed=5, random_phase_draws=60)
    equal = capacity.PowerAllocation.equal()
    for scheme in ("random", "optimal"):
        current = base.replace(phase_scheme=scheme)
        model = scen.build_link_model(current)
        argv = ["--elements", "16", "--power-dbm", "43", "--trials", "240", "--seed", "1"]
        argv += ["--phase-scheme", scheme, "--set", "phase_seed=5"]
        values = cli_report(capsys, argv + ["--set", "random_phase_draws=60"])
        if scheme == "optimal":
            expected = oracles.closed_form_upper_bound(
                model.o_v, model.o_h, equal, model.budget, current.xpd_coeff
            )
        else:
            expected, mc = oracles.random_row_per_draw(
                current.replace(trials=240, master_seed=1), equal
            )
            assert values["dual_mc_bits"].split()[0] == format(mc, ".10g")
        assert values["dual_ub_bits"].split()[0] == format(expected, ".10g")


@pytest.mark.parametrize("scheme", ["optimal", "random"])
def test_cli_capacity_matches_one_row_sweep(capsys, scheme):
    pairs = {
        "elements": "16",
        "power_dbm": "43",
        "phase_seed": "5",
        "random_phase_draws": "200",
        "trials": "2000",
    }
    spec = sweep.parse_sweep_pairs(
        {"axis": "phase-scheme", "grid": scheme, "outputs": "dual-mc, dual-ub", **pairs}
    )
    row = sweep.run_sweep(spec).rows[0]
    argv = ["--phase-scheme", scheme]
    for key, value in pairs.items():
        argv += ["--set", f"{key}={value}"]
    values = cli_report(capsys, argv)
    assert values["dual_mc_bits"].split()[0] == format(row["dual_mc_bits"], ".10g")
    assert values["dual_ub_bits"].split()[0] == format(row["dual_ub_bits"], ".10g")


def test_expected_moments_match_aligned_closed_form(table_scenario_16):
    # the moments under the aligning phases, which the package never
    # builds, against the moments it builds from O_V and O_H
    for scheme in ("optimal", "optimal-with-adjustment"):
        scenario = table_scenario_16.replace(phase_scheme=scheme)
        model = scen.build_link_model(scenario)
        l = scenario.xpd_coeff
        expected = np.array(
            [(1 - l) * model.o_v, l * model.o_h, l * model.o_v, (1 - l) * model.o_h]
        )
        np.testing.assert_allclose(moments_of(scenario), expected, rtol=1e-9)
        # an aligned point's moments are built from O, with no further FFT
        np.testing.assert_array_equal(model.moments, expected)
