import dataclasses

import numpy as np
import pytest

from dpris import capacity, channel, cli, geometry, scenario as scen, sweep
from dpris.exceptions import ModelInconsistencyError

import oracles
from conftest import PITCH, WAVELENGTH

LN2 = np.log(2.0)


def manual_sample(h_vv, h_vh, h_hv, h_hh):
    return oracles.ChannelSample(
        h_vv=np.asarray(h_vv, dtype=complex),
        h_vh=np.asarray(h_vh, dtype=complex),
        h_hv=np.asarray(h_hv, dtype=complex),
        h_hh=np.asarray(h_hh, dtype=complex),
    )


def unit_b(n):
    return np.ones(n, dtype=complex)


def moments_of(scenario):
    """Moments of G under the scenario's phases, from its rebuilt parts."""
    parts = oracles.link_parts(scenario)
    return parts.config.moments(parts)


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
    return oracles.RisConfiguration(
        amplitudes_v=np.full(n, amplitude),
        amplitudes_h=np.full(n, amplitude),
        phases_v=np.zeros(n),
        phases_h=np.zeros(n),
    )


def test_power_allocation_validation():
    # the split is checked when the scenario is made, and the error names
    # the field; the link model holds the V share, the H share is the rest
    for bad in ("1.5", "-0.1", "nan", "bogus"):
        with pytest.raises(ValueError, match="allocation"):
            scen.Scenario(allocation=bad)
    with pytest.raises(ValueError, match="allocation"):
        scen.Scenario(allocation="optimal", phase_scheme="random")
    spec = sweep.parse_sweep_pairs(
        {"axis": "power-allocation", "grid": "0.5, 1.5", "outputs": "dual-ub", "elements": "4"}
    )
    ok, bad = sweep.run_sweep(spec).rows
    assert ok["status"] == "ok"
    assert bad["status"].startswith("failed:") and "allocation" in bad["status"]
    base = scen.Scenario(elements=4)
    for allocation, lambda_v in (("equal", 0.5), (" Equal ", 0.5), ("0.3", 0.3), ("1", 1.0)):
        assert scen.build_link_model(base.replace(allocation=allocation)).lambda_v == lambda_v


def test_link_budget_validation(capsys):
    # a transmit SNR that underflows to zero, or overflows, is rejected when
    # the scenario is made, with an error that names the field it came from
    for field, value in (("snr_db", -4000.0), ("power_dbm", -4000.0), ("noise_dbm", 4000.0)):
        with pytest.raises(ValueError, match=field):
            scen.Scenario(**{field: value})
    for snr_db in ("-4000", "4000"):
        assert cli.main(["threshold", "--ov", "1", "--oh", "1", "--snr-db", snr_db]) == 2
        assert "snr" in capsys.readouterr().err
    for field in ("snr_db", "power_dbm"):
        with pytest.raises(ValueError, match=field):
            scen.Scenario(**{field: 4000.0})
    base = scen.Scenario(elements=4)
    assert scen.build_link_model(base.replace(snr_db=20.0)).snr == 100.0
    model = scen.build_link_model(base.replace(power_dbm=33.0, noise_dbm=-7.0))
    assert model.snr == pytest.approx(1e4, rel=1e-12)


def test_equivalent_channel_trivial_cases():
    g = oracles.equivalent_channel(
        manual_sample([1 + 2j], [0], [0], [3j]), unit_config(1), unit_b(1)
    )
    assert g[0, 0] == 1 + 2j
    assert g[0, 1] == 0 and g[1, 0] == 0
    assert g[1, 1] == 3j

    zero_amp = oracles.equivalent_channel(
        manual_sample([1], [1], [1], [1]), unit_config(1, amplitude=0.0), unit_b(1)
    )
    assert np.all(zero_amp == 0.0)

    with pytest.raises(ValueError):
        oracles.equivalent_channel(manual_sample([1], [1], [1], [1]), unit_config(2), unit_b(2))


def test_equivalent_channel_matched_xpd_kills_cross_entries(table_scenario_16):
    parts = oracles.link_parts(table_scenario_16.replace(xpd_coeff=0.0))
    rng = np.random.default_rng(1)
    sample = oracles.sample_channel(parts.weights, parts.xpd_coeff, parts.geometry, rng)
    g = oracles.equivalent_channel(sample, parts.config, parts.b)
    assert g[0, 1] == 0.0 and g[1, 0] == 0.0
    assert g[0, 0] != 0.0


def test_mc_zero_allocation_is_exactly_zero(table_scenario_16):
    # all power on the H polarization, whose channel columns are dead,
    # leaves nothing: det(I2 + rho G Lambda G^H) = 1 on every draw
    moments = moments_of(table_scenario_16)
    moments[[1, 3]] = 0.0
    result = capacity.ergodic_capacity_mc(moments, 0.0, 1e6, trials=50, master_seed=1)
    assert result.estimate == 0.0
    assert result.standard_error == 0.0


def test_mc_vanishes_at_low_snr(table_scenario_16):
    result = capacity.ergodic_capacity_mc(
        moments_of(table_scenario_16),
        0.5,
        1e-9,
        trials=200,
        master_seed=3,
    )
    assert 0.0 < result.estimate < 1e-6


def test_mc_rejects_bad_arguments(table_scenario_16):
    with pytest.raises(ValueError):
        capacity.ergodic_capacity_mc(
            moments_of(table_scenario_16), 0.5, 1.0, trials=0, master_seed=1
        )
    with pytest.raises(ValueError):
        capacity.ergodic_capacity_mc(np.ones((2, 3)), 0.5, 1.0, 10, 1)
    # a kernel that is not positive semidefinite gives negative moments
    parts = oracles.link_parts(table_scenario_16)
    moments = parts.config.moments(dataclasses.replace(parts, spectrum=-parts.spectrum))
    with pytest.raises(ModelInconsistencyError) as excinfo:
        capacity.ergodic_capacity_mc(moments, 0.5, 1.0, 10, 1)
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
    snr = 1.0 / model.o_v
    trials = 20_000
    mc = capacity.ergodic_capacity_mc(moments_of(scenario), 0.7, snr, trials, master_seed=9)
    for value, value_se, lambda_v in (
        (mc.estimate, mc.standard_error, 0.7),
        (mc.single_pol_estimate, mc.single_pol_standard_error, None),
    ):
        estimate, se = oracles.full_vector_mc(parts, lambda_v, snr, trials, seed=10)
        assert abs(value - estimate) <= 4.0 * np.hypot(value_se, se)
    assert mc.estimate > 0.1


def test_single_pol_equals_dual_with_v_only_power_when_matched():
    # with xpd_coeff = 0 the HV entry vanishes, so the dual estimate under
    # allocation (1, 0) collapses to the single-polarized one of the same
    # draws
    base = scen.Scenario(elements=16, xpd_coeff=0.0)
    model = scen.build_link_model(base)
    mc = capacity.ergodic_capacity_mc(model.moments, 1.0, 3e12, trials=500, master_seed=21)
    assert mc.estimate == mc.single_pol_estimate
    assert mc.standard_error == mc.single_pol_standard_error


def test_moment_upper_bound_values():
    assert capacity.moment_upper_bound((0, 0, 0, 0), 0.5, 1.0) == 0.0
    # quadratic term drops when one polarization gets no power
    value = capacity.moment_upper_bound((0.8, 0.1, 0.2, 0.9), 1.0, 2.0)
    assert value == pytest.approx(np.log1p(2.0 * 1.0) / LN2, rel=1e-12)
    # full reference case, recomputed independently
    full = capacity.moment_upper_bound((0.8, 0.1, 0.2, 0.9), 0.5, 1.0)
    assert full == pytest.approx(1.1276332797258737, rel=1e-12)
    with pytest.raises(ValueError):
        capacity.moment_upper_bound((0.1, -0.2, 0.3, 0.4), 0.5, 1.0)


def test_compute_O_small_cases():
    # a 1x1 grid; a spectrum of ones is the identity kernel
    spectrum = np.ones((2, 2))
    # N = 1: O = |s|^2 = A^2 |b|^2 beta0 d^-alpha
    surface = np.array([0.3 * 0.5 * np.exp(0.7j) * np.sqrt(2.0 / 4.0)])
    assert capacity.compute_O(surface, spectrum) == pytest.approx(
        0.3**2 * 0.25 * 2.0 / 4.0, rel=1e-12
    )
    assert capacity.compute_O(np.array([1j]), spectrum) == pytest.approx(1.0, rel=1e-12)


def test_compute_O_identity_correlation_reduces_to_sum():
    rng = np.random.default_rng(8)
    n = 6
    surface = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    # a 1 x n grid; a spectrum of ones is the identity kernel
    spectrum = np.ones((2, 2 * n))
    expected = np.sum(np.abs(surface) ** 2)
    assert capacity.compute_O(surface, spectrum) == pytest.approx(expected, rel=1e-12)


def test_compute_O_matches_double_sum_oracle():
    # the FFT forms against the brute double sum over the dense sinc
    # matrix, for real (O) and complex (random-phase moment) vectors
    rng = np.random.default_rng(15)
    for rows, cols in [(1, 1), (1, 7), (3, 7), (7, 3), (4, 4), (20, 20)]:
        n = rows * cols
        geo = geometry.build_ris_grid(rows, cols, PITCH, WAVELENGTH)
        correlation = oracles.correlation_matrix(geo)
        spectrum = channel.kernel_spectrum(geo)
        for _ in range(5):
            beta0, alpha, l = rng.uniform(0.1, 2.0), rng.uniform(1.0, 4.0), rng.uniform(0.0, 1.0)
            ue = np.array([rng.uniform(0.05, 2.0), *rng.uniform(-0.5, 0.5, 2)])
            distances = np.linalg.norm(ue - geo.element_positions, axis=1)
            weights = np.sqrt(beta0 * distances**-alpha)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            config = oracles.RisConfiguration(
                amplitudes_v=rng.uniform(0, 1, n),
                amplitudes_h=rng.uniform(0, 1, n),
                phases_v=rng.uniform(0, 2 * np.pi, n),
                phases_h=rng.uniform(0, 2 * np.pi, n),
            )
            surface = np.stack([config.amplitudes_v, config.amplitudes_h]) * b * weights

            def brute(u):
                return float(np.sum(np.conj(u)[:, None] * u[None, :] * correlation).real)

            # a stack of surface vectors gives one form per vector
            o = capacity.compute_O(surface, spectrum)
            assert o.shape == (2,)
            for amplitudes, value in zip(surface, o):
                assert value == pytest.approx(brute(np.abs(amplitudes)), rel=1e-12)
            assert capacity.compute_O(surface[1], spectrum) == pytest.approx(o[1], rel=1e-12)
            q_v = brute(config.gamma_v * b * weights)
            q_h = brute(config.gamma_h * b * weights)
            draw = np.stack([config.phases_v, config.phases_h])
            np.testing.assert_allclose(
                capacity.expected_gram_moments(surface, [draw], spectrum, l)[0],
                [(1 - l) * q_v, l * q_h, l * q_v, (1 - l) * q_h],
                rtol=1e-12,
            )


def test_closed_form_equals_moment_bound_with_model_moments():
    rng = np.random.default_rng(31)
    for _ in range(25):
        o_v, o_h = rng.uniform(0.1, 3.0, 2)
        l = rng.uniform(0.0, 1.0)
        lambda_v = rng.uniform(0.0, 1.0)
        snr = rng.uniform(0.01, 50.0)
        moments = ((1 - l) * o_v, l * o_h, l * o_v, (1 - l) * o_h)
        np.testing.assert_array_equal(aligned_moments(o_v, o_h, l), moments)
        assert oracles.closed_form_upper_bound(o_v, o_h, lambda_v, snr, l) == pytest.approx(
            capacity.moment_upper_bound(moments, lambda_v, snr), rel=1e-12
        )


def test_closed_form_reference_value_and_endpoint_symmetry():
    # the moment bound at aligned moments is the paper's closed form
    value = capacity.moment_upper_bound(aligned_moments(2.0, 1.0, 0.0), 0.75, 1.0)
    assert value == pytest.approx(1.6438561897747247, rel=1e-12)
    matched = capacity.moment_upper_bound(aligned_moments(1.7, 0.4, 0.0), 0.5, 3.0)
    mismatched = capacity.moment_upper_bound(aligned_moments(1.7, 0.4, 1.0), 0.5, 3.0)
    assert matched == mismatched


def test_optimal_allocation_symmetric_and_reference():
    balanced = capacity.optimal_power_allocation(aligned_moments(1.0, 1.0, 0.3), 1.0)
    assert balanced == 0.5
    skewed = capacity.optimal_power_allocation(aligned_moments(2.0, 1.0, 0.0), 1.0)
    assert skewed == pytest.approx(0.75, rel=1e-12)
    # swapping the polarizations, V <-> H, swaps the shares
    swapped = capacity.optimal_power_allocation((0.9, 0.2, 0.1, 0.8), 1.3)
    assert 1.0 - swapped == pytest.approx(
        capacity.optimal_power_allocation((0.8, 0.1, 0.2, 0.9), 1.3), rel=1e-15
    )


def test_optimal_allocation_evens_out_at_high_snr():
    lambda_v = capacity.optimal_power_allocation(aligned_moments(3.0, 1.0, 0.2), 1e12)
    assert abs(lambda_v - 0.5) < 1e-6


def test_optimal_allocation_matches_grid_search():
    # the closed form against a grid search of the bound's argument over
    # the split, for general moments: interior maxima and both clipped ends
    rng = np.random.default_rng(44)
    grid = np.linspace(0.0, 1.0, 10_001)
    ends = set()
    for _ in range(40):
        m11, m12, m21, m22 = 10.0 ** rng.uniform(-13, -9, 4)
        rho = 10.0 ** rng.uniform(9, 14)
        best = capacity.optimal_power_allocation((m11, m12, m21, m22), rho)
        shift = (
            rho * grid * (m11 + m21)
            + rho * (1 - grid) * (m12 + m22)
            + rho * rho * grid * (1 - grid) * (m11 * m22 + m12 * m21)
        )
        assert abs(best - grid[int(np.argmax(shift))]) <= 2e-4
        ends.add(best if best in (0.0, 1.0) else "interior")
    assert ends == {0.0, 1.0, "interior"}


@pytest.mark.parametrize("xpd", [0.0, 0.2, 0.5, 1.0])
def test_optimal_allocation_matches_O_form_oracle(xpd):
    # the moment form at aligned moments is the paper's lambda_0 in O_V and
    # O_H.  Interior points are drawn at rho min(O) >= 4: below that the
    # 1 / (rho O) in the fraction amplifies either form's rounding of
    # O_V - O_H, and the two differ by up to 1e-14 without either being
    # the better one
    rng = np.random.default_rng(46)
    for _ in range(200):
        o_v, o_h = 10.0 ** rng.uniform(-13, -9, 2)
        rho = 10.0 ** rng.uniform(0.6, 4.0) / min(o_v, o_h)
        expected = oracles.closed_form_optimal_allocation(o_v, o_h, rho, xpd)
        value = capacity.optimal_power_allocation(aligned_moments(o_v, o_h, xpd), rho)
        assert value == pytest.approx(expected, rel=1e-15, abs=0.0)
    # and both clipped ends
    for o_v, o_h, end in ((1e-13, 1e-9, 0.0), (1e-9, 1e-13, 1.0)):
        assert oracles.closed_form_optimal_allocation(o_v, o_h, 1e10, xpd) == end
        assert capacity.optimal_power_allocation(aligned_moments(o_v, o_h, xpd), 1e10) == end


def test_optimal_allocation_rejects_zero_quality():
    with pytest.raises(ValueError):
        capacity.optimal_power_allocation(aligned_moments(0.0, 0.0, 0.2), 1.0)
    # one dead polarization leaves no product term to balance
    with pytest.raises(ValueError):
        capacity.optimal_power_allocation((1.0, 0.0, 0.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        capacity.optimal_power_allocation((0.8, 0.1, 0.2, 0.9), 0.0)


@pytest.mark.parametrize("shape", [(1, 4), (3, 4), (4, 4), (2,), (4, 1)])
def test_optimal_allocation_rejects_ensembles(shape):
    # the closed form maximizes one configuration's bound; a (D, 4)
    # ensemble, even D = 4 that would unpack as four rows, is refused
    with pytest.raises(ValueError, match="shape"):
        capacity.optimal_power_allocation(np.full(shape, 0.5), 1.0)


def test_single_pol_bound_values():
    def bound(o_v, snr, l):
        return capacity.single_pol_moment_bound(aligned_moments(o_v, 0.5, l), snr)

    assert bound(5.0, 1.0, 1.0) == 0.0
    one_bit = bound(1.0, 1.0, 0.0)
    assert one_bit == pytest.approx(1.0, abs=1e-15)
    values = [bound(2.0, 4.0, l) for l in np.linspace(0.0, 1.0, 41)]
    assert np.all(np.diff(values) < 0.0)
    for l in (0.0, 0.3, 1.0):
        assert bound(2.0, 4.0, l) == pytest.approx(
            oracles.single_pol_upper_bound(2.0, 4.0, l), rel=1e-12
        )


def test_equal_allocation_bound_properties():
    assert capacity.moment_upper_bound(
        aligned_moments(1.0, 1.0, 0.0), 0.5, 1.0
    ) == pytest.approx(1.1699250014423124, rel=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(25):
        o_v, o_h = rng.uniform(0.1, 4.0, 2)
        l = rng.uniform(0.0, 1.0)
        snr = rng.uniform(0.1, 10.0)
        moments = aligned_moments(o_v, o_h, l)
        eq = capacity.moment_upper_bound(moments, 0.5, snr)
        assert eq == pytest.approx(
            oracles.equal_allocation_lower_bound(o_v, o_h, snr, l), rel=1e-12
        )
        best = capacity.optimal_power_allocation(moments, snr)
        assert eq <= capacity.moment_upper_bound(moments, best, snr) + 1e-12


def test_xpd_threshold_symmetric_reference():
    # rho * O = 1 exactly: threshold is (7 - sqrt(35)) / 2
    value = capacity.xpd_threshold(0.25, 0.25, 4.0)
    assert value == pytest.approx(0.5419601084501920, rel=1e-12)


def test_xpd_threshold_definition_holds_at_root():
    snr = 7.3e12
    o_v, o_h = 3.1e-13, 2.2e-13
    root = capacity.xpd_threshold(o_v, o_h, snr)
    dual = oracles.equal_allocation_lower_bound(o_v, o_h, snr, root)
    single = oracles.single_pol_upper_bound(o_v, snr, root)
    assert dual == pytest.approx(2.0 * single, abs=1e-9)


def test_xpd_threshold_sign_change_bracket():
    rng = np.random.default_rng(62)
    found = 0
    grid = np.linspace(0.0, 1.0, 20_001)
    while found < 10:
        o_v = 10.0 ** rng.uniform(-13, -9)
        o_h = 10.0 ** rng.uniform(-13, -9)
        rho = 10.0 ** rng.uniform(10, 14)
        try:
            root = capacity.xpd_threshold(o_v, o_h, rho)
        except ModelInconsistencyError:
            continue
        dual = np.array([oracles.equal_allocation_lower_bound(o_v, o_h, rho, l) for l in grid])
        single = np.array([oracles.single_pol_upper_bound(o_v, rho, l) for l in grid])
        sign = np.sign(dual - 2.0 * single)
        changes = np.nonzero(np.diff(sign) != 0)[0]
        assert changes.size >= 1
        step = grid[1] - grid[0]
        assert any(grid[c] - step <= root <= grid[c + 1] + step for c in changes)
        found += 1


def test_xpd_threshold_error_paths():
    with pytest.raises(ValueError):
        capacity.xpd_threshold(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        capacity.xpd_threshold(1.0, 1.0, 0.0)
    with pytest.raises(ModelInconsistencyError) as excinfo:
        # strongly mismatched qualities at low SNR push the root negative
        capacity.xpd_threshold(1e-13, 9e-13, 1.0)
    assert "root" in excinfo.value.details


def test_multiplexing_gain_synthetic_and_errors():
    snr = np.array([1e4, 1e5, 1e6])
    caps = 2.0 * np.log2(1.0 + snr)
    assert oracles.multiplexing_gain(snr, caps) == pytest.approx(2.0, abs=1e-3)
    with pytest.raises(ValueError):
        oracles.multiplexing_gain([1e5], [10.0])
    with pytest.raises(ValueError):
        oracles.multiplexing_gain([10.0, 1e5], [1.0, 2.0])


def test_mc_is_reproducible_and_chunking_invariant(table_scenario_16):
    kwargs = dict(lambda_v=0.5, snr=2e12, trials=600, master_seed=5)
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
    for scheme in ("random", "optimal"):
        current = base.replace(phase_scheme=scheme)
        model = scen.build_link_model(current)
        argv = ["--elements", "16", "--power-dbm", "43", "--trials", "240", "--seed", "1"]
        argv += ["--phase-scheme", scheme, "--set", "phase_seed=5"]
        values = cli_report(capsys, argv + ["--set", "random_phase_draws=60"])
        if scheme == "optimal":
            expected = oracles.closed_form_upper_bound(
                model.o_v, model.o_h, 0.5, model.snr, current.xpd_coeff
            )
        else:
            expected, mc = oracles.random_row_per_draw(
                current.replace(trials=240, master_seed=1), 0.5
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
