import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dpris import capacity, cli, recipes, ris, scenario as scen, sweep
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
    """``dpris capacity`` report as key -> value text: the ``# key=value``
    scenario echo and the ``column = value`` cells."""
    assert cli.main(["capacity", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    pairs = (line.lstrip("# ").partition("=") for line in lines)
    return {key.strip(): value.strip() for key, sep, value in pairs if sep}


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
    # the axis column allocation_lambda_v is no scenario field, yet its grid
    # values parse as numbers
    assert [type(value) for value in spec.grid] == [float, float]
    with pytest.raises(ValueError, match="allocation_lambda_v must be a number"):
        sweep.parse_sweep_pairs({"axis": "power-allocation", "grid": "none", "outputs": "dual-ub"})
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
    sample = oracles.sample_channel(
        parts.weights, parts.xpd_coeff, parts.positions, parts.wavelength, rng
    )
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


def test_mc_rejects_bad_arguments():
    # the trial count is checked by ``Scenario``, and the moment values by
    # the gate of ``scenario.build_link_model``; the shape stays a contract
    with pytest.raises(ValueError, match="shape"):
        capacity.ergodic_capacity_mc(np.ones((2, 3)), 0.5, 1.0, 10, 1)


@pytest.mark.parametrize("xpd", [0.0, 0.2, 1.0])
def test_mc_matches_full_vector_oracle(oblique_scenario, xpd):
    # the 2x2 law against full per-element draws through the correlation
    # factor, at rho (m11 + m21) = 1 where the capacity is far from both
    # its low- and high-SNR limits; an unequal split on unequal
    # polarizations tells every entry's moment apart
    scenario = oblique_scenario.replace(xpd_coeff=xpd)
    model = scen.build_link_model(scenario)
    parts = oracles.link_parts(scenario)
    snr = 1.0 / model.forms[0]
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


def test_compute_O_small_cases():
    # a 1x1 grid; a spectrum of ones is the identity kernel
    spectrum = np.ones((2, 2))
    # N = 1: O = |s|^2 = A^2 |b|^2 beta0 d^-alpha
    surface = np.array([[0.3 * 0.5 * np.exp(0.7j) * np.sqrt(2.0 / 4.0)]])
    assert capacity.compute_O(surface, spectrum) == pytest.approx(
        0.3**2 * 0.25 * 2.0 / 4.0, rel=1e-12
    )
    assert capacity.compute_O(np.array([[1j]]), spectrum) == pytest.approx(1.0, rel=1e-12)


def test_compute_O_identity_correlation_reduces_to_sum():
    rng = np.random.default_rng(8)
    n = 6
    surface = rng.standard_normal((1, n)) + 1j * rng.standard_normal((1, n))
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
        positions = oracles.grid_positions(rows, cols, PITCH)
        correlation = oracles.correlation_matrix(positions, WAVELENGTH)
        spectrum = capacity.kernel_spectrum(rows, cols, PITCH, WAVELENGTH)
        for _ in range(5):
            beta0, alpha, l = rng.uniform(0.1, 2.0), rng.uniform(1.0, 4.0), rng.uniform(0.0, 1.0)
            ue = np.array([rng.uniform(0.05, 2.0), *rng.uniform(-0.5, 0.5, 2)])
            distances = np.linalg.norm(ue - positions, axis=1)
            weights = np.sqrt(beta0 * distances**-alpha)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            config = oracles.RisConfiguration(
                amplitudes_v=rng.uniform(0, 1, n),
                amplitudes_h=rng.uniform(0, 1, n),
                phases_v=rng.uniform(0, 2 * np.pi, n),
                phases_h=rng.uniform(0, 2 * np.pi, n),
            )
            vectors = np.stack([config.amplitudes_v, config.amplitudes_h]) * b * weights
            surface = vectors.reshape(2, rows, cols)

            def brute(u):
                return float(np.sum(np.conj(u)[:, None] * u[None, :] * correlation).real)

            # a stack of surface vectors gives one form per vector
            o = capacity.compute_O(surface, spectrum)
            assert o.shape == (2,)
            for amplitudes, value in zip(vectors, o):
                assert value == pytest.approx(brute(np.abs(amplitudes)), rel=1e-12)
            assert capacity.compute_O(surface[1], spectrum) == pytest.approx(o[1], rel=1e-12)
            q_v = brute(config.gamma_v * b * weights)
            q_h = brute(config.gamma_h * b * weights)
            draw = np.stack([config.phases_v, config.phases_h]).reshape(surface.shape)
            q = oracles.fft2_draw_forms(surface, [draw], spectrum)
            np.testing.assert_allclose(q[0], [q_v, q_h], rtol=1e-12)
            np.testing.assert_allclose(
                capacity.moment_layout(q, l)[0],
                [(1 - l) * q_v, l * q_h, l * q_v, (1 - l) * q_h],
                rtol=1e-12,
            )


@pytest.mark.parametrize("rows,cols", [(17, 17), (17, 3), (4, 9)])
def test_real_and_complex_lattice_paths_agree(rows, cols):
    # compute_O sums the real FFT's half-plane, weight 1 on the DC and
    # Nyquist columns and 2 on those between; the random draws' complex FFT
    # sums the whole lattice; at zero phases both give |s|^T R |s|
    rng = np.random.default_rng(rows * cols)
    spectrum = capacity.kernel_spectrum(rows, cols, PITCH, WAVELENGTH)
    surface = rng.uniform(0.1, 1.0, (2, rows, cols))
    o = capacity.compute_O(surface, spectrum)
    q = oracles.fft2_draw_forms(surface, [np.zeros_like(surface)], spectrum)
    np.testing.assert_allclose(o, q[0], rtol=1e-13, atol=0)


@pytest.mark.parametrize("side", [1, 2, 3, 5, 7, 16, 20, 36, 40])
def test_draw_forms_have_the_bits_of_fft2_per_draw(side):
    # the chunked kernel, its reused stage and transform buffers and its
    # one-axis-at-a-time FFT against np.fft.fft2 on one draw at a time:
    # 7 seeded draws at each of three pitches, every form bit for bit
    rng = np.random.default_rng(side)
    surface = rng.uniform(0.1, 1.0, (2, side, side)) * np.exp(
        1j * rng.uniform(0.0, 2.0 * np.pi, (2, side, side))
    )
    for pitch in (0.25, 1.0 / 3.0, 0.5):
        spectrum = capacity.kernel_spectrum(side, side, pitch * WAVELENGTH, WAVELENGTH)
        draws = [oracles.random_phases(side, side, seed) for seed in range(7)]
        expected = oracles.fft2_draw_forms(surface, draws, spectrum)
        # the same draws from their seeds, as half phases pi r
        q = capacity.expected_gram_moments(surface, range(7), spectrum)
        assert np.array_equal(q, expected)


@pytest.mark.parametrize("split", [1, 5, 7, 8, 10, 13, 16, 39])
def test_seeded_forms_do_not_depend_on_where_the_seeds_split(monkeypatch, split):
    # the forms of draws [0, 40) in one call, and in two on [0, a) and
    # [a, 40): each call starts its 5-draw chunks and 8-seed blocks at its
    # own first seed, so a falls on and off both boundaries; bit for bit
    monkeypatch.setattr(ris, "_SEED_BLOCK", 8)
    rng = np.random.default_rng(40)
    surface = rng.uniform(0.1, 1.0, (2, 4, 4)) * np.exp(
        1j * rng.uniform(0.0, 2.0 * np.pi, (2, 4, 4))
    )
    spectrum = capacity.kernel_spectrum(4, 4, PITCH, WAVELENGTH)
    monkeypatch.setattr(capacity, "_FFT_LATTICE_POINTS", 5 * (2 * surface.size + 3 * spectrum.size))
    whole = capacity.expected_gram_moments(surface, range(40), spectrum)
    assert whole.shape == (40, 2)
    halves = [
        capacity.expected_gram_moments(surface, seeds, spectrum)
        for seeds in (range(split), range(split, 40))
    ]
    assert np.array_equal(np.concatenate(halves), whole)


def test_tangent_phasor_matches_high_precision_cos_and_sin():
    # e^{j theta} from tan(theta / 2) against 40-digit cos and sin: each
    # part within 4 half-ulps of 1, and the modulus as close to 1, at the
    # edges (0, the smallest subnormals, both sides of pi, near pi / 2,
    # just below 2 pi, just above -pi, the Monte Carlo's phase sums) and
    # over seeded uniform draws on [0, 2 pi)
    mpmath = pytest.importorskip("mpmath")
    edges = [
        0.0,
        5e-324,
        np.nextafter(np.pi, 0.0),
        np.pi,
        np.nextafter(np.pi, 4.0),
        np.pi / 2 - 1e-6,
        np.pi / 2 + 1e-6,
        np.nextafter(2.0 * np.pi, 0.0),
        -5e-324,
        -np.pi / 2 - 1e-6,
        np.nextafter(-np.pi, 0.0),
    ]
    theta = np.concatenate([edges, np.random.default_rng(2026).uniform(0.0, 2.0 * np.pi, 10_000)])
    phasor = np.empty(theta.shape, dtype=complex)
    capacity._tangent_phasor(theta * 0.5, phasor.real, phasor.imag)
    bound = 4.0 * 2.0**-53
    with mpmath.workdps(40):
        for angle, value in zip(theta, phasor):
            exact = mpmath.mpf(float(angle))
            re, im = mpmath.mpf(value.real), mpmath.mpf(value.imag)
            assert abs(re - mpmath.cos(exact)) <= bound, angle
            assert abs(im - mpmath.sin(exact)) <= bound, angle
            assert abs(mpmath.sqrt(re * re + im * im) - 1) <= bound, angle


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
    with pytest.raises(ModelInconsistencyError) as excinfo:
        capacity.optimal_power_allocation(aligned_moments(0.0, 0.0, 0.2), 1.0)
    assert excinfo.value.details["snr"] == 1.0
    # one dead polarization leaves no product term to balance
    with pytest.raises(ModelInconsistencyError):
        capacity.optimal_power_allocation((1.0, 0.0, 0.0, 0.0), 1.0)


@pytest.mark.parametrize("shape", [(1, 4), (3, 4), (4, 4), (2,), (4, 1)])
def test_optimal_allocation_rejects_ensembles(shape):
    # the closed form maximizes one configuration's bound; a (D, 4)
    # ensemble, even D = 4 that would unpack as four rows, is refused
    with pytest.raises(ValueError, match="shape"):
        capacity.optimal_power_allocation(np.full(shape, 0.5), 1.0)


#: One configuration's moments: each 0 or a power of ten from 1e-20 to 1e3.
CONFIGURATION = st.lists(
    st.just(0.0) | st.floats(-20.0, 3.0).map(lambda e: 10.0**e), min_size=4, max_size=4
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    CONFIGURATION,
    st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
    st.floats(-10.0, 170.0).map(lambda db: 10.0 ** (db / 10.0)),
)
def test_one_configuration_has_the_bits_of_the_ensemble_path(moments, lambda_v, snr):
    # one configuration's bounds run on Python floats and D draws' on
    # arrays, by one expression: D copies of a configuration give the mean
    # of D equal bits, their sum over D; the split runs on floats too, with
    # the bits of its closed form on numpy's scalars, from a list as from
    # its array
    m = np.array(moments)
    for bound, args in (
        (capacity.moment_upper_bound, (lambda_v, snr)),
        (capacity.single_pol_moment_bound, (snr,)),
    ):
        value = bound(m, *args)
        assert type(value) is float
        assert bound(m[None], *args) == value
        for draws in (2, 3):
            assert bound(np.tile(m, (draws, 1)), *args) == sum([value] * draws) / draws
    m11, m12, m21, m22 = m
    cross = m11 * m22 + m12 * m21
    if cross > 0.0:
        split = capacity.optimal_power_allocation(m, snr)
        assert capacity.optimal_power_allocation(moments, snr) == split
        closed_form = 0.5 + ((m11 + m21) - (m12 + m22)) / (2.0 * snr * cross)
        assert split == min(max(closed_form, 0.0), 1.0)


def test_a_step_past_the_float_range_raises_its_named_error():
    # Python floats leave the float range silently, so one configuration's
    # closed forms check their steps themselves: the step that leaves it is
    # named, whatever numpy's errstate, where the split would otherwise
    # clip a lambda_v that is not finite
    huge = np.array([1e200, 1e-300, 1e-300, 1e200])
    cases = [
        (capacity.moment_upper_bound, (huge, 0.5, 1e10), "the moment bound's shift is inf"),
        (capacity.single_pol_moment_bound, (huge * 1e108, 1e10), "the all-V bound's shift is inf"),
        # m11 m22 overflows, and so does the scale it enters
        (
            capacity.optimal_power_allocation,
            (np.array([1e200, 0.0, 0.0, 1e200]), 1.0),
            "the split's 2 rho (m11 m22 + m12 m21) is inf",
        ),
        (
            capacity.optimal_power_allocation,
            (np.array([1e150, 0.0, 0.0, 1e150]), 1e10),
            "the split's 2 rho (m11 m22 + m12 m21) is inf",
        ),
        (
            capacity.optimal_power_allocation,
            (np.array([2e-160, 0.0, 0.0, 1e-160]), 1e-10),
            "the split's 2 rho (m11 m22 + m12 m21) is 0.0",
        ),
        (
            capacity.optimal_power_allocation,
            (np.array([1e300, 0.0, 0.0, 1e-300]), 1e-10),
            "the split's lambda_v is inf",
        ),
    ]
    for errstate in ("ignore", "warn", "raise"):
        with np.errstate(all=errstate):
            for closed_form, args, message in cases:
                with pytest.raises(FloatingPointError) as excinfo:
                    closed_form(*args)
                assert str(excinfo.value) == message


#: The message of a step of one configuration's closed forms that leaves
#: the float range.
NAMED_STEP = r"^the (moment bound|all-V bound|split)'s .+ is (inf|-inf|nan|0\.0)$"


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    st.lists(
        st.just(0.0) | st.floats(-300.0, 300.0).map(lambda e: 10.0**e), min_size=4, max_size=4
    ),
    st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
    st.floats(-100.0, 300.0).map(lambda db: 10.0 ** (db / 10.0)),
)
@example([1e300, 1e300, 1e300, 1e300], 0.5, 1e30)  # every shift and the scale overflow
@example([1e-160, 0.0, 0.0, 1e-160], 0.5, 1e-10)  # 2 rho (m11 m22 + m12 m21) underflows to 0
def test_one_configuration_gives_finite_bits_or_names_its_step(moments, lambda_v, snr):
    # over moments from 0 and 1e-300 to 1e300 and snr_db's range, under an
    # errstate that ignores every floating-point error or raises on each:
    # a closed form of one configuration returns the bits its steps give
    # on numpy's arrays (two copies of the configuration) or scalars,
    # wherever every step is finite, and otherwise raises the error that
    # names its step; never inf or nan, nor a split clipped from a
    # lambda_v that is not finite
    m = np.array(moments)
    with np.errstate(all="ignore"):
        draws = np.tile(m, (2, 1))
        bounds = [
            (capacity.moment_upper_bound, (lambda_v, snr)),
            (capacity.single_pol_moment_bound, (snr,)),
        ]
        expected = [bound(draws, *args) for bound, args in bounds]
        m11, m12, m21, m22 = m
        cross = m11 * m22 + m12 * m21
        scale = 2.0 * snr * cross
        split = 0.5 + ((m11 + m21) - (m12 + m22)) / scale
    for errstate in ("ignore", "raise"):
        with np.errstate(all=errstate):
            for (bound, args), bits in zip(bounds, expected):
                if np.isfinite(bits):
                    assert bound(m, *args) == bits
                else:
                    with pytest.raises(FloatingPointError, match=NAMED_STEP):
                        bound(m, *args)
            if np.isfinite(cross) and not cross > 0.0:
                with pytest.raises(ModelInconsistencyError, match="positive"):
                    capacity.optimal_power_allocation(m, snr)
            elif np.isfinite([cross, scale, split]).all():
                assert capacity.optimal_power_allocation(m, snr) == min(max(split, 0.0), 1.0)
            else:
                with pytest.raises(FloatingPointError, match=NAMED_STEP):
                    capacity.optimal_power_allocation(m, snr)


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


PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)
#: One configuration's moments (m11, m12, m21, m22), each in [1e-6, 1e6].
MOMENTS = st.lists(st.floats(1e-6, 1e6), min_size=4, max_size=4).map(np.array)


@PROPERTY
@given(MOMENTS, st.floats(1e-3, 1e3))
def test_optimal_allocation_is_symmetric_under_polarization_swap(moments, snr):
    # relabelling V as H swaps (m11, m12, m21, m22) -> (m22, m21, m12, m11)
    # and hands the V share to H
    swapped = moments[::-1].copy()
    lambda_v = capacity.optimal_power_allocation(moments, snr)
    assert capacity.optimal_power_allocation(swapped, snr) == pytest.approx(
        1.0 - lambda_v, abs=1e-15
    )


@PROPERTY
@given(
    MOMENTS | st.just(np.zeros(4)), st.floats(0.0, 1.0), st.floats(1e-3, 1e3), st.floats(0.0, 1e3)
)
def test_moment_bound_does_not_decrease_with_snr(moments, lambda_v, snr, rise):
    low, high = snr, snr + rise
    bound = capacity.moment_upper_bound
    assert bound(moments, lambda_v, low) <= bound(moments, lambda_v, high)


@PROPERTY
@given(st.floats(-5.0, 4.0), st.floats(-5.0, 4.0), st.floats(8.0, 16.0))
@example(-5.0, -4.7, 12.0)  # the textbook root's residual is 4.6e-9 here
def test_equal_split_bound_doubles_single_at_threshold(quality_v, quality_h, snr_exponent):
    # at the threshold root the equal-split dual bound is twice the single
    # bound, for rho O_V and rho O_H in [1e-5, 1e4]; the quadratic's
    # coefficients cancel, which costs up to ~1e-12 relative, and the
    # textbook root (-b + sqrt(D)) / 2a would add up to ~5e-9 where
    # b^2 >> |4ac|
    snr = 10.0**snr_exponent
    o_v, o_h = 10.0**quality_v / snr, 10.0**quality_h / snr
    try:
        root = capacity.xpd_threshold(o_v, o_h, snr)
    except ModelInconsistencyError:
        assume(False)
    moments = aligned_moments(o_v, o_h, root)
    dual = capacity.moment_upper_bound(moments, 0.5, snr)
    single = capacity.single_pol_moment_bound(moments, snr)
    assert dual == pytest.approx(2.0 * single, rel=1e-11, abs=0.0)


def test_xpd_threshold_takes_the_linear_root_when_a_vanishes():
    # O_H = 2 O_V makes a = 0: at O_V = 1 and snr 8 the quadratic, divided
    # by (rho O_V)^2, is the line 1.25 x - 0.5625, whose coefficients are
    # exact, so the root is 0.45 to the last bit
    assert capacity.xpd_threshold(1.0, 2.0, 8.0) == 0.5625 / 1.25 == 36.0 / 80.0


def threshold_oracle(o_v, o_h, snr):
    """The threshold root at 60 digits, from the unscaled quadratic of
    ``capacity.xpd_threshold`` in its cancellation-free form: the root
    c / q, and the discriminant of the quadratic in t = 1 - l, whose terms
    do not cancel for O_H <= 2 O_V; b^2 - 4ac cancels to below 60 digits
    as the root nears 1."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        o_v, o_h, rho = mpmath.mpf(o_v), mpmath.mpf(o_h), mpmath.mpf(snr)
        a = rho * rho * o_v * (o_h / 2 - o_v)
        b = rho * rho * o_v * (2 * o_v - o_h / 2) + 2 * rho * o_v
        c = rho * rho * o_v * (o_h / 4 - o_v) + rho * (o_h / 2 - 3 * o_v / 2)
        shifted_b = rho * rho * o_v * o_h / 2 + 2 * rho * o_v
        shifted_c = rho * rho * o_v * o_h / 4 + rho * (o_v + o_h) / 2
        sqrt_d = mpmath.sqrt(shifted_b * shifted_b - 4 * a * shifted_c)
        return float(c / (-(b + sqrt_d) / 2) if b > 0 else (sqrt_d - b) / (2 * a))


FIG9 = scen.build_link_model(recipes.load_recipe("fig9").base)


@pytest.mark.parametrize(
    "o_v, o_h, snr",
    [
        pytest.param(*FIG9.forms.tolist(), FIG9.snr, id="fig9"),
        pytest.param(1e-300, 1e-300, 1.0, id="tiny-qualities"),
        pytest.param(1e300, 1e300, 1e10, id="huge-qualities"),
        pytest.param(1.0, 2.0, 10.0, id="linear"),
        pytest.param(0.25, 0.25, 4.0, id="x-is-one"),
        pytest.param(3.1e-13, 2.2e-13, 7.3e12, id="x-above-one"),
        # b^2 - 4ac cancels here, and the root was refused as 1
        pytest.param(2.50e75, 4.96e-32, 1.53e-47, id="root-near-one"),
    ],
)
def test_xpd_threshold_matches_high_precision_root(o_v, o_h, snr):
    # the rescaled quadratic neither overflows nor underflows, and its root
    # is within an ulp of the 60-digit one
    root = capacity.xpd_threshold(o_v, o_h, snr)
    assert root == pytest.approx(threshold_oracle(o_v, o_h, snr), rel=2.3e-16, abs=0.0)


@PROPERTY
@given(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0))
@example(15.0, -15.0)  # b^2 - 4ac gave a root 5e7 ulps off here
def test_xpd_threshold_has_b_positive_wherever_its_root_is_real(x_exponent, r_exponent):
    # rho O_V = 10^x_exponent and O_H / O_V = 10^r_exponent, each in
    # [1e-300, 1e300], from finite O_V, O_H and rho: b > 0 wherever the
    # quadratic has a real root, so c / q holds for every input; the root
    # is the 60-digit one's to 4 ulps for r <= 2, where the discriminant is
    # a sum of terms >= 0, and to 1e-7 for r > 2, where it may cancel near
    # a double root
    o_v = 10.0 ** ((x_exponent - r_exponent) / 3.0)
    o_h = 10.0 ** ((x_exponent + 2.0 * r_exponent) / 3.0)
    snr = 10.0 ** ((2.0 * x_exponent + r_exponent) / 3.0)
    try:
        root = capacity.xpd_threshold(o_v, o_h, snr)
    except ModelInconsistencyError as err:
        assert "root" not in err.details or err.details["b"] > 0.0
        return
    want = threshold_oracle(o_v, o_h, snr)
    if o_h / o_v <= 2.0:
        assert abs(root - want) <= 4 * math.ulp(want)
    else:
        assert root == pytest.approx(want, rel=1e-7, abs=0.0)


@PROPERTY
@given(st.floats(-150.0, 150.0), st.floats(-300.0, 0.30103), st.floats(-300.0, 300.0))
def test_xpd_threshold_refuses_exactly_where_the_oracle_has_no_root(
    o_v_exponent, r_exponent, x_exponent
):
    # O_V in [1e-150, 1e150], r = O_H / O_V in [1e-300, 2] and rho O_V in
    # [1e-300, 1e300], wherever O_H and rho are positive and finite: for
    # r <= 2 the root is refused exactly where the 60-digit one falls
    # outside (0, 1), and taken to 4 ulps wherever it falls inside, roots
    # within an ulp of 1 included, which b^2 - 4ac pushed to 1 or past it
    o_v = 10.0**o_v_exponent
    o_h, snr = o_v * 10.0**r_exponent, 10.0**x_exponent / o_v
    assume(0.0 < o_h and o_h / o_v <= 2.0 and 0.0 < snr < math.inf)
    want = threshold_oracle(o_v, o_h, snr)
    if 0.0 < want < 1.0:
        assert abs(capacity.xpd_threshold(o_v, o_h, snr) - want) <= 4 * math.ulp(want)
    else:
        with pytest.raises(ModelInconsistencyError, match="falls outside"):
            capacity.xpd_threshold(o_v, o_h, snr)


@pytest.mark.parametrize(
    "ov, oh, snr_db, printed",
    [
        ("1e-300", "1e-300", "0", "0.5"),
        ("1e300", "1e300", "100", "0.6339745962155614"),
        # a root within 4e-15 of 1, which 10 digits would print as 1
        ("3.825e38", "7.5888e-69", "-100", "0.99999999999999634"),
        # O_H / O_V overflows: the quadratic divided by it has no real root
        ("1e-300", "1e300", "100", None),
    ],
)
def test_cli_threshold_at_extreme_qualities(capsys, ov, oh, snr_db, printed):
    # the root prints as a sweep cell does, to 17 digits, so it parses back
    # to the returned root
    rc = cli.main(["threshold", "--ov", ov, "--oh", oh, "--snr-db", snr_db])
    out, err = capsys.readouterr()
    if printed is None:
        assert rc == 3 and "error: threshold root is not real" in err
    else:
        assert rc == 0 and out == f"xpd_threshold = {printed}\n"
        snr = scen.db_to_linear(float(snr_db))
        assert float(printed) == capacity.xpd_threshold(float(ov), float(oh), snr)


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
    for bad in ((np.inf, 1.0, 1.0), (1.0, np.nan, 1.0), (1.0, 1.0, np.inf)):
        with pytest.raises(ValueError, match="positive and finite"):
            capacity.xpd_threshold(*bad)
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
    # a call on the kept statistics and a call that draws them afresh give
    # the first call's bits, the moments' too
    moments = moments_of(table_scenario_16)
    kwargs = dict(lambda_v=0.5, snr=2e12, trials=600, master_seed=5)
    runs = []
    for cold in (False, False, True):
        if cold:
            capacity._trial_statistics.cache_clear()
        mc = capacity.ergodic_capacity_mc(moments, **kwargs)
        runs.append((mc, capacity.mc_moments(moments, 600, 5).tolist()))
    assert runs[0] == runs[1] == runs[2]

    # a short run's statistics are a prefix of a longer run's, at odd
    # lengths, and no stretch of the stream repeats another
    for short, long in ((1, 2), (701, 4099), (4099, 65_537)):
        prefix = capacity._trial_statistics(short, 5)
        for part, whole in zip(prefix, capacity._trial_statistics(long, 5)):
            np.testing.assert_array_equal(part, whole[:, :short])
    power = capacity._trial_statistics(65_536, 5)[0]
    assert not np.array_equal(power[:, :32_768], power[:, 32_768:])


def _random_moments(shape):
    return np.random.default_rng(4).uniform(0.1, 2.0, shape)


def test_python_splitmix64_matches_the_published_generator():
    # seed 0 keys SplitMix64's state 0, whose first outputs are those of
    # the reference implementation (Steele, Lea & Flood, OOPSLA 2014)
    assert oracles.stream_key(0) == 0
    outputs = [oracles.mix64((i + 1) * oracles.GAMMA & oracles.MASK64) for i in range(3)]
    assert outputs == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


@pytest.mark.parametrize("seed", [0, 2**32 - 3, 2**64 - 3, 2**128 - 3])
def test_stream_has_the_bits_of_python_int_splitmix64(seed):
    # the stream's uint64 array arithmetic wraps as Python ints masked to
    # 64 bits do, at seeds of one, two and three words, and sets no flag
    # under the raising errstate a sweep row runs in; row k holds U_{5t+k}
    trials = 301
    expected = oracles.splitmix64_uniforms(seed, 5 * trials).reshape(trials, 5).T
    with np.errstate(all="raise"):
        rows = [row.copy() for row in capacity._uniform_rows(trials, seed)]
        power, products = capacity._trial_statistics(trials, seed)
    np.testing.assert_array_equal(rows, expected)
    assert capacity._stream_key(seed) == oracles.stream_key(seed)
    assert np.all((0.0 < expected) & (expected <= 1.0))
    assert np.all(np.isfinite(power)) and np.all(np.isfinite(products))


def test_seeds_differing_above_bit_64_draw_different_trials():
    seeds = [5, 2**64 + 5, 2**65 + 5, 2**128 + 5]
    assert len({capacity._stream_key(seed) for seed in seeds}) == len(seeds)
    powers = [capacity._trial_statistics(100, seed)[0] for seed in seeds]
    for i, first in enumerate(powers):
        for second in powers[i + 1 :]:
            assert np.all(first != second)


@pytest.mark.parametrize(
    "moments, snr",
    [
        pytest.param(_random_moments(4), 5.0, id="one"),
        pytest.param(_random_moments(4), 1e10, id="rho-1e10"),
        pytest.param(np.array([1.0, 2.0, 0.5, 1.0]), 1e8, id="m11m22-eq-m12m21"),
        pytest.param(capacity.moment_layout((1.3, 0.4), 0.0), 1e3, id="xpd-0"),
    ],
)
def test_phase_sum_rows_give_the_normals_per_trial_values(monkeypatch, moments, snr):
    # the reduction of G's law is exact: from one set of complex normals,
    # the rows (r cos psi, r sin psi, r', 0) of the powers and the phase sum
    # psi = phi11 + phi22 - phi12 - phi21 give each trial the estimator's
    # value of the products (z11 z22, z12 z21) to 1e-12 relative
    z = np.random.default_rng(12).standard_normal((64, 4, 2)).view(complex)[..., 0]
    power = (z.real**2 + z.imag**2).T
    pairs = z[:, 0] * z[:, 3], z[:, 1] * z[:, 2]
    products = np.array([pairs[0].real, pairs[0].imag, pairs[1].real, pairs[1].imag])
    psi = np.angle(z[:, 0]) + np.angle(z[:, 3]) - np.angle(z[:, 1]) - np.angle(z[:, 2])
    r, r_cross = np.sqrt(power[0] * power[3]), np.sqrt(power[1] * power[2])
    reduced = np.array([r * np.cos(psi), r * np.sin(psi), r_cross, np.zeros(64)])
    for t in range(64):
        values = []
        for rows in (products, reduced):
            stats = power[:, t : t + 1], rows[:, t : t + 1]
            monkeypatch.setattr(capacity, "_trial_statistics", lambda trials, seed: stats)
            mc = capacity.ergodic_capacity_mc(moments, 0.4, snr, 1, 0)
            values.append((mc.estimate, mc.single_pol_estimate))
        assert values[1][0] == pytest.approx(values[0][0], rel=1e-12, abs=0.0)
        assert values[1][1] == values[0][1]


def test_kept_draws_are_read_only_and_change_no_estimate():
    # the statistics of the last (trials, master_seed) are kept read-only,
    # 64 bytes a trial: the powers have the bits of -2 ln U of the stream
    # drawn afresh, the products are those of its normals to an ulp or
    # two, and a cold call gives a warm call's bits
    trials, seed = 700, 9
    stats = capacity._trial_statistics(trials, seed)
    power, products = stats
    assert power.shape == products.shape == (4, trials)
    assert sum(part.nbytes for part in stats) == 64 * trials
    for part in stats:
        assert not part.flags.writeable
        with pytest.raises(ValueError):
            part[0, 0] = 0.0
    uniforms = oracles.splitmix64_uniforms(seed, 5 * trials).reshape(trials, 5).T
    np.testing.assert_array_equal(power, -2.0 * np.log(np.ascontiguousarray(uniforms[:4])))
    z = oracles.standard_channels(trials, seed)
    for pair, (i, j) in zip((products[:2], products[2:]), ((0, 3), (1, 2))):
        product = z[:, i] * z[:, j]
        assert np.all(np.abs(pair[0] + 1j * pair[1] - product) <= 1e-15 * np.abs(product))

    # the estimates and the moments' means each read the kept statistics
    moments = np.random.default_rng(4).uniform(0.1, 2.0, 4)
    hits = capacity._trial_statistics.cache_info().hits
    warm = capacity.ergodic_capacity_mc(moments, 0.3, 5.0, trials, seed)
    warm_moments = capacity.mc_moments(moments, trials, seed)
    assert capacity._trial_statistics.cache_info().hits == hits + 2
    assert capacity._trial_statistics(trials, seed) is stats
    capacity._trial_statistics.cache_clear()
    cold = capacity.ergodic_capacity_mc(moments, 0.3, 5.0, trials, seed)
    assert capacity._trial_statistics(trials, seed) is not stats
    assert cold == warm
    np.testing.assert_array_equal(capacity.mc_moments(moments, trials, seed), warm_moments)


@pytest.mark.parametrize(
    "moments, lambda_v, snr, trials",
    [
        pytest.param(_random_moments(4), 0.3, 5.0, 700, id="one"),
        pytest.param(_random_moments((3, 4)), 0.3, 5.0, 700, id="ensemble-3"),
        pytest.param(_random_moments((6, 4)), 0.6, 40.0, 701, id="ensemble-6"),
        pytest.param(_random_moments(4), 0.3, 1e10, 700, id="rho-1e10"),
        pytest.param(_random_moments((3, 4)), 0.7, 1e17, 700, id="rho-1e17"),
        pytest.param(capacity.moment_layout((1.3, 0.4), 0.0), 0.6, 1e3, 700, id="xpd-0"),
        pytest.param(capacity.moment_layout((1.3, 0.4), 1.0), 0.6, 1e3, 700, id="xpd-1"),
        pytest.param(np.array([1.0, 2.0, 0.5, 1.0]), 0.5, 1e8, 700, id="m11m22-eq-m12m21"),
        pytest.param(_random_moments(4), 0.3, 5.0, 1, id="one-trial"),
        pytest.param(_random_moments((3, 4)), 0.3, 5.0, 1, id="one-trial-ensemble"),
        pytest.param(_random_moments((7, 4)), 0.4, 1e4, 20_001, id="long-run"),
    ],
)
def test_mc_matches_log_det_oracle(moments, lambda_v, snr, trials):
    # each call, whatever its moments, matches an oracle that draws the
    # same stream afresh, forms every trial's G from its normals and
    # moments, and takes the determinant through the Hermitian product
    seed = 9
    z = oracles.standard_channels(trials, seed)
    rows = moments.reshape(-1, 4)
    g = z * np.sqrt(rows / 2.0)[np.arange(trials) % len(rows)]
    dual = oracles.log2_det2(g.reshape(trials, 2, 2), lambda_v, 1.0 - lambda_v, snr)
    single = np.log1p(snr * np.abs(g[:, 0]) ** 2) / oracles.LN2
    mc = capacity.ergodic_capacity_mc(moments, lambda_v, snr, trials, seed)
    mean_gram = capacity.mc_moments(moments, trials, seed)
    assert mc.estimate == pytest.approx(dual.mean(), rel=1e-12)
    assert mc.single_pol_estimate == pytest.approx(single.mean(), rel=1e-12)
    np.testing.assert_allclose(mean_gram, (np.abs(g) ** 2).mean(axis=0), rtol=1e-12)
    if trials == 1:
        assert mc.standard_error == mc.single_pol_standard_error == 0.0
        return
    root = np.sqrt(trials)
    assert mc.standard_error == pytest.approx(dual.std(ddof=1) / root, rel=1e-9)
    assert mc.single_pol_standard_error == pytest.approx(single.std(ddof=1) / root, rel=1e-9)
    zero = rows.max(axis=0) == 0.0
    # a dead entry has no power, and the single-polarized link is dead with
    # m11 (xpd 1)
    assert np.all(mean_gram[zero] == 0.0)
    if zero[0]:
        assert mc.single_pol_estimate == mc.single_pol_standard_error == 0.0


@pytest.mark.parametrize("draws", [None, 1, 7, 1000])
def test_per_draw_coefficients_give_the_per_trial_bits(draws):
    # trial t takes draw t mod D: the estimates and the moments' means have
    # the bits of one draw per trial, the moments gathered to the trials
    # beforehand, for one configuration (4,), a (1, 4) ensemble, and
    # ensembles whose draws do not divide the trials
    trials = 3001
    shape = 4 if draws is None else (draws, 4)
    moments = np.random.default_rng(11).uniform(0.1, 2.0, shape)
    rows = moments.reshape(-1, 4)
    gathered = rows[np.arange(trials) % len(rows)]
    for_each = capacity.ergodic_capacity_mc(gathered, 0.35, 70.0, trials, 5)
    assert capacity.ergodic_capacity_mc(moments, 0.35, 70.0, trials, 5) == for_each
    np.testing.assert_array_equal(
        capacity.mc_moments(moments, trials, 5), capacity.mc_moments(gathered, trials, 5)
    )


def test_capacity_report_is_jensen_consistent(capsys):
    argv = ["--set", "elements=16", "--set", "trials=3000", "--set", "master_seed=12"]
    values = cli_report(capsys, argv)
    mc, se, bound = (float(values[key]) for key in ("dual_mc_bits", "dual_mc_se", "dual_ub_bits"))
    assert mc <= bound + 3.0 * se
    assert (values["trials"], values["master_seed"]) == ("3000", "12")
    assert float(values["o_v"]) > 0.0 and float(values["o_h"]) > 0.0


def test_capacity_report_bound_describes_its_configuration(capsys):
    # the report's bound and Monte Carlo describe the configurations it
    # simulates: the aligned closed form, or the per-draw oracle over the
    # random_phase_draws ensemble; compared at the report's printed digits
    base = scen.Scenario(elements=16, power_dbm=43.0, phase_seed=5, random_phase_draws=60)
    for scheme in ("random", "optimal"):
        current = base.replace(phase_scheme=scheme)
        model = scen.build_link_model(current)
        argv = ["--set", "elements=16", "--set", "power_dbm=43", "--set", "trials=240"]
        argv += ["--set", "master_seed=1", "--set", f"phase_scheme={scheme}"]
        argv += ["--set", "phase_seed=5", "--set", "random_phase_draws=60"]
        values = cli_report(capsys, argv)
        if scheme == "optimal":
            expected = oracles.closed_form_upper_bound(
                *model.forms.tolist(), 0.5, model.snr, current.xpd_coeff
            )
        else:
            expected, mc = oracles.random_row_per_draw(
                current.replace(trials=240, master_seed=1), 0.5
            )
            assert format(float(values["dual_mc_bits"]), ".10g") == format(mc, ".10g")
        assert format(float(values["dual_ub_bits"]), ".10g") == format(expected, ".10g")


@pytest.mark.parametrize("scheme", ["optimal", "random"])
def test_cli_capacity_matches_one_row_sweep(capsys, scheme):
    pairs = {
        "elements": "16",
        "power_dbm": "43",
        "phase_seed": "5",
        "random_phase_draws": "200",
        "trials": "2000",
    }
    outputs = ", ".join(cli.REPORT)
    spec = sweep.parse_sweep_pairs(
        {"axis": "phase-scheme", "grid": scheme, "outputs": outputs, **pairs}
    )
    result = sweep.run_sweep(spec)
    (row,) = result.rows
    assert row["status"] == "ok"
    argv = ["--set", f"phase_scheme={scheme}"]
    for key, value in pairs.items():
        argv += ["--set", f"{key}={value}"]
    values = cli_report(capsys, argv)
    # every column the report prints, and only those, as the row's CSV cells
    columns = result.columns[1:-2]
    assert [key for key in values if key not in vars(scen.Scenario())] == list(columns)
    for column in columns:
        assert values[column] == sweep.format_cell(row[column], column)


def test_expected_moments_match_aligned_closed_form(table_scenario_16):
    # the moments under the aligning phases, which the package never
    # builds, against the moments it builds from O_V and O_H
    for scheme in ("optimal", "optimal-with-adjustment"):
        scenario = table_scenario_16.replace(phase_scheme=scheme)
        model = scen.build_link_model(scenario)
        l = scenario.xpd_coeff
        o_v, o_h = model.forms.tolist()
        expected = np.array([(1 - l) * o_v, l * o_h, l * o_v, (1 - l) * o_h])
        np.testing.assert_allclose(moments_of(scenario), expected, rtol=1e-9)
        # an aligned point's moments are built from O, with no further FFT
        np.testing.assert_array_equal(model.moments, expected)
