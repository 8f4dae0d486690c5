import numpy as np
import pytest

from dpris import capacity, geometry, ris, scenario as scen
from dpris.exceptions import DegenerateGeometryError

import oracles
from conftest import PITCH, WAVELENGTH

#: Normal-incidence phase shift phi0 = pi/2.
QUARTER = np.pi / 2


def amplitudes(geo, position, phase=QUARTER, tau_offset=0.0):
    """The package's (V, H) amplitudes for a feed at ``position``."""
    rays, distances = geometry.rays_to(geo, np.asarray(position, dtype=float), "feed")
    return ris.element_amplitudes(rays, distances, phase, tau_offset)


def test_amplitude_zero_at_zero_tau():
    for elevation in (0.0, 0.3, 1.2):
        assert oracles.reflection_amplitude(QUARTER, elevation, 0.0) == 0.0


def test_amplitude_even_in_tau():
    rng = np.random.default_rng(2)
    for _ in range(50):
        elevation = rng.uniform(0.0, 1.5)
        tau = rng.uniform(0.0, 5.0)
        plus = oracles.reflection_amplitude(QUARTER, elevation, tau)
        minus = oracles.reflection_amplitude(QUARTER, elevation, -tau)
        assert plus == pytest.approx(minus, abs=1e-15)


def test_amplitude_reference_value():
    # phi0 = pi/2, xi = 0, tau = 1: |exp(2j atan 2) - 1| / 2 = 2/sqrt(5)
    value = oracles.reflection_amplitude(QUARTER, 0.0, 1.0)
    assert value == pytest.approx(0.8944271909999159, rel=1e-12)


def test_amplitude_bounded_unit_interval():
    rng = np.random.default_rng(5)
    for _ in range(200):
        phase = rng.uniform(-2.8, 2.8)
        value = oracles.reflection_amplitude(phase, rng.uniform(0, 1.5), rng.uniform(-10, 10))
        assert 0.0 <= value <= 1.0


def test_amplitude_rejects_grazing_and_bad_phase():
    with pytest.raises(ValueError):
        oracles.reflection_amplitude(QUARTER, np.pi / 2, 0.5)
    # a feed 1e-20 m off the surface plane sees elevation pi/2 in floats
    geo = geometry.build_ris_grid(1, 1, PITCH, WAVELENGTH)
    with pytest.raises(DegenerateGeometryError):
        amplitudes(geo, [-1e-20, 0.1, 0.0])
    # phi0 = pi (mod 2 pi) is rejected when the scenario is made, and the
    # error names the field
    for degrees in (180.0, 540.0, -180.0):
        with pytest.raises(ValueError, match="normal_incidence_phase_deg"):
            scen.Scenario(normal_incidence_phase_deg=degrees)


def test_element_amplitudes_match_scalar_oracle():
    # the properties above hold for the scalar map; the package's
    # vectorized map must agree with it element by element
    rng = np.random.default_rng(6)
    geo = geometry.build_ris_grid(4, 5, PITCH, WAVELENGTH)
    for _ in range(10):
        phase, offset = rng.uniform(-2.8, 2.8), rng.uniform(-1, 1)
        position = np.array([-rng.uniform(0.02, 0.3), *rng.uniform(-0.2, 0.2, 2)])
        a_v, a_h = amplitudes(geo, position, phase, offset)
        for index in range(geo.element_count):
            dec = oracles.incidence_decomposition(geo, position, index)
            for value, tau in ((a_v[index], dec.tau_v), (a_h[index], dec.tau_h)):
                expected = oracles.reflection_amplitude(phase, dec.elevation, tau + offset)
                assert value == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_element_amplitudes_on_axis_single_element():
    geo = geometry.build_ris_grid(1, 1, PITCH, WAVELENGTH)
    a_v, a_h = amplitudes(geo, [-0.05, 0, 0])
    assert a_v[0] == 0.0
    assert a_h[0] == 0.0


def test_element_amplitudes_oblique_polarizations_differ():
    geo = geometry.build_ris_grid(4, 4, PITCH, WAVELENGTH)
    position = geometry.spherical_to_cartesian(0.1, np.pi / 3, np.pi)
    a_v, a_h = amplitudes(geo, position)
    assert not np.allclose(a_v, a_h)
    # feed tilted toward +z favors the V polarization under the default
    # convention
    assert a_v.mean() > a_h.mean()


def test_element_amplitudes_mirror_invariance():
    geo = geometry.build_ris_grid(3, 3, PITCH, WAVELENGTH)
    base = np.array([-0.07, 0.03, 0.02])
    mirrored = base * np.array([1.0, -1.0, 1.0])
    a_v, a_h = amplitudes(geo, base)
    b_v, b_h = amplitudes(geo, mirrored)
    # mirroring the feed across the x-z plane re-pairs elements column-wise
    flip = np.arange(9).reshape(3, 3)[:, ::-1].ravel()
    np.testing.assert_allclose(b_v[flip], a_v, atol=1e-12)
    np.testing.assert_allclose(b_h[flip], a_h, atol=1e-12)


def test_element_amplitudes_tau_offset():
    geo = geometry.build_ris_grid(1, 1, PITCH, WAVELENGTH)
    a_v, _ = amplitudes(geo, [-0.05, 0, 0], tau_offset=1.0)
    assert a_v[0] == pytest.approx(0.8944271909999159, rel=1e-12)


def test_optimal_phases_single_element_at_wavelength():
    geo = geometry.build_ris_grid(1, 1, PITCH, WAVELENGTH)
    phases_v, phases_h = oracles.optimal_phases(geo, [-WAVELENGTH, 0.0, 0.0])
    assert phases_v[0] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_array_equal(phases_v, phases_h)


def test_optimal_phases_align_reflections():
    geo = geometry.build_ris_grid(10, 10, PITCH, WAVELENGTH)
    position = [-0.05, 0.0, 0.0]
    b = oracles.feed_coefficients(geo, position)
    config = oracles.RisConfiguration(
        *amplitudes(geo, position), *oracles.optimal_phases(geo, position)
    )
    # every element's reflected contribution lands on the positive real axis
    for gamma in (config.gamma_v, config.gamma_h):
        assert np.max(np.abs(np.angle(gamma * b))) < 1e-9


def test_phase_adjustment_offsets():
    geo = geometry.build_ris_grid(4, 4, PITCH, WAVELENGTH)
    position = [-0.05, 0.01, 0.0]
    base_v, base_h = oracles.aligned_phases("optimal", geo, position)
    adj_v, adj_h = oracles.aligned_phases("optimal-with-adjustment", geo, position)
    # the feed carries no per-polarization phase, so the adjustment offsets
    # are zero and both polarizations share one phase vector
    np.testing.assert_array_equal(adj_v, base_v)
    np.testing.assert_array_equal(adj_h, base_h)
    np.testing.assert_array_equal(base_v, base_h)
    with pytest.raises(ValueError):
        oracles.aligned_phases("random", geo, position)


def test_random_phase_determinism():
    first = ris.random_phases(16, 123)
    assert first.shape == (2, 16)
    np.testing.assert_array_equal(first, ris.random_phases(16, 123))
    # one (2, N) draw is two successive N-draws of the seed's stream
    rng = np.random.default_rng(123)
    np.testing.assert_array_equal(first[0], rng.uniform(0.0, 2 * np.pi, 16))
    np.testing.assert_array_equal(first[1], rng.uniform(0.0, 2 * np.pi, 16))
    assert not np.array_equal(first[0], ris.random_phases(16, 124)[0])


def test_phase_strategy_rejects_unknown_kind():
    # names are checked when a scenario is made, and the error names the field
    for field in ("phase_scheme", "incidence_convention"):
        with pytest.raises(ValueError, match=field):
            scen.Scenario(**{field: "waterfilling"})
        with pytest.raises(ValueError, match=field):
            scen.parse_overrides(scen.Scenario(), {field: "waterfilling"})


def test_configuration_validation():
    ones = np.ones(4)
    with pytest.raises(ValueError):
        oracles.RisConfiguration(ones, ones * 1.5, ones, ones)
    with pytest.raises(ValueError):
        oracles.RisConfiguration(ones, ones[:3], ones, ones)
    # the moment kernel takes a (2, N) surface and at least one draw of its
    # shape
    parts = oracles.link_parts(scen.Scenario(elements=4))
    surface = parts.config.surface(parts)
    draw = np.zeros((2, 4))
    for bad_surface, draws in [
        (surface[:, :3], [draw]),
        (surface[0], [draw]),
        (surface, [draw[0]]),
        (surface, [draw, draw[:, :3]]),
        (surface, []),
    ]:
        with pytest.raises(ValueError):
            capacity.expected_gram_moments(bad_surface, draws, parts.spectrum, parts.xpd_coeff)


def test_random_phase_bound_never_beats_aligned_bound():
    base = scen.Scenario(elements=16)
    model = scen.build_link_model(base)
    parts = oracles.link_parts(base)
    aligned = capacity.moment_upper_bound(model.moments, 0.5, model.snr)
    for seed in range(30):
        config = oracles.RisConfiguration(
            parts.config.amplitudes_v, parts.config.amplitudes_h, *ris.random_phases(16, seed)
        )
        moments = config.moments(parts)
        randomized = capacity.moment_upper_bound(moments, 0.5, model.snr)
        assert randomized <= aligned + 1e-12
