import numpy as np
import pytest

from dpris import capacity, feed, geometry, ris, scenario as scen
from dpris.exceptions import DegenerateGeometryError

import oracles
from conftest import PITCH, WAVELENGTH

ON_AXIS = np.array([-0.05, 0.0, 0.0])
PLUS_X = np.array([1.0, 0.0, 0.0])


def propagation(geo, gain=10.0, position=ON_AXIS, boresight=PLUS_X):
    """The package's feed coefficients of a feed at ``position``."""
    return oracles.feed_coefficients(geo, position, boresight, gain)


def random_front_directions(rng, count):
    directions = rng.standard_normal((count, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    directions[:, 0] = np.abs(directions[:, 0])
    return directions


def test_feed_gain_flat_for_minimum_gain():
    rng = np.random.default_rng(0)
    for value in feed.feed_gains(PLUS_X, 2.0, random_front_directions(rng, 20)):
        assert value == pytest.approx(2.0, rel=1e-15)


def test_feed_gain_boresight_equals_gain():
    assert feed.feed_gains(PLUS_X, 10.0, PLUS_X[None, :])[0] == pytest.approx(10.0, rel=1e-15)


def test_feed_gain_back_hemisphere_is_zero():
    rng = np.random.default_rng(1)
    back = random_front_directions(rng, 20)
    back[:, 0] *= -1.0
    assert np.all(feed.feed_gains(PLUS_X, 7.0, back) == 0.0)
    for direction in back:
        assert oracles.feed_gain(PLUS_X, 7.0, direction) == 0.0


def test_feed_spec_validation():
    # the feed's gain and boresight are checked when the scenario is made,
    # and the error names the field: a linear gain below 2 (1.5 is
    # 1.76 dB), one that overflows, and a boresight (1, 1, 0)
    for field, value in (
        ("feed_gain_db", 1.76),
        ("feed_gain_db", 4000.0),
        ("boresight_deg", "45,45,0"),
    ):
        with pytest.raises(ValueError, match=field):
            scen.Scenario(**{field: value})
    assert scen.Scenario(feed_gain_db=3.0103).feed_gain_db == 3.0103  # kappa = 2


def test_boresight_from_angles():
    # the angles (0, 90, 90) point the feed along +x, as steering it at the
    # surface center does from the default placement; angles whose cosines
    # do not form a unit vector are rejected when the scenario is made
    along_x = scen.build_link_model(scen.Scenario(elements=16))
    steered = scen.build_link_model(scen.Scenario(elements=16, boresight_deg="origin"))
    np.testing.assert_allclose(steered.moments, along_x.moments, rtol=1e-12)
    for value in ("0,0,0", "0,90", "a,b,c"):
        with pytest.raises(ValueError, match="boresight_deg"):
            scen.Scenario(boresight_deg=value)


def test_nusw_on_axis_magnitude():
    # single broadside element: |b|^2 = kappa * s_R / (4 pi D^2)
    geo = geometry.build_ris_grid(1, 1, PITCH, WAVELENGTH)
    value = propagation(geo)[0]
    assert abs(value) ** 2 == pytest.approx(4.6773869386451463e-3, rel=1e-12)


def test_nusw_phase_tracks_distance():
    geo = geometry.build_ris_grid(10, 10, PITCH, WAVELENGTH)
    b = propagation(geo)
    distances = np.linalg.norm(ON_AXIS[None, :] - geo.element_positions, axis=1)
    expected = np.exp(-2j * np.pi * distances / WAVELENGTH)
    np.testing.assert_allclose(b / np.abs(b), expected, atol=1e-12)


def test_nusw_inverse_square_scaling():
    geo = geometry.build_ris_grid(1, 1, PITCH, WAVELENGTH)
    near = abs(propagation(geo, position=np.array([-0.05, 0.0, 0.0]))[0]) ** 2
    far = abs(propagation(geo, position=np.array([-0.15, 0.0, 0.0]))[0]) ** 2
    # broadside element, gain fixed at boresight: power scales as 1/D^2
    assert far == pytest.approx(near / 9.0, rel=1e-12)


def test_nusw_rejects_feed_behind_surface():
    geo = geometry.build_ris_grid(2, 2, PITCH, WAVELENGTH)
    with pytest.raises(DegenerateGeometryError):
        propagation(geo, position=np.array([0.05, 0.0, 0.0]))
    with pytest.raises(DegenerateGeometryError):
        propagation(geo, position=np.array([0.0, 0.1, 0.0]))
    # a feed on an element, whose rays have no direction
    with pytest.raises(DegenerateGeometryError, match="feed coincides"):
        propagation(geo, position=geo.element_positions[0])


def test_propagation_matrix_single_element_reduction():
    geo = geometry.build_ris_grid(1, 1, PITCH, WAVELENGTH)
    b = propagation(geo)
    assert b.shape == (1,) and not b.flags.writeable
    expected = oracles.nusw_coefficient(geo, ON_AXIS, PLUS_X, 10.0, 0)
    assert b[0] == pytest.approx(expected, rel=1e-12)


def test_propagation_matrix_matches_scalar_oracle():
    rng = np.random.default_rng(12)
    for _ in range(10):
        rows, cols = (int(k) for k in rng.integers(1, 6, 2))
        geo = geometry.build_ris_grid(rows, cols, PITCH, WAVELENGTH)
        gain = float(rng.uniform(2.0, 50.0))
        position = np.array([-rng.uniform(0.01, 0.3), *rng.uniform(-0.1, 0.1, 2)])
        b = propagation(geo, gain, position)
        for index in range(geo.element_count):
            expected = oracles.nusw_coefficient(geo, position, PLUS_X, gain, index)
            assert b[index] == pytest.approx(expected, rel=1e-12)


def test_constant_polarization_phase_leaves_moments_unchanged():
    # a fixed feeding phase per polarization rotates that polarization's
    # surface vector by a constant, which cancels in every moment, aligned
    # or under random phases; so the feed carries none
    rotations = [(np.pi / 2, 0.0), (0.0, np.pi / 4), (np.pi / 2, np.pi / 4), (2.9, -1.3)]
    for elements in (16, 400):
        parts = oracles.link_parts(scen.Scenario(elements=elements, feed_zenith_deg=60.0))
        surface = parts.config.surface(parts)
        draws = np.stack([ris.random_phases(elements, seed) for seed in range(20)])

        def moments(s):
            o = capacity.compute_O(s, parts.spectrum)
            aligned = capacity.moment_layout(o, parts.xpd_coeff)
            random = capacity.expected_gram_moments(s, draws, parts.spectrum, parts.xpd_coeff)
            return np.vstack([aligned, random])

        reference = moments(surface)
        assert np.all(reference > 0.0)
        for phases in rotations:
            rotated = surface * np.exp(1j * np.array(phases))[:, None]
            np.testing.assert_allclose(moments(rotated), reference, rtol=1e-15, atol=0)


def test_captured_power_fraction_empty_and_bounded():
    assert feed.captured_power_fraction(np.zeros(0, dtype=complex)) == 0.0
    rng = np.random.default_rng(9)
    for _ in range(15):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        geo = geometry.build_ris_grid(rows, cols, PITCH, WAVELENGTH)
        gain = float(rng.uniform(2.0, 200.0))
        position = np.array(
            [-rng.uniform(0.01, 0.3), rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)]
        )
        fraction = feed.captured_power_fraction(propagation(geo, gain, position))
        assert 0.0 < fraction <= 1.0


def test_captured_power_fraction_monotone_in_gain():
    geo = geometry.build_ris_grid(10, 10, PITCH, WAVELENGTH)
    gains = np.geomspace(2.0, 200.0, 12)
    fractions = [feed.captured_power_fraction(propagation(geo, g)) for g in gains]
    assert np.all(np.diff(fractions) > 0)
    assert fractions[-1] <= 1.0


@pytest.mark.parametrize("kappa", [2.0, 4.0, 10.0, 100.0])
def test_pattern_hemisphere_normalization(kappa):
    integral = oracles.pattern_hemisphere_integral(PLUS_X, kappa, theta_nodes=128, phi_nodes=128)
    assert integral == pytest.approx(4.0 * np.pi, rel=1e-3)


def test_pattern_normalization_oblique_boresight():
    tilted = np.array([0.6, 0.0, 0.8])
    integral = oracles.pattern_hemisphere_integral(tilted, 25.0, theta_nodes=160, phi_nodes=160)
    assert integral == pytest.approx(4.0 * np.pi, rel=1e-3)
