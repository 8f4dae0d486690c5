import numpy as np
import pytest

from dpris import capacity, feed, geometry, scenario as scen
from dpris.exceptions import DegenerateGeometryError

import oracles
from conftest import PITCH, WAVELENGTH

ON_AXIS = np.array([-0.05, 0.0, 0.0])
PLUS_X = np.array([1.0, 0.0, 0.0])


def propagation(grid, gain=10.0, position=ON_AXIS, boresight=PLUS_X):
    """The package's feed coefficients of a feed at ``position``, for
    elements of area pitch^2, listed row-major."""
    return oracles.feed_coefficients(grid, position, PITCH * PITCH, WAVELENGTH, boresight, gain)


def random_front_directions(rng, count):
    directions = rng.standard_normal((count, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    directions[:, 0] = np.abs(directions[:, 0])
    return directions


def test_feed_gain_flat_for_minimum_gain():
    rng = np.random.default_rng(0)
    for value in feed.feed_gains(random_front_directions(rng, 20) @ PLUS_X, 2.0):
        assert value == pytest.approx(2.0, rel=1e-15)


def test_feed_gain_boresight_equals_gain():
    assert feed.feed_gains(np.array([1.0]), 10.0)[0] == pytest.approx(10.0, rel=1e-15)


def test_feed_gain_back_hemisphere_is_zero():
    rng = np.random.default_rng(1)
    back = random_front_directions(rng, 20)
    back[:, 0] *= -1.0
    assert np.all(feed.feed_gains(back @ PLUS_X, 7.0) == 0.0)
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
    value = propagation(geometry.build_ris_grid(1, 1, PITCH))[0]
    assert abs(value) ** 2 == pytest.approx(4.6773869386451463e-3, rel=1e-12)


def test_nusw_phase_tracks_distance():
    b = propagation(geometry.build_ris_grid(10, 10, PITCH))
    positions = oracles.grid_positions(10, 10, PITCH)
    distances = np.linalg.norm(ON_AXIS[None, :] - positions, axis=1)
    expected = np.exp(-2j * np.pi * distances / WAVELENGTH)
    np.testing.assert_allclose(b / np.abs(b), expected, atol=1e-12)


def test_nusw_inverse_square_scaling():
    grid = geometry.build_ris_grid(1, 1, PITCH)
    near = abs(propagation(grid, position=np.array([-0.05, 0.0, 0.0]))[0]) ** 2
    far = abs(propagation(grid, position=np.array([-0.15, 0.0, 0.0]))[0]) ** 2
    # broadside element, gain fixed at boresight: power scales as 1/D^2
    assert far == pytest.approx(near / 9.0, rel=1e-12)


def test_nusw_rejects_feed_behind_surface():
    grid = geometry.build_ris_grid(2, 2, PITCH)
    for position in ([0.05, 0.0, 0.0], [0.0, 0.1, 0.0]):
        with pytest.raises(DegenerateGeometryError, match="element 0 has non-positive"):
            propagation(grid, position=np.array(position))
    # a feed on an element, whose rays have no direction
    with pytest.raises(DegenerateGeometryError, match="feed coincides"):
        propagation(grid, position=oracles.grid_positions(2, 2, PITCH)[0])


def test_propagation_matrix_single_element_reduction():
    grid = geometry.build_ris_grid(1, 1, PITCH)
    positions = oracles.grid_positions(1, 1, PITCH)
    b = propagation(grid)
    # the package's magnitudes are read-only and real, on the grid; the
    # phase is apart
    rays, distances = geometry.rays_to(grid, ON_AXIS, "feed")
    magnitudes = feed.build_propagation_matrix(rays, distances, PITCH * PITCH, PLUS_X, 10.0)
    assert magnitudes.shape == (1, 1) and magnitudes.dtype == float
    assert not magnitudes.flags.writeable
    expected = oracles.nusw_coefficient(
        positions, ON_AXIS, PITCH * PITCH, WAVELENGTH, PLUS_X, 10.0, 0
    )
    assert b[0] == pytest.approx(expected, rel=1e-12)


def test_propagation_matrix_matches_scalar_oracle():
    rng = np.random.default_rng(12)
    for _ in range(10):
        rows, cols = (int(k) for k in rng.integers(1, 6, 2))
        positions = oracles.grid_positions(rows, cols, PITCH)
        gain = float(rng.uniform(2.0, 50.0))
        position = np.array([-rng.uniform(0.01, 0.3), *rng.uniform(-0.1, 0.1, 2)])
        b = propagation(geometry.build_ris_grid(rows, cols, PITCH), gain, position)
        for index in range(len(positions)):
            expected = oracles.nusw_coefficient(
                positions, position, PITCH * PITCH, WAVELENGTH, PLUS_X, gain, index
            )
            assert b[index] == pytest.approx(expected, rel=1e-12)


def test_constant_polarization_phase_leaves_moments_unchanged():
    # a fixed feeding phase per polarization rotates that polarization's
    # surface vector by a constant, which cancels in every moment, aligned
    # or under random phases; so the feed carries none
    rotations = [(np.pi / 2, 0.0), (0.0, np.pi / 4), (np.pi / 2, np.pi / 4), (2.9, -1.3)]
    for elements in (16, 400):
        parts = oracles.link_parts(scen.Scenario(elements=elements, feed_zenith_deg=60.0))
        surface = parts.config.surface(parts)
        side = int(np.sqrt(elements))
        draws = np.stack([oracles.random_phases(side, side, seed) for seed in range(20)])

        def moments(s):
            o = capacity.compute_O(s, parts.spectrum)
            aligned = capacity.moment_layout(o, parts.xpd_coeff)
            q = oracles.fft2_draw_forms(s, draws, parts.spectrum)
            random = capacity.moment_layout(q, parts.xpd_coeff)
            return np.vstack([aligned, random])

        reference = moments(surface)
        assert np.all(reference > 0.0)
        for phases in rotations:
            rotated = surface * np.exp(1j * np.array(phases))[:, None, None]
            np.testing.assert_allclose(moments(rotated), reference, rtol=1e-15, atol=0)


def captured_power_fraction(b):
    """Share of the radiated feed power the surface intercepts, sum |b_n|^2."""
    return float(np.sum(np.abs(b) ** 2))


def test_captured_power_fraction_empty_and_bounded():
    # energy conservation bounds the intercepted share by 1
    rng = np.random.default_rng(9)
    for _ in range(15):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        grid = geometry.build_ris_grid(rows, cols, PITCH)
        gain = float(rng.uniform(2.0, 200.0))
        position = np.array(
            [-rng.uniform(0.01, 0.3), rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)]
        )
        fraction = captured_power_fraction(propagation(grid, gain, position))
        assert 0.0 < fraction <= 1.0


def test_captured_power_fraction_monotone_in_gain():
    grid = geometry.build_ris_grid(10, 10, PITCH)
    gains = np.geomspace(2.0, 200.0, 12)
    fractions = [captured_power_fraction(propagation(grid, g)) for g in gains]
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
