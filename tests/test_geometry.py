import numpy as np
import pytest

from dpris import geometry, scenario as scen
from dpris.exceptions import DegenerateGeometryError

import oracles
from conftest import PITCH, WAVELENGTH


def positions_of(grid):
    """The (N, 3) positions of the grid's axes, row-major."""
    z, y = grid
    return np.column_stack([np.zeros(z.size * y.size), np.tile(y, z.size), np.repeat(z, y.size)])


def test_single_element_grid():
    z, y = geometry.build_ris_grid(1, 1, PITCH)
    assert z.shape == (1, 1) and y.shape == (1,)
    assert z[0, 0] == 0.0 and y[0] == 0.0
    # the element area the feed reads is pitch^2
    assert PITCH * PITCH == pytest.approx(WAVELENGTH**2 / 9.0, rel=1e-15)


def test_grid_counting_and_aperture():
    z, y = geometry.build_ris_grid(10, 10, PITCH)
    assert z.shape == (10, 1) and y.shape == (10,)
    # total aperture 100 * (lambda/3)^2 = (10 lambda / 3)^2
    assert z.size * y.size * PITCH * PITCH == pytest.approx((10 * WAVELENGTH / 3.0) ** 2, rel=1e-12)
    # centered: each axis has its mean at the origin
    assert abs(z.mean()) < 1e-15 and abs(y.mean()) < 1e-15


def test_two_element_pitch():
    z, y = geometry.build_ris_grid(2, 1, 0.5 * WAVELENGTH)
    assert z.shape == (2, 1) and np.array_equal(y, [0.0])
    assert z[1, 0] - z[0, 0] == pytest.approx(0.5 * WAVELENGTH, rel=1e-15)


def test_grid_planarity_and_adjacent_spacing():
    rows, cols = 5, 7
    grid = geometry.build_ris_grid(rows, cols, PITCH)
    # the axes are the (N, 3) oracle's positions, row-major, every x zero
    positions = oracles.grid_positions(rows, cols, PITCH)
    np.testing.assert_array_equal(positions_of(grid), positions)
    # horizontally adjacent elements (same row) sit exactly one pitch apart
    for row in range(rows):
        for col in range(cols - 1):
            n = row * cols + col
            gap = np.linalg.norm(positions[n + 1] - positions[n])
            assert gap == pytest.approx(PITCH, rel=1e-12)


def test_rays_match_the_position_oracle():
    # the broadcast rays are the (N, 3) oracle's rays, component by
    # component and length by length, bit for bit
    rng = np.random.default_rng(7)
    for _ in range(20):
        rows, cols = (int(k) for k in rng.integers(1, 8, 2))
        pitch = rng.uniform(0.2, 1.5) * WAVELENGTH
        point = rng.uniform(-1.0, 1.0, 3) * rng.uniform(0.01, 10.0)
        (x, dy, dz), distances = geometry.rays_to(
            geometry.build_ris_grid(rows, cols, pitch), point, "feed"
        )
        assert distances.shape == (rows, cols)
        rays, expected = oracles.rays_to(oracles.grid_positions(rows, cols, pitch), point, "feed")
        np.testing.assert_array_equal(distances.ravel(), expected)
        components = np.broadcast_arrays(x, dy, dz)
        np.testing.assert_array_equal(np.column_stack([c.ravel() for c in components]), rays)


def test_grid_rejects_bad_arguments():
    # the grid's size, pitch and wavelength are checked when the scenario
    # is made, and the error names the field
    for field, value in (
        ("elements", 0),
        ("elements", 15),
        ("pitch_wavelengths", -1.0 / 3.0),
        ("wavelength_m", 0.0),
        ("wavelength_m", -1.0),
    ):
        with pytest.raises(ValueError, match=field):
            scen.Scenario(**{field: value})


def test_spherical_to_cartesian_feed_placement():
    point = geometry.spherical_to_cartesian(0.05, 90.0, 180.0)
    assert np.allclose(point, [-0.05, 0.0, 0.0], atol=1e-15)
    # the azimuth in degrees wraps: whole turns away is the same point
    for turns in (-2, 1, 3):
        wrapped = geometry.spherical_to_cartesian(0.05, 90.0, 180.0 + 360.0 * turns)
        np.testing.assert_allclose(wrapped, point, rtol=0, atol=1e-15)


def test_spherical_to_cartesian_pole_and_ue():
    pole = geometry.spherical_to_cartesian(1.0, 0.0, 70.5)
    assert np.allclose(pole, [0.0, 0.0, 1.0], atol=1e-15)
    ue = geometry.spherical_to_cartesian(50.0, 60.0, 0.0)
    assert np.allclose(ue, [25.0 * np.sqrt(3.0), 0.0, 25.0], rtol=1e-14)


def test_spherical_placement_validation():
    # radii and zenith angles are checked when the scenario is made, and
    # the error names the field; azimuths wrap
    for field, value in (
        ("feed_r_m", 0.0),
        ("feed_r_m", -1.0),
        ("ue_r_m", 0.0),
        ("feed_zenith_deg", -0.1),
        ("feed_zenith_deg", 200.0),
        ("ue_zenith_deg", -5.0),
    ):
        with pytest.raises(ValueError, match=field):
            scen.Scenario(**{field: value})
    for field in ("feed_zenith_deg", "ue_zenith_deg"):
        for edge in (0.0, 180.0):
            assert getattr(scen.Scenario(**{field: edge}), field) == edge
    base = scen.build_link_model(scen.Scenario(elements=16))
    wrapped = scen.build_link_model(scen.Scenario(elements=16, feed_azimuth_deg=540.0))
    np.testing.assert_allclose(wrapped.moments, base.moments, rtol=1e-12)


def test_incidence_normal():
    # a feed on the normal through a lone element sends its ray along the
    # normal (the amplitudes there: test_element_amplitudes_on_axis_single_element
    # and test_element_amplitudes_tau_offset)
    grid = geometry.build_ris_grid(1, 1, PITCH)
    (x, dy, dz), distances = geometry.rays_to(grid, np.array([-0.05, 0.0, 0.0]), "feed")
    assert (x, dy.tolist(), dz.tolist()) == (-0.05, [0.0], [[0.0]])
    assert distances.shape == (1, 1) and distances[0, 0] == pytest.approx(0.05, rel=1e-15)


def test_incidence_mirror_symmetry():
    # mirroring the feed across the x-z plane mirrors the columns' rays and
    # lengths onto their partners' (the amplitudes:
    # test_element_amplitudes_mirror_invariance)
    grid = geometry.build_ris_grid(3, 3, PITCH)
    rng = np.random.default_rng(3)
    for _ in range(20):
        feed = np.array([-rng.uniform(0.02, 0.3), rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)])
        (x, dy, dz), distances = geometry.rays_to(grid, feed, "feed")
        (mx, my, mz), mirrored = geometry.rays_to(grid, feed * [1.0, -1.0, 1.0], "feed")
        assert (mx, mz.tolist()) == (x, dz.tolist())
        np.testing.assert_allclose(my[::-1], -dy, atol=1e-12)
        np.testing.assert_allclose(mirrored[:, ::-1], distances, rtol=1e-12)


def test_incidence_elevation_below_grazing():
    # a feed in front of the surface reaches every element from x < 0 (the
    # amplitudes: test_element_amplitudes_accept_every_feed_in_front)
    grid = geometry.build_ris_grid(4, 4, PITCH)
    rng = np.random.default_rng(4)
    for _ in range(50):
        feed = np.array([-rng.uniform(1e-3, 1.0), rng.uniform(-1, 1), rng.uniform(-1, 1)])
        (x, _, _), distances = geometry.rays_to(grid, feed, "feed")
        assert x < 0
        assert np.all(distances > 0)


def test_incidence_degenerate_inplane_feed():
    positions = oracles.grid_positions(2, 2, PITCH)
    # the package rejects an in-plane feed in ``feed.build_propagation_matrix``
    # (test_nusw_rejects_feed_behind_surface), before the amplitudes read a ray
    with pytest.raises(DegenerateGeometryError):
        oracles.incidence_decomposition(positions, np.array([0.0, 0.5, 0.1]), 0)
    # a point on an element has no direction from it
    for name in ("feed", "UE"):
        with pytest.raises(DegenerateGeometryError, match=f"{name} coincides"):
            geometry.rays_to(geometry.build_ris_grid(2, 2, PITCH), positions[3], name)


def test_incidence_index_bounds():
    positions = oracles.grid_positions(2, 2, PITCH)
    with pytest.raises(ValueError):
        oracles.incidence_decomposition(positions, np.array([-0.1, 0.0, 0.0]), 4)
