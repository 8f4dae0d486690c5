import numpy as np
import pytest

from dpris import geometry, scenario as scen
from dpris.exceptions import DegenerateGeometryError

import oracles
from conftest import PITCH, WAVELENGTH


def test_single_element_grid():
    geo = geometry.build_ris_grid(1, 1, PITCH, WAVELENGTH)
    assert geo.element_count == 1
    assert np.array_equal(geo.element_positions, np.zeros((1, 3)))
    assert geo.element_area == pytest.approx(WAVELENGTH**2 / 9.0, rel=1e-15)


def test_grid_counting_and_aperture():
    geo = geometry.build_ris_grid(10, 10, PITCH, WAVELENGTH)
    assert geo.element_count == 100
    assert geo.element_positions.shape == (100, 3)
    # total aperture 100 * (lambda/3)^2 = (10 lambda / 3)^2
    assert geo.element_count * geo.element_area == pytest.approx((10 * WAVELENGTH / 3.0) ** 2, rel=1e-12)
    # centered: position mean at the origin
    assert np.allclose(geo.element_positions.mean(axis=0), 0.0, atol=1e-15)


def test_two_element_pitch():
    geo = geometry.build_ris_grid(2, 1, 0.5 * WAVELENGTH, WAVELENGTH)
    assert geo.element_count == 2
    separation = np.linalg.norm(geo.element_positions[1] - geo.element_positions[0])
    assert separation == pytest.approx(0.5 * WAVELENGTH, rel=1e-15)


def test_grid_planarity_and_adjacent_spacing():
    geo = geometry.build_ris_grid(5, 7, PITCH, WAVELENGTH)
    assert np.all(geo.element_positions[:, 0] == 0.0)
    # horizontally adjacent elements (same row) sit exactly one pitch apart
    for row in range(geo.rows):
        for col in range(geo.cols - 1):
            n = row * geo.cols + col
            gap = np.linalg.norm(geo.element_positions[n + 1] - geo.element_positions[n])
            assert gap == pytest.approx(geo.pitch, rel=1e-12)


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
    point = geometry.spherical_to_cartesian(0.05, np.pi / 2, np.pi)
    assert np.allclose(point, [-0.05, 0.0, 0.0], atol=1e-15)


def test_spherical_to_cartesian_pole_and_ue():
    pole = geometry.spherical_to_cartesian(1.0, 0.0, 1.23)
    assert np.allclose(pole, [0.0, 0.0, 1.0], atol=1e-15)
    ue = geometry.spherical_to_cartesian(50.0, np.pi / 3, 0.0)
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


def decompositions(geo, feed, convention=geometry.axis_plane_tilt):
    """(elevations, tau_v, tau_h, distances) of every element, from the
    feed's rays traced once."""
    rays, distances = geometry.rays_to(geo, feed, "feed")
    return (*geometry.incidence_decompositions(rays, distances, convention), distances)


def decomposition(geo, feed, index=0, convention=geometry.axis_plane_tilt):
    """(elevation, tau_v, tau_h, distance) of one element, vectorized path."""
    return [float(part[index]) for part in decompositions(geo, feed, convention)]


def test_incidence_normal():
    geo = geometry.build_ris_grid(1, 1, PITCH, WAVELENGTH)
    elevation, tau_v, tau_h, distance = decomposition(geo, np.array([-0.05, 0.0, 0.0]))
    assert elevation == 0.0
    assert tau_v == 0.0
    assert tau_h == 0.0
    assert distance == pytest.approx(0.05, rel=1e-15)


def test_incidence_conventions_differ_by_axis():
    # feed at 45 degrees within the x-y plane: the tilt lives in the plane
    # of the H dipole axis under the default convention, of V under the
    # alternate one
    geo = geometry.build_ris_grid(1, 1, PITCH, WAVELENGTH)
    feed = np.array([-1.0, 1.0, 0.0]) / np.sqrt(2.0) * 0.3
    elevation, tau_v, tau_h, _ = decomposition(geo, feed)
    assert elevation == pytest.approx(np.pi / 4, rel=1e-12)
    assert tau_v == pytest.approx(0.0, abs=1e-15)
    assert tau_h == pytest.approx(1.0, rel=1e-12)
    _, alt_v, alt_h, _ = decomposition(geo, feed, convention=geometry.transverse_plane_tilt)
    assert alt_v == pytest.approx(1.0, rel=1e-12)
    assert alt_h == pytest.approx(0.0, abs=1e-15)
    # symmetric case in the x-z plane swaps the roles
    feed_z = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0) * 0.3
    _, z_v, z_h, _ = decomposition(geo, feed_z)
    assert z_v == pytest.approx(1.0, rel=1e-12)
    assert z_h == pytest.approx(0.0, abs=1e-15)


def test_incidence_mirror_symmetry():
    geo = geometry.build_ris_grid(3, 3, PITCH, WAVELENGTH)
    rng = np.random.default_rng(3)
    # mirroring across the x-z plane changes element pairing, so compare
    # each element against its mirrored partner
    row, col = np.divmod(np.arange(geo.element_count), geo.cols)
    partner = row * geo.cols + (geo.cols - 1 - col)
    for _ in range(20):
        feed = np.array([-rng.uniform(0.02, 0.3), rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)])
        mirrored = feed * np.array([1.0, -1.0, 1.0])
        a = decompositions(geo, feed)
        b = decompositions(geo, mirrored)
        for a_part, b_part in zip(a[:3], b[:3]):
            np.testing.assert_allclose(b_part[partner], a_part, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b[3][partner], a[3], rtol=1e-12)


def test_incidence_decompositions_match_scalar_oracle():
    geo = geometry.build_ris_grid(4, 5, PITCH, WAVELENGTH)
    rng = np.random.default_rng(11)
    for convention in (geometry.axis_plane_tilt, geometry.transverse_plane_tilt):
        for _ in range(10):
            feed = np.array([-rng.uniform(0.02, 0.3), *rng.uniform(-0.2, 0.2, 2)])
            vectorized = decompositions(geo, feed, convention)
            for index in range(geo.element_count):
                scalar = oracles.incidence_decomposition(geo, feed, index, convention)
                expected = (scalar.elevation, scalar.tau_v, scalar.tau_h, scalar.distance)
                for part, value in zip(vectorized, expected):
                    assert part[index] == pytest.approx(value, rel=1e-12, abs=1e-15)


def test_incidence_elevation_below_grazing():
    geo = geometry.build_ris_grid(4, 4, PITCH, WAVELENGTH)
    rng = np.random.default_rng(4)
    for _ in range(50):
        feed = np.array([-rng.uniform(1e-3, 1.0), rng.uniform(-1, 1), rng.uniform(-1, 1)])
        elevations, _, _, distances = decompositions(geo, feed)
        assert np.all(elevations < np.pi / 2)
        assert np.all(distances > 0)


def test_incidence_degenerate_inplane_feed():
    geo = geometry.build_ris_grid(2, 2, PITCH, WAVELENGTH)
    with pytest.raises(DegenerateGeometryError):
        oracles.incidence_decomposition(geo, np.array([0.0, 0.5, 0.1]), 0)
    with pytest.raises(DegenerateGeometryError):
        decompositions(geo, np.array([0.0, 0.5, 0.1]))
    # a point on an element has no direction from it
    for name in ("feed", "UE"):
        with pytest.raises(DegenerateGeometryError, match=f"{name} coincides"):
            geometry.rays_to(geo, geo.element_positions[3], name)


def test_incidence_index_bounds():
    geo = geometry.build_ris_grid(2, 2, PITCH, WAVELENGTH)
    with pytest.raises(ValueError):
        oracles.incidence_decomposition(geo, np.array([-0.1, 0.0, 0.0]), 4)
