import numpy as np
import pytest

from dpris import feed, geometry
from dpris.exceptions import DegenerateGeometryError

import oracles
from conftest import PITCH, WAVELENGTH

ON_AXIS = np.array([-0.05, 0.0, 0.0])
PLUS_X = np.array([1.0, 0.0, 0.0])


def make_feed(gain=10.0, position=ON_AXIS, boresight=PLUS_X, phase_v=np.pi / 2, phase_h=np.pi / 4):
    return feed.FeedSpec(
        position=position,
        boresight=boresight,
        gain=gain,
        copol_phase_v=phase_v,
        copol_phase_h=phase_h,
    )


def random_front_directions(rng, count):
    directions = rng.standard_normal((count, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    directions[:, 0] = np.abs(directions[:, 0])
    return directions


def test_feed_gain_flat_for_minimum_gain():
    spec = make_feed(gain=2.0)
    rng = np.random.default_rng(0)
    for value in feed.feed_gains(spec, random_front_directions(rng, 20)):
        assert value == pytest.approx(2.0, rel=1e-15)


def test_feed_gain_boresight_equals_gain():
    spec = make_feed(gain=10.0)
    assert feed.feed_gains(spec, PLUS_X[None, :])[0] == pytest.approx(10.0, rel=1e-15)


def test_feed_gain_back_hemisphere_is_zero():
    spec = make_feed(gain=7.0)
    rng = np.random.default_rng(1)
    back = random_front_directions(rng, 20)
    back[:, 0] *= -1.0
    assert np.all(feed.feed_gains(spec, back) == 0.0)
    for direction in back:
        assert oracles.feed_gain(spec, direction) == 0.0


def test_feed_spec_validation():
    with pytest.raises(ValueError):
        make_feed(gain=1.5)
    with pytest.raises(ValueError):
        make_feed(boresight=np.array([1.0, 1.0, 0.0]))


def test_boresight_from_angles():
    n = feed.boresight_from_angles(0.0, np.pi / 2, np.pi / 2)
    assert np.allclose(n, PLUS_X, atol=1e-15)
    with pytest.raises(ValueError):
        feed.boresight_from_angles(0.0, 0.0, 0.0)


def test_nusw_on_axis_magnitude():
    # single broadside element: |b|^2 = kappa * s_R / (4 pi D^2)
    geo = geometry.build_ris_grid(1, 1, PITCH, WAVELENGTH)
    value = feed.build_propagation_matrix(geo, make_feed()).shared[0]
    assert abs(value) ** 2 == pytest.approx(4.6773869386451463e-3, rel=1e-12)


def test_nusw_phase_tracks_distance():
    geo = geometry.build_ris_grid(10, 10, PITCH, WAVELENGTH)
    spec = make_feed()
    pm = feed.build_propagation_matrix(geo, spec)
    distances = np.linalg.norm(spec.position[None, :] - geo.element_positions, axis=1)
    expected = np.exp(-2j * np.pi * distances / WAVELENGTH)
    np.testing.assert_allclose(pm.shared / np.abs(pm.shared), expected, atol=1e-12)


def test_nusw_inverse_square_scaling():
    geo = geometry.build_ris_grid(1, 1, PITCH, WAVELENGTH)
    spec_near = make_feed(position=np.array([-0.05, 0.0, 0.0]))
    spec_far = make_feed(position=np.array([-0.15, 0.0, 0.0]))
    near = abs(feed.build_propagation_matrix(geo, spec_near).shared[0]) ** 2
    far = abs(feed.build_propagation_matrix(geo, spec_far).shared[0]) ** 2
    # broadside element, gain fixed at boresight: power scales as 1/D^2
    assert far == pytest.approx(near / 9.0, rel=1e-12)


def test_nusw_rejects_feed_behind_surface():
    geo = geometry.build_ris_grid(2, 2, PITCH, WAVELENGTH)
    with pytest.raises(DegenerateGeometryError):
        feed.build_propagation_matrix(geo, make_feed(position=np.array([0.05, 0.0, 0.0])))
    with pytest.raises(DegenerateGeometryError):
        feed.build_propagation_matrix(geo, make_feed(position=np.array([0.0, 0.1, 0.0])))


def test_propagation_matrix_single_element_reduction():
    geo = geometry.build_ris_grid(1, 1, PITCH, WAVELENGTH)
    spec = make_feed()
    pm = feed.build_propagation_matrix(geo, spec)
    b = oracles.nusw_coefficient(geo, spec, 0)
    assert pm.copol_v[0] == pytest.approx(np.exp(1j * np.pi / 2) * b, rel=1e-12)
    assert pm.copol_h[0] == pytest.approx(np.exp(1j * np.pi / 4) * b, rel=1e-12)


def test_propagation_matrix_matches_scalar_oracle():
    rng = np.random.default_rng(12)
    for _ in range(10):
        rows, cols = (int(k) for k in rng.integers(1, 6, 2))
        geo = geometry.build_ris_grid(rows, cols, PITCH, WAVELENGTH)
        spec = make_feed(
            gain=float(rng.uniform(2.0, 50.0)),
            position=np.array([-rng.uniform(0.01, 0.3), *rng.uniform(-0.1, 0.1, 2)]),
        )
        pm = feed.build_propagation_matrix(geo, spec)
        for index in range(geo.element_count):
            b = oracles.nusw_coefficient(geo, spec, index)
            assert pm.shared[index] == pytest.approx(b, rel=1e-12)


def test_propagation_matrix_phase_relations():
    geo = geometry.build_ris_grid(3, 3, PITCH, WAVELENGTH)
    equal = feed.build_propagation_matrix(geo, make_feed(phase_v=0.7, phase_h=0.7))
    np.testing.assert_array_equal(equal.copol_v, equal.copol_h)
    table = feed.build_propagation_matrix(geo, make_feed())
    ratio = table.copol_v / table.copol_h
    np.testing.assert_allclose(ratio, np.exp(1j * np.pi / 4), rtol=1e-12)
    np.testing.assert_allclose(np.abs(table.copol_v), np.abs(table.shared), rtol=1e-12)
    np.testing.assert_allclose(np.abs(table.copol_h), np.abs(table.shared), rtol=1e-12)


def test_captured_power_fraction_empty_and_bounded():
    empty = feed.PropagationMatrix(
        shared=np.zeros(0, dtype=complex),
        copol_v=np.zeros(0, dtype=complex),
        copol_h=np.zeros(0, dtype=complex),
    )
    assert feed.captured_power_fraction(empty) == 0.0
    rng = np.random.default_rng(9)
    for _ in range(15):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        geo = geometry.build_ris_grid(rows, cols, PITCH, WAVELENGTH)
        spec = make_feed(
            gain=float(rng.uniform(2.0, 200.0)),
            position=np.array(
                [-rng.uniform(0.01, 0.3), rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)]
            ),
        )
        fraction = feed.captured_power_fraction(feed.build_propagation_matrix(geo, spec))
        assert 0.0 < fraction <= 1.0


def test_captured_power_fraction_monotone_in_gain():
    geo = geometry.build_ris_grid(10, 10, PITCH, WAVELENGTH)
    gains = np.geomspace(2.0, 200.0, 12)
    fractions = [
        feed.captured_power_fraction(feed.build_propagation_matrix(geo, make_feed(gain=g)))
        for g in gains
    ]
    assert np.all(np.diff(fractions) > 0)
    assert fractions[-1] <= 1.0


@pytest.mark.parametrize("kappa", [2.0, 4.0, 10.0, 100.0])
def test_pattern_hemisphere_normalization(kappa):
    spec = make_feed(gain=kappa)
    integral = oracles.pattern_hemisphere_integral(spec, theta_nodes=128, phi_nodes=128)
    assert integral == pytest.approx(4.0 * np.pi, rel=1e-3)


def test_pattern_normalization_oblique_boresight():
    tilted = np.array([0.6, 0.0, 0.8])
    spec = make_feed(gain=25.0, boresight=tilted)
    integral = oracles.pattern_hemisphere_integral(spec, theta_nodes=160, phi_nodes=160)
    assert integral == pytest.approx(4.0 * np.pi, rel=1e-3)
