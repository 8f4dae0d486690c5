import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpris import capacity, geometry, ris, scenario as scen
from dpris.exceptions import DegenerateGeometryError

import oracles
from conftest import PITCH, WAVELENGTH

#: Normal-incidence phase shift phi0 = pi/2.
QUARTER = np.pi / 2


def amplitudes(grid, position, phase=QUARTER, tau_offset=0.0):
    """The package's (V, H) amplitudes for a feed at ``position``, shape
    (2, N), each listed row-major."""
    rays, distances = geometry.rays_to(grid, np.asarray(position, dtype=float), "feed")
    values = ris.element_amplitudes(rays, distances, phase, tau_offset)
    assert values.shape == (2,) + distances.shape
    return values.reshape(2, -1)


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
    with pytest.raises(DegenerateGeometryError, match="grazing incidence"):
        amplitudes(geometry.build_ris_grid(1, 1, PITCH), [-1e-20, 0.1, 0.0])
    # phi0 = pi (mod 2 pi) is rejected when the scenario is made, and the
    # error names the field
    for degrees in (180.0, 540.0, -180.0):
        with pytest.raises(ValueError, match="normal_incidence_phase_deg"):
            scen.Scenario(normal_incidence_phase_deg=degrees)
    # so is a tau offset outside its range, by name and range; at either
    # edge the map's squares stay finite and the link has power
    for offset in (100.00000000000001, -1e75, -1e300):
        with pytest.raises(ValueError, match=r"tau_offset .* in \[-100.0, 100.0\]"):
            scen.Scenario(tau_offset=offset)
    for offset in (-100.0, 100.0):
        edge = scen.build_link_model(scen.Scenario(elements=4, tau_offset=offset))
        assert 0.0 < edge.forms.min() <= edge.forms.max() < 1e-14


def test_element_amplitudes_match_scalar_oracle():
    # the properties above hold for the scalar map; the package's
    # vectorized map must agree with it element by element
    rng = np.random.default_rng(6)
    grid = geometry.build_ris_grid(4, 5, PITCH)
    positions = oracles.grid_positions(4, 5, PITCH)
    for _ in range(10):
        phase, offset = rng.uniform(-2.8, 2.8), rng.uniform(-1, 1)
        position = np.array([-rng.uniform(0.02, 0.3), *rng.uniform(-0.2, 0.2, 2)])
        a_v, a_h = amplitudes(grid, position, phase, offset)
        for index in range(len(positions)):
            dec = oracles.incidence_decomposition(positions, position, index)
            for value, tau in ((a_v[index], dec.tau_v), (a_h[index], dec.tau_h)):
                expected = oracles.reflection_amplitude(phase, dec.elevation, tau + offset)
                assert value == pytest.approx(expected, rel=1e-12, abs=1e-15)


#: A coordinate of the feed: 0 puts it level with the center row (z) or
#: column (y) of an odd grid, whose tilt is then exactly 0.
LEVEL_OR_NOT = st.just(0.0) | st.floats(-0.2, 0.2)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    side=st.sampled_from([1, 2, 5, 20, 40]),
    pitch_wavelengths=st.floats(0.2, 1.0),
    feed=st.tuples(st.floats(-0.3, -0.02), LEVEL_OR_NOT, LEVEL_OR_NOT),
    phase_deg=st.floats(-170.0, 170.0),
    tau_offset=st.just(0.0) | st.floats(-1.0, 1.0),
    convention=st.sampled_from(scen.INCIDENCE_PLANES),
)
def test_element_amplitudes_have_the_bits_of_the_per_polarization_loop(
    side, pitch_wavelengths, feed, phase_deg, tau_offset, convention
):
    # the package forms both polarizations' per-axis parts in one vector and
    # the full-size map over their stack; the goldens pin only the recipes'
    # surfaces, so the bits are checked here against one map at a time,
    # under either convention as the link build applies it
    grid = geometry.build_ris_grid(side, side, pitch_wavelengths * WAVELENGTH)
    rays, distances = geometry.rays_to(grid, np.array(feed), "feed")
    phase = np.deg2rad(phase_deg)
    a_v, a_h = values = ris.element_amplitudes(rays, distances, phase, tau_offset)
    if tau_offset == 0.0 and side % 2 == 1:
        # the map vanishes where the tilt does: V's on a level row, H's on a level column
        _, y, z = feed
        assert (z != 0.0 or not a_v[side // 2].any()) and (y != 0.0 or not a_h[:, side // 2].any())
    if convention == "transverse-plane":
        values = values[::-1]
    expected = oracles.per_polarization_amplitudes(rays, distances, phase, tau_offset, convention)
    assert np.array_equal(values, expected)


def test_incidence_conventions_differ_by_axis():
    # a feed at 45 degrees in the x-y plane tilts only within the plane of
    # the H dipole axis, so the map gives V zero amplitude and H the scalar
    # map at elevation pi/4 and tau 1; in the x-z plane the roles swap, and
    # the oracle's transverse-plane tilts give the swapped pair
    grid = geometry.build_ris_grid(1, 1, PITCH)
    positions = oracles.grid_positions(1, 1, PITCH)
    tilted = oracles.reflection_amplitude(QUARTER, np.pi / 4, 1.0)
    for direction, expected in (([-1, 1, 0], (0.0, tilted)), ([-1, 0, 1], (tilted, 0.0))):
        position = np.array(direction) / np.sqrt(2.0) * 0.3
        a_v, a_h = amplitudes(grid, position)
        assert a_v[0] == pytest.approx(expected[0], rel=1e-12, abs=1e-15)
        assert a_h[0] == pytest.approx(expected[1], rel=1e-12, abs=1e-15)
        for convention, pair in (("axis-plane", expected), ("transverse-plane", expected[::-1])):
            dec = oracles.incidence_decomposition(positions, position, 0, oracles.TILTS[convention])
            assert dec.elevation == pytest.approx(np.pi / 4, rel=1e-12)
            for tau, value in zip((dec.tau_v, dec.tau_h), pair):
                scalar = oracles.reflection_amplitude(QUARTER, dec.elevation, tau)
                assert scalar == pytest.approx(value, rel=1e-12, abs=1e-15)


def scalar_forms(scenario):
    """(O_V, O_H) of a scenario from per-element scalar amplitudes, read
    under the oracle's tilts of its convention, and the dense R."""
    parts = oracles.link_parts(scenario)
    position = geometry.spherical_to_cartesian(
        scenario.feed_r_m, scenario.feed_zenith_deg, scenario.feed_azimuth_deg
    )
    tilt = oracles.TILTS[scenario.incidence_convention]
    phase = np.deg2rad(scenario.normal_incidence_phase_deg)
    scalar = np.empty((2, len(parts.positions)))
    for index in range(len(parts.positions)):
        dec = oracles.incidence_decomposition(parts.positions, position, index, tilt)
        for row, tau in enumerate((dec.tau_v, dec.tau_h)):
            scalar[row, index] = oracles.reflection_amplitude(
                phase, dec.elevation, tau + scenario.tau_offset
            )
    r = oracles.correlation_matrix(parts.positions, scenario.wavelength_m)
    return [v @ r @ v for v in np.abs(scalar * parts.b * parts.weights)]


@pytest.mark.parametrize("convention", scen.INCIDENCE_PLANES)
@pytest.mark.parametrize(
    "changes",
    [
        {"feed_r_m": 0.1, "feed_zenith_deg": 60.0},
        {
            "feed_zenith_deg": 75.0,
            "feed_azimuth_deg": 170.0,
            "boresight_deg": "10,80,90",
            "tau_offset": 0.3,
            "normal_incidence_phase_deg": 60.0,
        },
    ],
    ids=["oblique", "tilted-boresight"],
)
def test_link_forms_match_scalar_amplitudes(convention, changes):
    # the link's O_V and O_H agree with per-element amplitudes whose tilts
    # the oracle reads in each convention's own planes, so the swap that
    # gives the package's transverse-plane map is checked, not assumed
    current = scen.Scenario(elements=16, incidence_convention=convention, **changes)
    model = scen.build_link_model(current)
    o_v, o_h = model.forms.tolist()
    assert abs(o_v - o_h) > 0.01 * o_v
    np.testing.assert_allclose((o_v, o_h), scalar_forms(current), rtol=1e-10, atol=0.0)


def test_transverse_plane_swaps_the_polarizations():
    # the transverse-plane link is the axis-plane link with V and H
    # exchanged, bit for bit, wherever the feed sits
    rng = np.random.default_rng(8)
    for _ in range(8):
        changes = {
            "feed_r_m": rng.uniform(0.05, 0.2),
            "feed_zenith_deg": rng.uniform(45.0, 135.0),
            "feed_azimuth_deg": rng.uniform(135.0, 225.0),
            "tau_offset": rng.uniform(-0.5, 0.5),
        }
        axis = scen.build_link_model(scen.Scenario(elements=64, **changes))
        transverse = scen.build_link_model(
            scen.Scenario(elements=64, incidence_convention="transverse-plane", **changes)
        )
        np.testing.assert_array_equal(transverse.forms, axis.forms[::-1])
        np.testing.assert_array_equal(transverse.moments, axis.moments[::-1])


def test_element_amplitudes_accept_every_feed_in_front():
    # a feed in front of the surface meets no element at grazing incidence,
    # and every amplitude lies in [0, 1]
    grid = geometry.build_ris_grid(4, 4, PITCH)
    rng = np.random.default_rng(4)
    for _ in range(50):
        position = np.array([-rng.uniform(1e-3, 1.0), rng.uniform(-1, 1), rng.uniform(-1, 1)])
        values = amplitudes(grid, position)
        assert values.shape == (2, 16)
        assert np.all((0.0 <= values) & (values <= 1.0))


def test_element_amplitudes_on_axis_single_element():
    a_v, a_h = amplitudes(geometry.build_ris_grid(1, 1, PITCH), [-0.05, 0, 0])
    assert a_v[0] == 0.0
    assert a_h[0] == 0.0


def test_element_amplitudes_oblique_polarizations_differ():
    position = geometry.spherical_to_cartesian(0.1, 60.0, 180.0)
    a_v, a_h = amplitudes(geometry.build_ris_grid(4, 4, PITCH), position)
    assert not np.allclose(a_v, a_h)
    # feed tilted toward +z favors the V polarization under the default
    # convention
    assert a_v.mean() > a_h.mean()


def test_element_amplitudes_mirror_invariance():
    grid = geometry.build_ris_grid(3, 3, PITCH)
    rng = np.random.default_rng(3)
    # mirroring the feed across the x-z plane re-pairs elements column-wise
    flip = np.arange(9).reshape(3, 3)[:, ::-1].ravel()
    for _ in range(20):
        base = np.array([-rng.uniform(0.02, 0.3), rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)])
        a_v, a_h = amplitudes(grid, base)
        b_v, b_h = amplitudes(grid, base * np.array([1.0, -1.0, 1.0]))
        np.testing.assert_allclose(b_v[flip], a_v, atol=1e-12)
        np.testing.assert_allclose(b_h[flip], a_h, atol=1e-12)


def test_element_amplitudes_tau_offset():
    a_v, _ = amplitudes(geometry.build_ris_grid(1, 1, PITCH), [-0.05, 0, 0], tau_offset=1.0)
    assert a_v[0] == pytest.approx(0.8944271909999159, rel=1e-12)


def test_optimal_phases_single_element_at_wavelength():
    positions = oracles.grid_positions(1, 1, PITCH)
    phases_v, phases_h = oracles.optimal_phases(positions, WAVELENGTH, [-WAVELENGTH, 0.0, 0.0])
    assert phases_v[0] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_array_equal(phases_v, phases_h)


def test_optimal_phases_align_reflections():
    grid = geometry.build_ris_grid(10, 10, PITCH)
    positions = oracles.grid_positions(10, 10, PITCH)
    position = [-0.05, 0.0, 0.0]
    b = oracles.feed_coefficients(grid, position, PITCH * PITCH, WAVELENGTH)
    config = oracles.RisConfiguration(
        *amplitudes(grid, position), *oracles.optimal_phases(positions, WAVELENGTH, position)
    )
    # every element's reflected contribution lands on the positive real axis
    for gamma in (config.gamma_v, config.gamma_h):
        assert np.max(np.abs(np.angle(gamma * b))) < 1e-9


def test_phase_adjustment_offsets():
    positions = oracles.grid_positions(4, 4, PITCH)
    position = [-0.05, 0.01, 0.0]
    base_v, base_h = oracles.aligned_phases("optimal", positions, WAVELENGTH, position)
    adj_v, adj_h = oracles.aligned_phases(
        "optimal-with-adjustment", positions, WAVELENGTH, position
    )
    # the feed carries no per-polarization phase, so the adjustment offsets
    # are zero and both polarizations share one phase vector
    np.testing.assert_array_equal(adj_v, base_v)
    np.testing.assert_array_equal(adj_h, base_h)
    np.testing.assert_array_equal(base_v, base_h)
    with pytest.raises(ValueError):
        oracles.aligned_phases("random", positions, WAVELENGTH, position)


def package_draws(seeds: range, rows: int, cols: int, chunk: int) -> np.ndarray:
    """The phases of the draws ``ris.random_phase_chunks`` writes in turns
    for ``seeds`` into a ``chunk``-draw buffer, stacked."""
    out = np.empty((chunk, 2, rows, cols))
    return np.concatenate([2.0 * np.pi * turns for turns in ris.random_phase_chunks(out, seeds)])


def test_random_phase_determinism():
    first, second = package_draws(range(123, 125), 4, 4, 1)
    assert first.shape == (2, 4, 4)
    np.testing.assert_array_equal(first, package_draws(range(123, 124), 4, 4, 3)[0])
    # one draw is two successive N-draws of the seed's stream, each laid
    # out row-major on the grid
    rng = np.random.default_rng(123)
    np.testing.assert_array_equal(first[0].ravel(), rng.uniform(0.0, 2 * np.pi, 16))
    np.testing.assert_array_equal(first[1].ravel(), rng.uniform(0.0, 2 * np.pi, 16))
    assert not np.array_equal(first[0], second[0])
    for seeds in (range(4, 0, -1), range(0, 8, 2), range(-1, 3)):
        with pytest.raises(ValueError, match="consecutive and non-negative"):
            next(ris.random_phase_chunks(np.empty((2, 2, 1, 1)), seeds))


#: Seed ranges across the seed hash's edges: the first seeds, each side of
#: 2^32, 2^64 and 2^128, where a seed's word count changes (a fifth word is
#: mixed into the pool after its four), a 200-bit seed, and 1030 seeds,
#: more than one ``ris._SEED_BLOCK``.
SEED_EDGES = [range(64)] + [range(2**b - 4, 2**b + 5) for b in (32, 64, 128)]
SEED_EDGES += [range(2**199 + 77, 2**199 + 80), range(1000, 2030)]


@pytest.mark.parametrize("block", [None, 3])
@pytest.mark.parametrize("rows,cols", [(1, 1), (4, 4), (20, 20)])
def test_block_seeded_draws_have_the_bits_of_a_generator_per_seed(monkeypatch, block, rows, cols):
    # SeedSequence's hash and PCG64's set-up, run over a block of seeds at
    # once, against default_rng(seed).uniform: every draw bit for bit, in
    # chunks of 5 draws, and with 3-seed blocks that straddle each edge
    if block is not None:
        monkeypatch.setattr(ris, "_SEED_BLOCK", block)
    for seeds in SEED_EDGES:
        draws = package_draws(seeds, rows, cols, 5)
        assert len(draws) == len(seeds)
        for seed, draw in zip(seeds, draws):
            assert np.array_equal(draw, oracles.random_phases(rows, cols, seed)), seed


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
    # the moment kernel takes a (2, rows, cols) surface and at least one seed
    parts = oracles.link_parts(scen.Scenario(elements=4))
    surface = parts.config.surface(parts)
    for bad_surface, seeds in [(surface[0], range(1)), (surface, range(0))]:
        with pytest.raises(ValueError):
            capacity.expected_gram_moments(bad_surface, seeds, parts.spectrum)


def test_random_phase_bound_never_beats_aligned_bound():
    base = scen.Scenario(elements=16)
    model = scen.build_link_model(base)
    parts = oracles.link_parts(base)
    aligned = capacity.moment_upper_bound(model.moments, 0.5, model.snr)
    for seed in range(30):
        config = oracles.RisConfiguration(
            parts.config.amplitudes_v,
            parts.config.amplitudes_h,
            *oracles.random_phases(4, 4, seed).reshape(2, 16),
        )
        moments = config.moments(parts)
        randomized = capacity.moment_upper_bound(moments, 0.5, model.snr)
        assert randomized <= aligned + 1e-12
