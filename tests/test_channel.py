import dataclasses

import numpy as np
import pytest

from dpris import capacity, channel, geometry, scenario as scen
from dpris.exceptions import DegenerateGeometryError
from dpris.scenario import db_to_linear

import oracles
from conftest import PITCH, WAVELENGTH

BETA0 = db_to_linear(-49.7)
UE_X = np.array([50.0, 0.0, 0.0])


def weights_for(rows=4, cols=4, ue=UE_X, pitch=PITCH):
    """Element positions and their pathloss weights toward the UE, listed
    row-major."""
    distances = geometry.rays_to(geometry.build_ris_grid(rows, cols, pitch), ue, "UE")[1]
    weights = channel.pathloss_weights(distances, BETA0, 4.0)
    assert weights.shape == (rows, cols) and not weights.flags.writeable
    return oracles.grid_positions(rows, cols, pitch), weights.ravel()


def test_correlation_diagonal_and_zero_crossing():
    r = oracles.correlation_matrix(oracles.grid_positions(2, 1, 0.5 * WAVELENGTH), WAVELENGTH)
    assert r[0, 0] == 1.0 and r[1, 1] == 1.0
    # lambda/2 spacing hits the first zero of the normalized sinc
    assert abs(r[0, 1]) < 1e-15


def test_correlation_at_default_pitch():
    r = oracles.correlation_matrix(oracles.grid_positions(2, 1, PITCH), WAVELENGTH)
    assert r[0, 1] == pytest.approx(0.4134966715663440, rel=1e-12)
    assert r[0, 1] == pytest.approx(3.0 * np.sqrt(3.0) / (4.0 * np.pi), rel=1e-12)


def test_correlation_decays_with_spacing():
    r = oracles.correlation_matrix(oracles.grid_positions(2, 1, 10.0 * WAVELENGTH), WAVELENGTH)
    assert abs(r[0, 1]) < 0.04


def is_lattice_axis(length, side):
    """The lattice rule: even, long enough that no grid lag wraps, and half
    of it a product of 2, 3 and 5 only."""
    half = length // 2
    for p in (2, 3, 5):
        while half % p == 0:
            half //= p
    return length % 2 == 0 and length >= 2 * side - 1 and half == 1


@pytest.mark.parametrize(
    "rows,cols",
    [(1, 1), (1, 7), (3, 7), (7, 3), (4, 4), (20, 20), (7, 7), (17, 17), (19, 3), (17, 3)],
)
@pytest.mark.parametrize("pitch", [PITCH, 0.5 * WAVELENGTH, 1.7 * WAVELENGTH])
def test_kernel_spectrum_reproduces_dense_correlation(rows, cols, pitch):
    positions = oracles.grid_positions(rows, cols, pitch)
    spectrum = capacity.kernel_spectrum(rows, cols, pitch, WAVELENGTH)
    assert spectrum.dtype == float
    assert all(map(is_lattice_axis, spectrum.shape, (rows, cols)))
    # the inverse FFT of S is the lag kernel; read at every pair's lag it
    # gives the dense matrix
    kernel = np.fft.ifft2(spectrum)
    assert np.max(np.abs(kernel.imag)) <= 1e-15
    r, c = np.divmod(np.arange(rows * cols), cols)
    dense = kernel.real[np.subtract.outer(r, r), np.subtract.outer(c, c)]
    np.testing.assert_allclose(
        dense, oracles.correlation_matrix(positions, WAVELENGTH), rtol=0, atol=1e-14
    )


@pytest.mark.parametrize("side", [*range(1, 42), 64, 80, 160])
def test_kernel_spectrum_has_the_bits_of_sinc_and_rfft2(side):
    # the package evaluates np.sinc's arithmetic inline and runs the two
    # transforms of np.fft.rfft2 itself; the goldens pin only the recipes'
    # surfaces, so every lattice here is checked against the wrappers
    for rows, cols in ((side, side), (side, side // 2 + 1)):
        for wavelength in (WAVELENGTH, 0.3):
            for pitch in (1.0 / 3.0, 0.5, 0.9, 1.7):
                expected = oracles.sinc_rfft2_spectrum(rows, cols, pitch * wavelength, wavelength)
                spectrum = capacity.kernel_spectrum(rows, cols, pitch * wavelength, wavelength)
                assert np.array_equal(spectrum, expected), (rows, cols, pitch, wavelength)


def test_statistics_hold_no_quadratic_array():
    positions, weights = weights_for(32, 32)
    n = len(positions)
    assert n == 1024
    spectrum = capacity.kernel_spectrum(32, 32, PITCH, WAVELENGTH)
    # O(N): each lattice axis is 2 m, m the first 5-smooth integer at or
    # above the side, which never exceeds 5/4 of the side
    assert weights.shape == (n,) and spectrum.size <= 4 * (5 / 4) ** 2 * n
    # the link model holds what the outputs read, no more: the Monte Carlo
    # is a property of the trial count and seed, run when read
    names = [field.name for field in dataclasses.fields(scen.LinkModel)]
    assert names == ["snr", "lambda_v", "moments", "forms", "trials", "master_seed"]


def test_correlation_sqrt_identity():
    factor = oracles.correlation_sqrt(np.eye(5))
    np.testing.assert_array_equal(factor, np.eye(5))


def test_correlation_sqrt_reconstruction():
    r = oracles.correlation_matrix(oracles.grid_positions(4, 4, PITCH), WAVELENGTH)
    factor = oracles.correlation_sqrt(r)
    error = np.linalg.norm(factor @ factor.T - r)
    assert error < 1e-8 * len(r)


def test_pathloss_extreme_xpd():
    # xpd 0 and 1 zero one block family of moments exactly; xpd 0.5 splits
    # the pathloss evenly
    positions, weights = weights_for(2, 2)
    grid = geometry.build_ris_grid(2, 2, PITCH)
    b = oracles.feed_coefficients(grid, [-0.05, 0.0, 0.0], PITCH * PITCH, WAVELENGTH)
    surface = (np.stack([np.full(4, 0.8), np.full(4, 0.5)]) * b * weights).reshape(2, 2, 2)
    o = capacity.compute_O(surface, capacity.kernel_spectrum(2, 2, PITCH, WAVELENGTH))
    for xpd, zero in ((0.0, [1, 2]), (1.0, [0, 3])):
        moments = capacity.moment_layout(o, xpd)
        assert np.all(moments[zero] == 0.0)
        assert np.all(np.delete(moments, zero) > 0.0)
    m11, m12, m21, m22 = capacity.moment_layout(o, 0.5)
    assert m11 == m21 and m12 == m22
    co, cross = oracles.pathloss(weights, 0.5)
    np.testing.assert_array_equal(co, cross)


def test_pathloss_reference_value():
    _, weights = weights_for(1, 1)
    assert weights[0] == np.sqrt(BETA0 * 50.0**-4.0)
    co, _ = oracles.pathloss(weights, 0.2)
    assert co[0] == pytest.approx(1.3715447107041362e-12, rel=1e-12)


def test_pathloss_validation():
    # a UE on an element is a degenerate geometry; the pathloss figures are
    # checked when the scenario is made, and the error names the field
    with pytest.raises(DegenerateGeometryError, match="UE"):
        weights_for(1, 1, ue=np.zeros(3))
    for field, value in (
        ("xpd_coeff", 1.2),
        ("pathloss_exponent", -1.0),
        ("pathloss_exponent", 0.0),
        ("beta0_db", 4000.0),
        ("beta0_db", -4000.0),
    ):
        with pytest.raises(ValueError, match=field):
            scen.Scenario(**{field: value})


def test_pathloss_that_underflows_leaves_no_power(monkeypatch):
    # no unit pathloss, exponent and distance in range underflow the
    # weights, so zero weights stand in for them: the link has no power,
    # a named degeneracy
    monkeypatch.setattr(channel, "pathloss_weights", lambda distances, *rest: 0.0 * distances)
    with pytest.raises(DegenerateGeometryError, match="no power reaches the V polarization"):
        scen.build_link_model(scen.Scenario(elements=4))


def test_sample_zero_cross_blocks_when_matched():
    positions, weights = weights_for()
    sample = oracles.sample_channel(weights, 0.0, positions, WAVELENGTH, np.random.default_rng(0))
    assert np.all(sample.h_vh == 0.0)
    assert np.all(sample.h_hv == 0.0)
    assert np.any(sample.h_vv != 0.0)


def test_sample_determinism():
    positions, weights = weights_for()
    a = oracles.sample_channel(weights, 0.2, positions, WAVELENGTH, np.random.default_rng(42))
    b = oracles.sample_channel(weights, 0.2, positions, WAVELENGTH, np.random.default_rng(42))
    np.testing.assert_array_equal(a.h_vv, b.h_vv)
    np.testing.assert_array_equal(a.h_hh, b.h_hh)


#: Trials per batch when accumulating sample moments; bounds peak memory.
BATCH = 20_000


def _accumulate(weights, xpd, positions, trials, seed):
    """Running sums of per-element powers, the VV outer product, and the
    cross-block products, over independent batched draws."""
    n = weights.shape[0]
    power = np.zeros((4, n))
    outer_vv = np.zeros((n, n), dtype=complex)
    cross = np.zeros((3, n), dtype=complex)
    power_sq = np.zeros((4, n))
    rng = np.random.default_rng(seed)
    for start in range(0, trials, BATCH):
        s = oracles.sample_channel(
            weights, xpd, positions, WAVELENGTH, rng, min(BATCH, trials - start)
        )
        blocks = (s.h_vv, s.h_vh, s.h_hv, s.h_hh)
        for k, h in enumerate(blocks):
            p = np.abs(h) ** 2
            power[k] += p.sum(axis=0)
            power_sq[k] += (p**2).sum(axis=0)
        outer_vv += s.h_vv.T @ np.conj(s.h_vv)
        cross[0] += (s.h_vv * np.conj(s.h_vh)).sum(axis=0)
        cross[1] += (s.h_vv * np.conj(s.h_hh)).sum(axis=0)
        cross[2] += (s.h_hv * np.conj(s.h_vh)).sum(axis=0)
    return power / trials, power_sq / trials, outer_vv / trials, cross / trials


def test_sample_moments_match_model():
    positions, weights = weights_for()
    trials = 100_000
    power, power_sq, outer_vv, cross = _accumulate(weights, 0.2, positions, trials, seed=2024)

    # per-element mean power within 3 standard errors of the pathloss
    pathloss_co, pathloss_cross = oracles.pathloss(weights, 0.2)
    expected = np.stack([pathloss_co, pathloss_cross, pathloss_cross, pathloss_co])
    se = np.sqrt(np.maximum(power_sq - power**2, 0.0) / trials)
    assert np.all(np.abs(power - expected) <= 3.0 * se + 1e-30)

    # empirical element correlation of the VV block reproduces the sinc
    # matrix entrywise (normalize by the pathloss scale)
    scale = np.sqrt(np.outer(pathloss_co, pathloss_co))
    corr = (outer_vv / scale).real
    correlation = oracles.correlation_matrix(positions, WAVELENGTH)
    assert np.all(np.abs(corr - correlation) <= 3.5 / np.sqrt(trials) + 1e-12)

    # cross-block correlations vanish: VV-VH, VV-HH, HV-VH
    bound = 3.5 * np.sqrt(np.outer([1.0], pathloss_co * pathloss_cross))
    assert np.all(np.abs(cross[0]) <= bound[0] / np.sqrt(trials) + 1e-30)
    assert np.all(
        np.abs(cross[1]) <= 3.5 * pathloss_co / np.sqrt(trials) + 1e-30
    )
    assert np.all(
        np.abs(cross[2]) <= 3.5 * pathloss_cross / np.sqrt(trials) + 1e-30
    )


@pytest.mark.parametrize("xpd", [0.2, 0.5, 0.8])
def test_sample_xpd_identity(xpd):
    positions, weights = weights_for(rows=2, cols=2)
    trials = 40_000
    s = oracles.sample_channel(
        weights, xpd, positions, WAVELENGTH, np.random.default_rng(77), trials
    )
    ratio = np.sum(np.abs(s.h_hh) ** 2) / np.sum(np.abs(s.h_vh) ** 2)
    expected = (1.0 - xpd) / xpd
    assert ratio == pytest.approx(expected, rel=0.05)
