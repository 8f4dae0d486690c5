import dataclasses

import numpy as np
import pytest

from dpris import capacity, channel, geometry, scenario as scen
from dpris.exceptions import DegenerateGeometryError, ModelInconsistencyError
from dpris.numerics import db_to_linear

import oracles
from conftest import PITCH, WAVELENGTH

BETA0 = db_to_linear(-49.7)
UE_X = np.array([50.0, 0.0, 0.0])


def weights_for(rows=4, cols=4, ue=UE_X, pitch=PITCH):
    """Grid and its pathloss weights toward the UE."""
    geo = geometry.build_ris_grid(rows, cols, pitch, WAVELENGTH)
    return geo, channel.pathloss_weights(geometry.rays_to(geo, ue, "UE")[1], BETA0, 4.0)


def test_correlation_diagonal_and_zero_crossing():
    geo = geometry.build_ris_grid(2, 1, 0.5 * WAVELENGTH, WAVELENGTH)
    r = oracles.correlation_matrix(geo)
    assert r[0, 0] == 1.0 and r[1, 1] == 1.0
    # lambda/2 spacing hits the first zero of the normalized sinc
    assert abs(r[0, 1]) < 1e-15


def test_correlation_at_default_pitch():
    geo = geometry.build_ris_grid(2, 1, PITCH, WAVELENGTH)
    r = oracles.correlation_matrix(geo)
    assert r[0, 1] == pytest.approx(0.4134966715663440, rel=1e-12)
    assert r[0, 1] == pytest.approx(3.0 * np.sqrt(3.0) / (4.0 * np.pi), rel=1e-12)


def test_correlation_decays_with_spacing():
    geo = geometry.build_ris_grid(2, 1, 10.0 * WAVELENGTH, WAVELENGTH)
    r = oracles.correlation_matrix(geo)
    assert abs(r[0, 1]) < 0.04


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 7), (3, 7), (7, 3), (4, 4), (20, 20)])
@pytest.mark.parametrize("pitch", [PITCH, 0.5 * WAVELENGTH, 1.7 * WAVELENGTH])
def test_kernel_spectrum_reproduces_dense_correlation(rows, cols, pitch):
    geo = geometry.build_ris_grid(rows, cols, pitch, WAVELENGTH)
    spectrum = channel.kernel_spectrum(geo)
    assert spectrum.shape == (2 * rows, 2 * cols) and spectrum.dtype == float
    # the inverse FFT of S is the lag kernel; read at every pair's lag it
    # gives the dense matrix
    kernel = np.fft.ifft2(spectrum)
    assert np.max(np.abs(kernel.imag)) <= 1e-15
    r, c = np.divmod(np.arange(rows * cols), cols)
    dense = kernel.real[np.subtract.outer(r, r), np.subtract.outer(c, c)]
    np.testing.assert_allclose(dense, oracles.correlation_matrix(geo), rtol=0, atol=1e-14)


def test_statistics_hold_no_quadratic_array():
    geo, weights = weights_for(32, 32)
    n = geo.element_count
    assert n == 1024
    assert weights.shape == (n,) and channel.kernel_spectrum(geo).size == 4 * n
    assert not weights.flags.writeable
    # the link model holds what the outputs read, no more
    names = [field.name for field in dataclasses.fields(scen.LinkModel)]
    assert names == ["snr", "lambda_v", "o_v", "o_h", "moments"]


def test_correlation_sqrt_identity():
    factor = oracles.correlation_sqrt(np.eye(5))
    np.testing.assert_array_equal(factor, np.eye(5))


def test_correlation_sqrt_reconstruction():
    geo = geometry.build_ris_grid(4, 4, PITCH, WAVELENGTH)
    r = oracles.correlation_matrix(geo)
    factor = oracles.correlation_sqrt(r)
    error = np.linalg.norm(factor @ factor.T - r)
    assert error < 1e-8 * geo.element_count


def test_correlation_sqrt_rejects_non_psd():
    bad = np.array(
        [
            [1.0, 0.8, -0.8],
            [0.8, 1.0, 0.8],
            [-0.8, 0.8, 1.0],
        ]
    )
    with pytest.raises(ModelInconsistencyError) as excinfo:
        oracles.correlation_sqrt(bad)
    assert excinfo.value.details["min_eigenvalue"] < 0


def test_correlation_sqrt_rejects_bad_diagonal():
    with pytest.raises(ValueError):
        oracles.correlation_sqrt(2.0 * np.eye(3))


def test_pathloss_extreme_xpd():
    # xpd 0 and 1 zero one block family of moments exactly; xpd 0.5 splits
    # the pathloss evenly
    geo, weights = weights_for(2, 2)
    b = oracles.feed_coefficients(geo, [-0.05, 0.0, 0.0])
    surface = np.stack([np.full(4, 0.8), np.full(4, 0.5)]) * b * weights
    o = capacity.compute_O(surface, channel.kernel_spectrum(geo))
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
    ):
        with pytest.raises(ValueError, match=field):
            scen.Scenario(**{field: value})
    # a unit pathloss that underflows to zero is a silent link, not an error
    assert scen.build_link_model(scen.Scenario(elements=4, beta0_db=-4000.0)).o_v == 0.0


def test_sample_zero_cross_blocks_when_matched():
    geo, weights = weights_for()
    sample = oracles.sample_channel(weights, 0.0, geo, np.random.default_rng(0))
    assert np.all(sample.h_vh == 0.0)
    assert np.all(sample.h_hv == 0.0)
    assert np.any(sample.h_vv != 0.0)


def test_sample_determinism():
    geo, weights = weights_for()
    a = oracles.sample_channel(weights, 0.2, geo, np.random.default_rng(42))
    b = oracles.sample_channel(weights, 0.2, geo, np.random.default_rng(42))
    np.testing.assert_array_equal(a.h_vv, b.h_vv)
    np.testing.assert_array_equal(a.h_hh, b.h_hh)


#: Trials per batch when accumulating sample moments; bounds peak memory.
BATCH = 20_000


def _accumulate(weights, xpd, geo, trials, seed):
    """Running sums of per-element powers, the VV outer product, and the
    cross-block products, over independent batched draws."""
    n = weights.shape[0]
    power = np.zeros((4, n))
    outer_vv = np.zeros((n, n), dtype=complex)
    cross = np.zeros((3, n), dtype=complex)
    power_sq = np.zeros((4, n))
    rng = np.random.default_rng(seed)
    for start in range(0, trials, BATCH):
        s = oracles.sample_channel(weights, xpd, geo, rng, min(BATCH, trials - start))
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
    geo, weights = weights_for()
    trials = 100_000
    power, power_sq, outer_vv, cross = _accumulate(weights, 0.2, geo, trials, seed=2024)

    # per-element mean power within 3 standard errors of the pathloss
    pathloss_co, pathloss_cross = oracles.pathloss(weights, 0.2)
    expected = np.stack([pathloss_co, pathloss_cross, pathloss_cross, pathloss_co])
    se = np.sqrt(np.maximum(power_sq - power**2, 0.0) / trials)
    assert np.all(np.abs(power - expected) <= 3.0 * se + 1e-30)

    # empirical element correlation of the VV block reproduces the sinc
    # matrix entrywise (normalize by the pathloss scale)
    scale = np.sqrt(np.outer(pathloss_co, pathloss_co))
    corr = (outer_vv / scale).real
    correlation = oracles.correlation_matrix(geo)
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
    geo, weights = weights_for(rows=2, cols=2)
    trials = 40_000
    s = oracles.sample_channel(weights, xpd, geo, np.random.default_rng(77), trials)
    ratio = np.sum(np.abs(s.h_hh) ** 2) / np.sum(np.abs(s.h_vh) ** 2)
    expected = (1.0 - xpd) / xpd
    assert ratio == pytest.approx(expected, rel=0.05)
