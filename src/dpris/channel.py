"""Surface-to-UE dual-polarized correlated Rayleigh channel.

The four polarization blocks (VV, VH, HV, HH) are mutually independent,
share one spatial correlation R(n1, n2) = sinc(2 d(n1, n2) / lambda)
(normalized sinc, the isotropic-scattering kernel), and split the pathloss
by the cross-polarization coefficient:

    co-polarized    beta_n = beta0 * d_n^(-alpha) * (1 - xpd_coeff)
    cross-polarized beta_n = beta0 * d_n^(-alpha) * xpd_coeff

Distances are exact per element, so UEs in the array near field see the
correct per-element power variation.  The statistics hold the split's two
parts apart: the per-element weights sqrt(beta0 d_n^-alpha) and xpd_coeff,
which ``capacity.moment_layout`` applies to the moments of G.

R is never formed.  On the uniform rows x cols grid R(n1, n2) depends only
on the lag (drow, dcol), through k(drow, dcol) = sinc(2 pitch
||(drow, dcol)|| / lambda), so R is block Toeplitz with Toeplitz blocks.
The statistics hold k, laid out on a (2 rows) x (2 cols) circulant lattice
(lag i at index i mod 2 rows), as its spectrum S = FFT2(k): 4N reals, real
because k is even.  Every surface quadratic form is then one FFT per
vector (``capacity.compute_O``).  Nothing here draws per-element fading:
the capacity estimator samples the 2x2 equivalent channel, whose law those
quadratic forms give, directly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .geometry import RisGeometry


@dataclass(frozen=True)
class ChannelStatistics:
    """Immutable second-order description of the surface-to-UE channel;
    ``weights`` is sqrt(beta0 d_n^-alpha), ``kernel_spectrum`` is S."""

    xpd_coeff: float
    weights: np.ndarray
    kernel_spectrum: np.ndarray

    @property
    def element_count(self) -> int:
        return self.weights.shape[0]


@functools.lru_cache(maxsize=8)
def _kernel_spectrum(rows: int, cols: int, pitch: float, wavelength: float) -> np.ndarray:
    """Read-only spectrum of the sinc lag kernel on the circulant lattice,
    shared by every sweep point on the same surface."""
    lag_r = np.abs(np.fft.ifftshift(np.arange(-rows, rows)))
    lag_c = np.abs(np.fft.ifftshift(np.arange(-cols, cols)))
    separation = pitch * np.hypot(lag_r[:, None], lag_c[None, :])
    spectrum = np.ascontiguousarray(np.fft.fft2(np.sinc(2.0 * separation / wavelength)).real)
    spectrum.setflags(write=False)
    return spectrum


def build_channel_statistics(
    geometry: RisGeometry,
    ue_position: np.ndarray,
    unit_pathloss: float,
    pathloss_exponent: float,
    xpd_coeff: float,
) -> ChannelStatistics:
    """Assemble the full second-order channel description for a UE.
    xpd_coeff = 0 and 1 are supported (one block family becomes exactly
    zero)."""
    if not 0.0 <= xpd_coeff <= 1.0:
        raise ValueError(f"xpd coefficient must lie in [0, 1], got {xpd_coeff!r}")
    if not pathloss_exponent > 0.0:
        raise ValueError(f"pathloss exponent must be positive, got {pathloss_exponent!r}")
    if not unit_pathloss >= 0.0:
        raise ValueError(f"unit pathloss must be non-negative, got {unit_pathloss!r}")
    delta = np.asarray(ue_position, dtype=float)[None, :] - geometry.element_positions
    distances = np.linalg.norm(delta, axis=1)
    if np.any(distances == 0.0):
        raise ValueError("UE position coincides with a surface element")
    weights = np.sqrt(unit_pathloss * distances**-pathloss_exponent)
    weights.setflags(write=False)
    spectrum = _kernel_spectrum(geometry.rows, geometry.cols, geometry.pitch, geometry.wavelength)
    return ChannelStatistics(xpd_coeff=xpd_coeff, weights=weights, kernel_spectrum=spectrum)
