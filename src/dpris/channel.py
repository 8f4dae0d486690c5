"""Surface-to-UE dual-polarized correlated Rayleigh channel.

The four polarization blocks (VV, VH, HV, HH) are mutually independent,
share one spatial correlation R(n1, n2) = sinc(2 d(n1, n2) / lambda)
(normalized sinc, the isotropic-scattering kernel), and split the pathloss
by the cross-polarization coefficient:

    co-polarized    beta_n = beta0 * d_n^(-alpha) * (1 - xpd_coeff)
    cross-polarized beta_n = beta0 * d_n^(-alpha) * xpd_coeff

Distances are exact per element, so UEs in the array near field see the
correct per-element power variation.  The split's two parts stay apart:
``pathloss_weights`` gives sqrt(beta0 d_n^-alpha) from the UE distances,
which ``scenario.build_link_model`` multiplies into the one surface vector
with the reflection amplitudes and the feed coefficients, and
``capacity.moment_layout`` applies xpd_coeff to the moments of G.

R is never formed.  On the uniform rows x cols grid R(n1, n2) depends only
on the lag (drow, dcol), through k(drow, dcol) = sinc(2 pitch
||(drow, dcol)|| / lambda), so R is block Toeplitz with Toeplitz blocks.
``kernel_spectrum`` lays k out on a (2 rows) x (2 cols) circulant lattice
(lag i at index i mod 2 rows) and returns its spectrum S = FFT2(k): 4N
reals, real because k is even.  Every surface quadratic form is then one
FFT per vector (``capacity.compute_O``).  Nothing here draws per-element
fading: the capacity estimator samples the 2x2 equivalent channel, whose
law those quadratic forms give, directly.
"""

from __future__ import annotations

import functools

import numpy as np

from .geometry import RisGeometry


def kernel_spectrum(geometry: RisGeometry) -> np.ndarray:
    """Read-only spectrum S of the sinc lag kernel of the grid, shape
    (2 rows, 2 cols), shared by every sweep point on the same surface."""
    return _kernel_spectrum(geometry.rows, geometry.cols, geometry.pitch, geometry.wavelength)


@functools.lru_cache(maxsize=8)
def _kernel_spectrum(rows: int, cols: int, pitch: float, wavelength: float) -> np.ndarray:
    lag_r = np.abs(np.fft.ifftshift(np.arange(-rows, rows)))
    lag_c = np.abs(np.fft.ifftshift(np.arange(-cols, cols)))
    separation = pitch * np.hypot(lag_r[:, None], lag_c[None, :])
    spectrum = np.ascontiguousarray(np.fft.fft2(np.sinc(2.0 * separation / wavelength)).real)
    spectrum.setflags(write=False)
    return spectrum


def pathloss_weights(
    distances: np.ndarray, unit_pathloss: float, pathloss_exponent: float
) -> np.ndarray:
    """Read-only weights sqrt(beta0 d_n^-alpha) of the UE distances d_n."""
    weights = np.sqrt(unit_pathloss * distances**-pathloss_exponent)
    weights.setflags(write=False)
    return weights
