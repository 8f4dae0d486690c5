"""Surface-to-UE dual-polarized correlated Rayleigh channel.

The four polarization blocks (VV, VH, HV, HH) are mutually independent,
share one spatial correlation R(n1, n2) = sinc(2 d(n1, n2) / lambda)
(normalized sinc, the isotropic-scattering kernel), and split the pathloss
by the cross-polarization coefficient:

    co-polarized    beta_n = beta0 * d_n^(-alpha) * (1 - xpd_coeff)
    cross-polarized beta_n = beta0 * d_n^(-alpha) * xpd_coeff

Distances are exact per element, so UEs in the array near field see the
correct per-element power variation.  The split's two parts stay apart:
``pathloss_weights`` gives sqrt(beta0 d_n^-alpha) from the UE distances
on the rows x cols grid (``geometry.rays_to``), which
``scenario.build_link_model`` multiplies into the one surface vector
s = A * |b| * w with the reflection amplitudes and the feed coefficient
magnitudes (and the feed's carrier phase for random phases only), and
``capacity.moment_layout`` applies xpd_coeff to the moments of G.

R is never formed: ``capacity.kernel_spectrum`` gives its lag-kernel
spectrum on the surface's FFT lattice, and every surface quadratic form is
one FFT per vector.  Nothing here draws per-element fading: the capacity
estimator samples the 2x2 equivalent channel, whose law those quadratic
forms give, directly.
"""

from __future__ import annotations

import numpy as np


def pathloss_weights(
    distances: np.ndarray, unit_pathloss: float, pathloss_exponent: float
) -> np.ndarray:
    """Read-only weights sqrt(beta0 d_n^-alpha) of the UE distances d_n,
    in their shape: (rows, cols) on the surface."""
    weights = np.sqrt(unit_pathloss * distances**-pathloss_exponent)
    weights.setflags(write=False)
    return weights
