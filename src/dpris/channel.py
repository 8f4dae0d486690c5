"""Surface-to-UE dual-polarized correlated Rayleigh channel.

The four polarization blocks (VV, VH, HV, HH) are mutually independent,
share one spatial correlation matrix R(n1, n2) = sinc(2 d(n1, n2) / lambda)
(normalized sinc, the isotropic-scattering kernel), and split the pathloss
by the cross-polarization coefficient:

    co-polarized    beta_n = beta0 * d_n^(-alpha) * (1 - xpd_coeff)
    cross-polarized beta_n = beta0 * d_n^(-alpha) * xpd_coeff

Distances are exact per element, so UEs in the array near field see the
correct per-element power variation.

Nothing here draws per-element fading.  The capacity estimator needs only
the 2x2 equivalent channel, whose entries are independent circular
Gaussians with variances given by quadratic forms over these statistics
(``capacity.expected_gram_moments``), so it samples that law directly and
R is never factorized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import RisGeometry


@dataclass(frozen=True)
class ChannelStatistics:
    """Immutable second-order description of the surface-to-UE channel."""

    unit_pathloss: float
    pathloss_exponent: float
    xpd_coeff: float
    element_ue_distances: np.ndarray
    correlation: np.ndarray
    pathloss_co: np.ndarray
    pathloss_cross: np.ndarray

    @property
    def element_count(self) -> int:
        return self.element_ue_distances.shape[0]


def correlation_matrix(geometry: RisGeometry) -> np.ndarray:
    """Spatial correlation sinc(2 ||q_n1 - q_n2|| / lambda) for all element
    pairs (normalized sinc: unit diagonal, first zero at lambda/2)."""
    pos = geometry.element_positions
    separation = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    return np.sinc(2.0 * separation / geometry.wavelength)


def pathloss_vectors(
    geometry: RisGeometry,
    ue_position: np.ndarray,
    unit_pathloss: float,
    pathloss_exponent: float,
    xpd_coeff: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-element distances plus the co- and cross-polarized pathloss
    vectors.  xpd_coeff = 0 and 1 are supported (one block family becomes
    exactly zero)."""
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
    base = unit_pathloss * distances**-pathloss_exponent
    return distances, base * (1.0 - xpd_coeff), base * xpd_coeff


def build_channel_statistics(
    geometry: RisGeometry,
    ue_position: np.ndarray,
    unit_pathloss: float,
    pathloss_exponent: float,
    xpd_coeff: float,
) -> ChannelStatistics:
    """Assemble the full second-order channel description for a UE."""
    distances, co, cross = pathloss_vectors(
        geometry, ue_position, unit_pathloss, pathloss_exponent, xpd_coeff
    )
    correlation = correlation_matrix(geometry)
    for array in (distances, co, cross, correlation):
        array.setflags(write=False)
    return ChannelStatistics(
        unit_pathloss=unit_pathloss,
        pathloss_exponent=pathloss_exponent,
        xpd_coeff=xpd_coeff,
        element_ue_distances=distances,
        correlation=correlation,
        pathloss_co=co,
        pathloss_cross=cross,
    )
