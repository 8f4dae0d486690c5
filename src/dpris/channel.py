"""Surface-to-UE dual-polarized correlated Rayleigh channel: its
pathloss weights.

The four polarization blocks (VV, VH, HV, HH) are mutually independent,
share one spatial correlation R (see ``capacity``), and split the
pathloss by the cross-polarization coefficient:

    co-polarized    beta_n = beta0 * d_n^(-alpha) * (1 - xpd_coeff)
    cross-polarized beta_n = beta0 * d_n^(-alpha) * xpd_coeff

Distances are exact per element, so UEs in the array near field see the
correct per-element power variation.  The split's two parts stay apart:
``pathloss_weights`` gives the factor w = sqrt(beta0 d_n^-alpha) of the
surface vector (see ``capacity``), and
``capacity.moment_layout`` applies xpd_coeff to the moments of G.
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
