"""The feed: its radiation pattern and its near-field coefficients b on
the surface (``build_propagation_matrix``).  Both polarizations share the
one coefficient: the line-of-sight hop preserves polarization, and a fixed
feeding phase per polarization would cancel in every quadratic form the
link reports, so the feed carries none.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DegenerateGeometryError


def feed_gains(cosines: np.ndarray, gain: float) -> np.ndarray:
    """Pattern kappa (r . n)^(kappa/2 - 1) over the cosines r . n between
    unit directions r and the unit boresight n, zero where r . n < 0, for
    the linear gain kappa >= 2, so the exponent is non-negative."""
    return np.where(cosines < 0.0, 0.0, gain * np.maximum(cosines, 0.0) ** (gain / 2.0 - 1.0))


def build_propagation_matrix(
    rays: tuple, distances: np.ndarray, area: float, boresight: tuple, gain: float
) -> np.ndarray:
    """Read-only magnitudes |b_n|, shape (rows, cols), of the coefficients
        b_n = sqrt(G_n A_n / (4 pi D_n^2)) exp(-j 2 pi D_n / lambda),
    from the components (x, y, z) and lengths D_n of the rays to the feed
    (``geometry.rays_to``), the element area A = pitch^2 in m^2, the unit
    boresight (n_x, n_y, n_z) and the linear ``gain``: G_n is the
    ``feed_gains`` pattern toward element n and A_n = -A x / D_n its
    projected aperture; ``carrier_phase`` gives the phase factor.  Raises
    DegenerateGeometryError, naming the first element in row-major order,
    when A_n is not positive (feed in or behind the surface plane).
    """
    x, dy, dz = rays
    projected = -x * area / distances
    behind = projected <= 0.0
    if behind.any():
        raise DegenerateGeometryError(
            f"element {int(np.flatnonzero(behind)[0])} has non-positive projected aperture "
            "(feed is in or behind the surface plane)"
        )
    # the pattern over the cosines of the directions -ray / D_n to the boresight
    n_x, n_y, n_z = boresight
    magnitude = feed_gains((-n_x * x - n_y * dy - n_z * dz) / distances, gain)
    magnitude *= projected
    magnitude /= 4.0 * np.pi * distances**2
    np.sqrt(magnitude, out=magnitude)
    magnitude.setflags(write=False)
    return magnitude


def carrier_phase(distances: np.ndarray, wavelength: float) -> np.ndarray:
    """Phase factors exp(-j 2 pi D_n / lambda) of the feed coefficients,
    from the feed distances D_n and the carrier wavelength in meters."""
    return np.exp(-2j * np.pi * distances / wavelength)
