"""Feed radiation pattern and the deterministic near-field feed-to-surface
propagation coefficients (non-uniform spherical wave model).

Each coefficient combines the feed gain toward the element, the element's
projected aperture as seen from the feed, free-space spreading, and the
carrier phase accumulated over the feed distance:

    b_n = sqrt(G_n * A_n / (4 pi D_n^2)) * exp(-j 2 pi D_n / lambda)

Both polarizations are fed by this one coefficient; cross-polarized
feeding is zero because the line-of-sight hop preserves polarization.  A
fixed feeding phase per polarization would rotate a whole polarization's
surface vector by a constant, which cancels in every quadratic form the
link reports, so the feed carries none.  ``build_propagation_matrix``
gives |b| and ``carrier_phase`` the phase factors on the rows x cols grid,
from the broadcast rays of ``geometry.rays_to``; only the random phase
draws read the phase (see ``capacity`` for the surface vector they enter).
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
    """Read-only feed coefficient magnitudes |b_n|, shape (rows, cols),
    from the components (x, y, z) of the rays to the feed, their lengths
    D_n (``geometry.rays_to``), the element area A = pitch^2 in m^2 and the
    unit boresight (n_x, n_y, n_z).

    Raises DegenerateGeometryError, naming the first element in row-major
    order, when an element's projected aperture toward the feed is
    non-positive (feed in the surface plane or behind the reflecting face).
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
