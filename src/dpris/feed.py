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
link reports, so the feed carries none.  The carrier phase of b is read
only under the random phase draws, whose moments depend on it: the
aligning phases cancel it, so their quadratic forms take |b| alone.
``build_propagation_matrix`` gives |b| and ``carrier_phase`` the phase
factors, and ``scenario.build_link_model`` traces the feed's rays once and
multiplies |b| into the surface vector once, with the reflection
amplitudes and the pathloss weights, and the phase only for the random
scheme.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DegenerateGeometryError


def feed_gains(boresight: np.ndarray, gain: float, directions: np.ndarray) -> np.ndarray:
    """Pattern kappa (r . n)^(kappa/2 - 1) over rows r of unit directions,
    zero where r . n < 0, for the unit ``boresight`` n and the linear gain
    kappa >= 2, so the exponent is non-negative."""
    dots = directions @ boresight
    front = np.maximum(dots, 0.0)
    return np.where(dots < 0.0, 0.0, gain * front ** (gain / 2.0 - 1.0))


def build_propagation_matrix(
    rays: np.ndarray,
    distances: np.ndarray,
    area: float,
    boresight: np.ndarray,
    gain: float,
) -> np.ndarray:
    """Read-only feed coefficient magnitudes |b_n| of every element, shape
    (N,), from the rays to the feed and their lengths D_n
    (``geometry.rays_to``) and the element area A = pitch^2 in m^2.

    Raises DegenerateGeometryError when an element's projected aperture
    toward the feed is non-positive (feed in the surface plane or behind
    the reflecting face).
    """
    projected = -rays[:, 0] * area / distances
    bad = np.nonzero(projected <= 0.0)[0]
    if bad.size:
        raise DegenerateGeometryError(
            f"element {int(bad[0])} has non-positive projected aperture "
            "(feed is in or behind the surface plane)"
        )
    gains = feed_gains(boresight, gain, -rays / distances[:, None])
    magnitude = np.sqrt(gains * projected / (4.0 * np.pi * distances**2))
    magnitude.setflags(write=False)
    return magnitude


def carrier_phase(distances: np.ndarray, wavelength: float) -> np.ndarray:
    """Phase factors exp(-j 2 pi D_n / lambda) of the feed coefficients,
    from the feed distances D_n and the carrier wavelength in meters."""
    return np.exp(-2j * np.pi * distances / wavelength)
