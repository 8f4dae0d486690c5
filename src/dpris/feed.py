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
link reports, so the feed carries none.  ``scenario.build_link_model``
traces the feed's rays once and multiplies b into the surface vector once,
with the reflection amplitudes and the pathloss weights.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DegenerateGeometryError
from .geometry import RisGeometry


def feed_gains(boresight: np.ndarray, gain: float, directions: np.ndarray) -> np.ndarray:
    """Pattern kappa (r . n)^(kappa/2 - 1) over rows r of unit directions,
    zero where r . n < 0, for the unit ``boresight`` n and the linear gain
    kappa >= 2, so the exponent is non-negative."""
    dots = directions @ boresight
    front = np.maximum(dots, 0.0)
    return np.where(dots < 0.0, 0.0, gain * front ** (gain / 2.0 - 1.0))


def build_propagation_matrix(
    geometry: RisGeometry,
    rays: np.ndarray,
    distances: np.ndarray,
    boresight: np.ndarray,
    gain: float,
) -> np.ndarray:
    """Read-only feed coefficients b_n of every element, shape (N,), from
    the rays to the feed and their lengths D_n (``geometry.rays_to``).

    Raises DegenerateGeometryError when an element's projected aperture
    toward the feed is non-positive (feed in the surface plane or behind
    the reflecting face).
    """
    projected = -rays[:, 0] * geometry.element_area / distances
    bad = np.nonzero(projected <= 0.0)[0]
    if bad.size:
        raise DegenerateGeometryError(
            f"element {int(bad[0])} has non-positive projected aperture "
            "(feed is in or behind the surface plane)"
        )
    gains = feed_gains(boresight, gain, -rays / distances[:, None])
    magnitude = np.sqrt(gains * projected / (4.0 * np.pi * distances**2))
    b = magnitude * np.exp(-2j * np.pi * distances / geometry.wavelength)
    b.setflags(write=False)
    return b


def captured_power_fraction(b: np.ndarray) -> float:
    """Fraction of the radiated feed power intercepted by the surface,
    sum of |b_n|^2 over the feed coefficients; bounded by 1 by energy
    conservation."""
    return float(np.sum(np.abs(b) ** 2))
