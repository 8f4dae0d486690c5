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
multiplies b into the surface vector once, with the reflection amplitudes
and the pathloss weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateGeometryError
from .geometry import RisGeometry, U_X


@dataclass(frozen=True)
class FeedSpec:
    """Feed placement, orientation and pattern.

    ``gain`` is the linear boresight gain (kappa >= 2, so the pattern
    exponent kappa/2 - 1 is non-negative and the hemisphere integral is
    finite).
    """

    position: np.ndarray
    boresight: np.ndarray
    gain: float

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "boresight", np.asarray(self.boresight, dtype=float))
        norm = float(np.linalg.norm(self.boresight))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"boresight must be a unit vector, |n| = {norm!r}")
        if not self.gain >= 2.0:
            raise ValueError(f"feed gain must be >= 2 (linear), got {self.gain!r}")


def boresight_from_angles(eta: float, beta: float, gamma: float) -> np.ndarray:
    """Boresight (cos eta, cos beta, cos gamma) from its axis angles.

    The three direction cosines must describe a unit vector.
    """
    n = np.array([np.cos(eta), np.cos(beta), np.cos(gamma)])
    norm = float(np.linalg.norm(n))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(
            f"direction angles ({eta}, {beta}, {gamma}) do not form a unit vector"
        )
    return n / norm


def feed_gains(feed: FeedSpec, directions: np.ndarray) -> np.ndarray:
    """Vectorized pattern over rows of unit directions."""
    dots = np.asarray(directions, dtype=float) @ feed.boresight
    front = np.maximum(dots, 0.0)
    return np.where(dots < 0.0, 0.0, feed.gain * front ** (feed.gain / 2.0 - 1.0))


def build_propagation_matrix(geometry: RisGeometry, feed: FeedSpec) -> np.ndarray:
    """Read-only feed coefficients b_n of every element, shape (N,).

    Raises DegenerateGeometryError when an element's projected aperture
    toward the feed is non-positive (feed in the surface plane or behind
    the reflecting face).
    """
    delta = feed.position[None, :] - geometry.element_positions
    distances = np.linalg.norm(delta, axis=1)
    if np.any(distances == 0.0):
        raise DegenerateGeometryError("feed coincides with an element")
    projected = (delta @ (-U_X)) * geometry.element_area / distances
    bad = np.nonzero(projected <= 0.0)[0]
    if bad.size:
        raise DegenerateGeometryError(
            f"element {int(bad[0])} has non-positive projected aperture "
            "(feed is in or behind the surface plane)"
        )
    gains = feed_gains(feed, -delta / distances[:, None])
    magnitude = np.sqrt(gains * projected / (4.0 * np.pi * distances**2))
    b = magnitude * np.exp(-2j * np.pi * distances / geometry.wavelength)
    b.setflags(write=False)
    return b


def captured_power_fraction(b: np.ndarray) -> float:
    """Fraction of the radiated feed power intercepted by the surface,
    sum of |b_n|^2 over the feed coefficients; bounded by 1 by energy
    conservation."""
    return float(np.sum(np.abs(b) ** 2))
