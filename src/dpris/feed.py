"""Feed radiation pattern and the deterministic near-field feed-to-surface
propagation coefficients (non-uniform spherical wave model).

Each coefficient combines the feed gain toward the element, the element's
projected aperture as seen from the feed, free-space spreading, and the
carrier phase accumulated over the feed distance:

    b_n = sqrt(G_n * A_n / (4 pi D_n^2)) * exp(-j 2 pi D_n / lambda)

The co-polarized vectors are this shared coefficient rotated by the fixed
per-polarization feed phase; cross-polarized feeding is zero because the
line-of-sight hop preserves polarization.
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
    finite).  ``copol_phase_v`` / ``copol_phase_h`` are the fixed feeding
    phases of the two polarizations, radians.
    """

    position: np.ndarray
    boresight: np.ndarray
    gain: float
    copol_phase_v: float = 0.0
    copol_phase_h: float = 0.0

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


@dataclass(frozen=True)
class PropagationMatrix:
    """Feed-to-surface coefficients.

    ``shared`` holds the per-element coefficients b_n; the co-polarized
    vectors differ from it only by the constant feeding phases, so their
    magnitudes coincide.  Cross-polarized blocks are identically zero and
    therefore not stored.
    """

    shared: np.ndarray
    copol_v: np.ndarray
    copol_h: np.ndarray

    @property
    def element_count(self) -> int:
        return self.shared.shape[0]


def feed_gains(feed: FeedSpec, directions: np.ndarray) -> np.ndarray:
    """Vectorized pattern over rows of unit directions."""
    dots = np.asarray(directions, dtype=float) @ feed.boresight
    front = np.maximum(dots, 0.0)
    return np.where(dots < 0.0, 0.0, feed.gain * front ** (feed.gain / 2.0 - 1.0))


def build_propagation_matrix(geometry: RisGeometry, feed: FeedSpec) -> PropagationMatrix:
    """All-element coefficients with the co-polarization phases applied.

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
    shared = magnitude * np.exp(-2j * np.pi * distances / geometry.wavelength)
    shared.setflags(write=False)
    copol_v = np.exp(1j * feed.copol_phase_v) * shared
    copol_h = np.exp(1j * feed.copol_phase_h) * shared
    copol_v.setflags(write=False)
    copol_h.setflags(write=False)
    return PropagationMatrix(shared=shared, copol_v=copol_v, copol_h=copol_h)


def captured_power_fraction(pm: PropagationMatrix) -> float:
    """Fraction of the radiated feed power intercepted by the surface,
    sum of |b_n|^2; bounded by 1 by energy conservation."""
    return float(np.sum(np.abs(pm.shared) ** 2))
