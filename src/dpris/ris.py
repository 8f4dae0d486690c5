"""Per-element reflection on the rows x cols grid: the angle-dependent
amplitude map A_P and the seeded random phase draws.  Each polarization
sees the feed's tilt in the plane of the surface normal and its own dipole
axis (``axis-plane``; the frame is ``geometry``'s), so a feed raised toward
+z strengthens V, and a tilt depends on one grid axis only: V's on the
row, H's on the column.  ``transverse-plane`` reads each tilt in the other
axis's plane, which exchanges the V and H maps.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DegenerateGeometryError


def element_amplitudes(
    rays: tuple, distances: np.ndarray, normal_incidence_phase: float, tau_offset: float = 0.0
) -> np.ndarray:
    """Reflection amplitudes (V, H), shape (2, rows, cols), from the
    components (x, y, z) and lengths D of the rays to the feed
    (``geometry.rays_to``): |exp(2ja) - exp(2jb)| / 2 = |sin(a - b)| with
    a, b = atan((t +- tau) / c), t = tan(phi0 / 2), phi0 the
    normal-incidence phase in radians (off pi), c = |x| / D the cosine of
    the elevation, and the tilt tangents tau_V = |z| / |x| and
    tau_H = |y| / |x| plus ``tau_offset``.  The sine is taken as
    2 |tau| c / sqrt((c^2 + (t + tau)^2) (c^2 + (t - tau)^2)), with full
    relative precision near tau = 0, where the map is exactly zero, so an
    on-axis ray reflects nothing at the default offset.  Both maps run as
    one stack, with the bits of one at a time.  DegenerateGeometryError
    at grazing incidence.
    """
    x, dy, dz = rays
    rows, cols = distances.shape
    cos_e = np.abs(x) / distances
    # arccos is decreasing: the smallest cosine has the largest elevation
    if np.arccos(min(np.minimum.reduce(cos_e, axis=None), 1.0)) >= np.pi / 2.0:
        raise DegenerateGeometryError("the feed meets the surface at grazing incidence")
    t = np.tan(normal_incidence_phase / 2.0)
    # per axis, V's tau over the rows then H's over the columns:
    # (t + tau)^2, (t - tau)^2 and 2 |tau|
    tau = np.abs(np.concatenate((dz[:, 0], dy))) / abs(x) + tau_offset
    parts = np.empty((3, rows + cols))
    np.square(t + tau, out=parts[0])
    np.square(t - tau, out=parts[1])
    np.multiply(2.0, np.abs(tau), out=parts[2])
    # the same three over the (2, rows, cols) stack of V and H
    plus, minus, numerator = terms = np.empty((3, 2, rows, cols))
    terms[:, 0] = parts[:, :rows, None]
    terms[:, 1] = parts[:, None, rows:]
    c2 = cos_e * cos_e
    terms[:2] += c2
    amplitudes = np.multiply(plus, minus)
    np.sqrt(amplitudes, out=amplitudes)
    numerator *= cos_e
    return np.divide(numerator, amplitudes, out=amplitudes)


def random_phases(rows: int, cols: int, seed: int) -> np.ndarray:
    """I.i.d. uniform phases for both polarizations, shape (2, rows, cols):
    V then H, drawn reproducibly from ``seed`` (one draw equals two
    successive row-major draws of rows * cols of the same stream)."""
    return np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, (2, rows, cols))
