"""Per-element reflection coefficients: the angle-dependent amplitude map
and the seeded random phase draw, both on the rows x cols grid.

The amplitudes are the factor A_P of the surface vector s_P (see
``capacity``).  Each polarization sees the feed's tilt in the plane of
the surface normal and its own dipole axis (``axis-plane``; the frame is
``geometry``'s), so a feed raised toward +z strengthens V;
``transverse-plane`` reads each tilt in the other axis's plane, which
exchanges the V and H maps, and ``scenario`` applies it as that swap.
A tilt depends on one grid axis only: V's on the row, H's on the column.
The aligning schemes need no phases: their moments follow from s alone,
through O_V and O_H.  Phases are drawn only for the random scheme, whose
moments depend on them: draw d is ``random_phases(rows, cols, seed + d)``,
which ``capacity.expected_gram_moments`` turns into the vectors
e^{j theta} * s.

A cold surface runs the amplitude map once, so its cost is mostly numpy's
per-call overhead: ``element_amplitudes`` forms the per-axis parts of both
polarizations in one vector, V's row tilts then H's column tilts, and the
full-size operations once over the (2, rows, cols) stack, and takes the
smallest cosine with ``np.minimum.reduce``, the ufunc method that
``ndarray.min`` calls.  Each value is the same arithmetic in the same
order as one map at a time, so the bits are those of the per-polarization
loop.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DegenerateGeometryError


def element_amplitudes(
    rays: tuple, distances: np.ndarray, normal_incidence_phase: float, tau_offset: float = 0.0
) -> np.ndarray:
    """Reflection amplitudes (V, H), shape (2, rows, cols), from the
    components (x, y, z) of the rays to the feed and their lengths D
    (``geometry.rays_to``): |exp(2ja) - exp(2jb)| / 2 = |sin(a - b)| with
    a, b = atan((t +- tau) / c), t = tan(phi0 / 2) and phi0 the
    normal-incidence phase (radians, off pi).  The elevation e has
    c = cos e = |x| / D, and the tilt tangents are tau_V = |z| / |x| and
    tau_H = |y| / |x|.  The sine is taken without arctangents, as
    2 |tau| c / sqrt((c^2 + (t + tau)^2) (c^2 + (t - tau)^2)), which keeps
    full relative precision near tau = 0, where a - b cancels.

    ``tau_offset`` is added to every tau.  The map is exactly zero at
    tau = 0, so a strictly on-axis ray reflects with zero amplitude under
    the default offset; the offset explores that edge without changing the
    map itself.
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
