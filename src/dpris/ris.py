"""Per-element reflection coefficients: the angle-dependent amplitude map
and the seeded random phase draw.

The amplitudes are one factor of the weighted surface vector
s_P = A_P * b * w that ``scenario.build_link_model`` forms once per link.
The aligning schemes need no phases: their moments follow from s alone,
through O_V and O_H (see ``capacity``).  Phases are drawn only for the
random scheme, whose moments depend on them: draw d is
``random_phases(N, seed + d)``, a (2, N) array that
``capacity.expected_gram_moments`` turns into the vectors e^{j theta} * s.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DegenerateGeometryError
from .geometry import TauConvention, axis_plane_tilt, incidence_decompositions


def element_amplitudes(
    rays: np.ndarray,
    distances: np.ndarray,
    normal_incidence_phase: float,
    tau_offset: float = 0.0,
    convention: TauConvention = axis_plane_tilt,
) -> np.ndarray:
    """Reflection amplitudes (V, H), shape (2, N), from the rays to the
    feed and their lengths (``geometry.rays_to``): |exp(2ja) - exp(2jb)| / 2
    = |sin(a - b)| with a, b = atan((t +- tau) / cos e), e the elevation and
    t = tan(phi0 / 2), phi0 the normal-incidence phase (radians, off pi).

    ``tau_offset`` is added to every tau.  The map is exactly zero at
    tau = 0, so a strictly on-axis ray reflects with zero amplitude under
    the default offset; the offset explores that edge without changing the
    map itself.
    """
    elevations, tau_v, tau_h = incidence_decompositions(rays, distances, convention)
    if np.any(elevations >= np.pi / 2.0):
        raise DegenerateGeometryError("elevation must lie in [0, pi/2)")
    t = np.tan(normal_incidence_phase / 2.0)
    cos_e = np.cos(elevations)
    return np.stack(
        [
            np.abs(np.sin(np.arctan((t + tau) / cos_e) - np.arctan((t - tau) / cos_e)))
            for tau in (tau_v + tau_offset, tau_h + tau_offset)
        ]
    )


def random_phases(element_count: int, seed: int) -> np.ndarray:
    """I.i.d. uniform phases for both polarizations, shape (2, N): row 0
    is V, row 1 is H, drawn reproducibly from ``seed`` (one (2, N) draw
    equals two successive N-draws of the same stream)."""
    return np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, (2, element_count))
