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

from dataclasses import dataclass

import numpy as np

from .feed import FeedSpec
from .geometry import (
    RisGeometry,
    TauConvention,
    axis_plane_tilt,
    incidence_decompositions,
)

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class AmplitudeModel:
    """Angle-dependent reflection amplitude map.

    ``normal_incidence_phase`` (phi0) is the phase shift the element
    induces under normal incidence; tan(phi0/2) must be finite.
    ``tau_offset`` is an additive tilt offset applied to every element's
    tau before evaluating the map.  The map yields exactly zero amplitude
    at tau = 0, so a strictly on-axis ray reflects with zero amplitude
    under the default offset; the offset exists to explore that edge
    without changing the map itself.
    """

    normal_incidence_phase: float = np.pi / 2.0
    tau_offset: float = 0.0

    def __post_init__(self):
        if abs(np.cos(self.normal_incidence_phase / 2.0)) < 1e-12:
            raise ValueError("normal-incidence phase must not equal pi (mod 2*pi)")


def element_amplitudes(
    geometry: RisGeometry,
    feed: FeedSpec,
    model: AmplitudeModel,
    convention: TauConvention = axis_plane_tilt,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-element amplitudes for both polarizations from the feed
    placement, via the geometry's incidence decomposition."""
    elevations, tau_v, tau_h, _ = incidence_decompositions(
        geometry, feed.position, convention
    )
    a_v = _amplitude_map(model, elevations, tau_v + model.tau_offset)
    a_h = _amplitude_map(model, elevations, tau_h + model.tau_offset)
    return a_v, a_h


def random_phases(element_count: int, seed: int) -> np.ndarray:
    """I.i.d. uniform phases for both polarizations, shape (2, N): row 0
    is V, row 1 is H, drawn reproducibly from ``seed`` (one (2, N) draw
    equals two successive N-draws of the same stream)."""
    return np.random.default_rng(seed).uniform(0.0, TWO_PI, (2, element_count))


def _amplitude_map(model: AmplitudeModel, elevation: np.ndarray, tau: np.ndarray) -> np.ndarray:
    if np.any(elevation < 0.0) or np.any(elevation >= np.pi / 2.0):
        raise ValueError("elevation must lie in [0, pi/2)")
    t = np.tan(model.normal_incidence_phase / 2.0)
    cos_e = np.cos(elevation)
    # |exp(2ja) - exp(2jb)| / 2 = |sin(a - b)|
    return np.abs(np.sin(np.arctan((t + tau) / cos_e) - np.arctan((t - tau) / cos_e)))
