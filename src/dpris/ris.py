"""Per-element reflection coefficients: the angle-dependent amplitude map
and the phase-shift configuration strategies."""

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

PHASE_SCHEMES = ("optimal", "optimal-with-adjustment", "random")


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


@dataclass(frozen=True)
class RisConfiguration:
    """Per-element, per-polarization reflection amplitudes and phases.

    Amplitudes have shape (N,).  Phases have shape (N,), or (c, N) for a
    stack of c phase draws that share the amplitudes.
    """

    amplitudes_v: np.ndarray
    amplitudes_h: np.ndarray
    phases_v: np.ndarray
    phases_h: np.ndarray

    def __post_init__(self):
        n = self.amplitudes_v.shape[0]
        if (
            self.amplitudes_h.shape != (n,)
            or self.phases_v.shape[-1:] != (n,)
            or self.phases_h.shape != self.phases_v.shape
        ):
            raise ValueError("configuration vectors must share one length")
        for name in ("amplitudes_v", "amplitudes_h"):
            a = getattr(self, name)
            if a.min(initial=0.0) < 0.0 or a.max(initial=1.0) > 1.0:
                raise ValueError(f"{name} outside [0, 1]")

    @property
    def element_count(self) -> int:
        return self.amplitudes_v.shape[0]

    @property
    def gamma_v(self) -> np.ndarray:
        """Complex V-polarization reflection coefficients."""
        return self.amplitudes_v * _phasors(self.phases_v)

    @property
    def gamma_h(self) -> np.ndarray:
        """Complex H-polarization reflection coefficients."""
        return self.amplitudes_h * _phasors(self.phases_h)


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


def optimal_phases(geometry: RisGeometry, feed: FeedSpec) -> tuple[np.ndarray, np.ndarray]:
    """Capacity-maximizing phases 2 pi D_n / lambda (mod 2 pi), identical
    for both polarizations: each element cancels its own feed-path phase,
    so all reflected contributions add coherently."""
    delta = feed.position[None, :] - geometry.element_positions
    distances = np.linalg.norm(delta, axis=1)
    phases = np.mod(TWO_PI * distances / geometry.wavelength, TWO_PI)
    return phases, phases.copy()


def phase_strategy(
    kind: str,
    geometry: RisGeometry,
    feed: FeedSpec,
    seed: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Phase vectors for a named configuration scheme.

    ``optimal`` aligns every element; ``optimal-with-adjustment``
    additionally subtracts the per-polarization feeding phases (a constant
    offset per polarization); ``random`` draws i.i.d. uniform phases per
    element and polarization, reproducibly from ``seed``.
    """
    if kind == "optimal":
        return optimal_phases(geometry, feed)
    if kind == "optimal-with-adjustment":
        phases_v, phases_h = optimal_phases(geometry, feed)
        return (
            np.mod(phases_v - feed.copol_phase_v, TWO_PI),
            np.mod(phases_h - feed.copol_phase_h, TWO_PI),
        )
    if kind == "random":
        # one (2, N) draw equals two successive N-draws of the same stream
        phases_v, phases_h = np.random.default_rng(seed).uniform(
            0.0, TWO_PI, (2, geometry.element_count)
        )
        return phases_v, phases_h
    raise ValueError(f"unknown phase scheme {kind!r} (expected one of {PHASE_SCHEMES})")


def build_configuration(
    geometry: RisGeometry,
    feed: FeedSpec,
    model: AmplitudeModel,
    scheme: str = "optimal",
    seed: int | None = None,
    convention: TauConvention = axis_plane_tilt,
) -> RisConfiguration:
    """Amplitudes from the angle model plus phases from ``scheme``."""
    a_v, a_h = element_amplitudes(geometry, feed, model, convention)
    phases_v, phases_h = phase_strategy(scheme, geometry, feed, seed)
    return RisConfiguration(
        amplitudes_v=a_v, amplitudes_h=a_h, phases_v=phases_v, phases_h=phases_h
    )


def _phasors(phases: np.ndarray) -> np.ndarray:
    """exp(j phases), written as cos + j sin straight into one complex array
    (the same values as ``np.exp(1j * phases)``, with fewer temporaries)."""
    out = np.empty(phases.shape, dtype=complex)
    np.cos(phases, out=out.real)
    np.sin(phases, out=out.imag)
    return out


def _amplitude_map(model: AmplitudeModel, elevation: np.ndarray, tau: np.ndarray) -> np.ndarray:
    if np.any(elevation < 0.0) or np.any(elevation >= np.pi / 2.0):
        raise ValueError("elevation must lie in [0, pi/2)")
    t = np.tan(model.normal_incidence_phase / 2.0)
    cos_e = np.cos(elevation)
    # |exp(2ja) - exp(2jb)| / 2 = |sin(a - b)|
    return np.abs(np.sin(np.arctan((t + tau) / cos_e) - np.arctan((t - tau) / cos_e)))
