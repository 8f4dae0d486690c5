"""Surface geometry: the reflective element grid, spherical placements,
the rays from every element to a point, and the per-element incidence
decomposition the reflection amplitudes read.  Inputs arrive checked by
``scenario.Scenario``; the errors left here are model degeneracies.

Coordinate frame
----------------
The surface occupies the y-z plane with unit normal u_x = (1, 0, 0); the
feed illuminates it from the x < 0 side.  Element dipole axes are z for the
V polarization and y for the H polarization.  All angles are radians;
degrees appear only at the CLI boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import DegenerateGeometryError

#: Maps the |x|, |y|, |z| components of a unit incidence direction to
#: (tau_v, tau_h).  Pluggable so an alternate reading of the incidence
#: construction can be swapped without touching consumers.
TauConvention = Callable[[float, float, float], tuple[float, float]]


def axis_plane_tilt(dx: float, dy: float, dz: float) -> tuple[float, float]:
    """Default convention: tau for a polarization is the tangent of the
    incidence tilt within the plane spanned by that element's dipole axis
    and the surface normal (x-z plane for V, x-y plane for H).

    This is the convention under which an oblique feed raised toward +z
    strengthens the V-polarized reflection amplitudes.
    """
    return dz / dx, dy / dx


def transverse_plane_tilt(dx: float, dy: float, dz: float) -> tuple[float, float]:
    """Alternate convention: tau from the tilt in the plane orthogonal to
    the dipole axis (x-y plane for V, x-z plane for H)."""
    return dy / dx, dz / dx


@dataclass(frozen=True)
class RisGeometry:
    """The element grid: positions (meters, x = 0 for all), per-element
    area, count, wavelength, pitch and shape; the surface normal is +x."""

    element_positions: np.ndarray
    element_area: float
    element_count: int
    wavelength: float
    pitch: float
    rows: int
    cols: int


def build_ris_grid(rows: int, cols: int, pitch: float, wavelength: float) -> RisGeometry:
    """Build a rows-by-cols grid of elements centered at the origin in the
    y-z plane, row-major (rows advance along z, columns along y).

    Parameters
    ----------
    rows, cols : int
        Grid dimensions, each at least 1.
    pitch : float
        Center-to-center element spacing in meters; the element area is
        pitch squared.
    wavelength : float
        Carrier wavelength in meters.
    """
    y = (np.arange(cols) - (cols - 1) / 2.0) * pitch
    z = (np.arange(rows) - (rows - 1) / 2.0) * pitch
    yy, zz = np.meshgrid(y, z, indexing="xy")
    positions = np.column_stack(
        [np.zeros(rows * cols), yy.ravel(), zz.ravel()]
    )
    positions.setflags(write=False)
    return RisGeometry(
        element_positions=positions,
        element_area=pitch * pitch,
        element_count=rows * cols,
        wavelength=wavelength,
        pitch=pitch,
        rows=rows,
        cols=cols,
    )


def spherical_to_cartesian(radius: float, zenith: float, azimuth: float) -> np.ndarray:
    """Cartesian (r sin(t) cos(p), r sin(t) sin(p), r cos(t)) of the point
    at distance r from the center, zenith t (from +z) and azimuth p."""
    return np.array(
        [
            radius * np.sin(zenith) * np.cos(azimuth),
            radius * np.sin(zenith) * np.sin(azimuth),
            radius * np.cos(zenith),
        ]
    )


def rays_to(geometry: RisGeometry, point: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Vectors from every element to ``point``, shape (N, 3), and their
    lengths; DegenerateGeometryError when the point is on an element."""
    rays = np.asarray(point, dtype=float)[None, :] - geometry.element_positions
    distances = np.linalg.norm(rays, axis=1)
    if np.any(distances == 0.0):
        raise DegenerateGeometryError(f"{name} coincides with an element")
    return rays, distances


def incidence_decompositions(
    rays: np.ndarray,
    distances: np.ndarray,
    convention: TauConvention = axis_plane_tilt,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elevations arccos(|d . u_x|) and tilt tangents (tau_v, tau_h) of the
    directions d = rays / distances to the feed, each of length N."""
    direction = rays / distances[:, None]
    dx = np.abs(direction[:, 0])
    dy = np.abs(direction[:, 1])
    dz = np.abs(direction[:, 2])
    if np.any(dx == 0.0):
        raise DegenerateGeometryError("feed lies in the surface plane")
    tau_v, tau_h = convention(dx, dy, dz)
    elevations = np.arccos(np.minimum(dx, 1.0))
    return elevations, tau_v, tau_h
