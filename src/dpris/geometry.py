"""Surface geometry: the reflective element grid, spherical placements, and
the per-element incidence decomposition consumed by the feeding and
reflection-amplitude models.

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

U_X = np.array([1.0, 0.0, 0.0])

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
class SphericalPlacement:
    """A point given by distance from the surface center, zenith angle
    (from +z), and azimuth angle (from +x, physics convention)."""

    radius: float
    zenith: float
    azimuth: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError(f"radius must be positive, got {self.radius!r}")
        if not 0.0 <= self.zenith <= np.pi:
            raise ValueError(f"zenith must lie in [0, pi], got {self.zenith!r}")
        if not 0.0 <= self.azimuth < 2.0 * np.pi:
            raise ValueError(f"azimuth must lie in [0, 2*pi), got {self.azimuth!r}")


@dataclass(frozen=True)
class RisGeometry:
    """The element grid: positions (meters, x = 0 for all), per-element
    area, count, wavelength, pitch and shape; the surface normal is U_X."""

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
    if rows < 1 or cols < 1:
        raise ValueError(f"grid dimensions must be positive, got {rows}x{cols}")
    if not pitch > 0.0:
        raise ValueError(f"pitch must be positive, got {pitch!r}")
    if not wavelength > 0.0:
        raise ValueError(f"wavelength must be positive, got {wavelength!r}")
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


def spherical_to_cartesian(placement: SphericalPlacement) -> np.ndarray:
    """Cartesian coordinates (r sin(t) cos(p), r sin(t) sin(p), r cos(t))."""
    r, zenith, azimuth = placement.radius, placement.zenith, placement.azimuth
    return np.array(
        [
            r * np.sin(zenith) * np.cos(azimuth),
            r * np.sin(zenith) * np.sin(azimuth),
            r * np.cos(zenith),
        ]
    )


def incidence_decompositions(
    geometry: RisGeometry,
    feed_position: np.ndarray,
    convention: TauConvention = axis_plane_tilt,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized decomposition for all elements.

    Returns (elevations, tau_v, tau_h, distances) arrays of length N.
    """
    delta = np.asarray(feed_position, dtype=float)[None, :] - geometry.element_positions
    distances = np.linalg.norm(delta, axis=1)
    if np.any(distances == 0.0):
        raise DegenerateGeometryError("feed coincides with an element")
    direction = delta / distances[:, None]
    dx = np.abs(direction[:, 0])
    dy = np.abs(direction[:, 1])
    dz = np.abs(direction[:, 2])
    if np.any(dx == 0.0):
        raise DegenerateGeometryError("feed lies in the surface plane")
    tau_v, tau_h = convention(dx, dy, dz)
    elevations = np.arccos(np.minimum(dx, 1.0))
    return elevations, np.asarray(tau_v), np.asarray(tau_h), distances
