"""Surface geometry: the reflective element grid, spherical placements,
the rays from every element to a point, and the per-element incidence
decomposition the reflection amplitudes read.  Inputs arrive checked by
``scenario.Scenario``; the errors left here are model degeneracies.

The surface is plain arrays: ``build_ris_grid`` gives the read-only (N, 3)
element positions, which ``rays_to`` takes, and the feed takes the
element area pitch^2 as a float (``feed.build_propagation_matrix``).

Coordinate frame
----------------
The surface occupies the y-z plane with unit normal u_x = (1, 0, 0); the
feed illuminates it from the x < 0 side.  Element dipole axes are z for the
V polarization and y for the H polarization.  Placements take the
scenario's degrees (``spherical_to_cartesian``); every other angle is in
radians.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DegenerateGeometryError


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


#: The incidence conventions by their scenario name: each maps the |x|,
#: |y|, |z| components of a unit incidence direction to (tau_v, tau_h).
CONVENTIONS = {"axis-plane": axis_plane_tilt, "transverse-plane": transverse_plane_tilt}


def build_ris_grid(rows: int, cols: int, pitch: float) -> np.ndarray:
    """Read-only positions, shape (rows * cols, 3), of a rows-by-cols grid
    of elements at ``pitch`` meters centered at the origin in the y-z
    plane, row-major (rows advance along z, columns along y)."""
    y = (np.arange(cols) - (cols - 1) / 2.0) * pitch
    z = (np.arange(rows) - (rows - 1) / 2.0) * pitch
    yy, zz = np.meshgrid(y, z, indexing="xy")
    positions = np.column_stack([np.zeros(rows * cols), yy.ravel(), zz.ravel()])
    positions.setflags(write=False)
    return positions


def spherical_to_cartesian(radius: float, zenith_deg: float, azimuth_deg: float) -> np.ndarray:
    """Cartesian (r sin(t) cos(p), r sin(t) sin(p), r cos(t)) of the point
    at distance r from the center, zenith t (from +z) and azimuth p, both
    given in degrees; the azimuth is wrapped to [0, 2 pi) radians."""
    zenith = np.deg2rad(zenith_deg)
    azimuth = np.deg2rad(azimuth_deg) % (2.0 * np.pi)
    return np.array(
        [
            radius * np.sin(zenith) * np.cos(azimuth),
            radius * np.sin(zenith) * np.sin(azimuth),
            radius * np.cos(zenith),
        ]
    )


def rays_to(positions: np.ndarray, point: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Vectors from every element at ``positions``, shape (N, 3), to
    ``point``, shape (3,), and their lengths; DegenerateGeometryError when
    the point is on an element."""
    rays = np.asarray(point, dtype=float)[None, :] - positions
    distances = np.linalg.norm(rays, axis=1)
    if np.any(distances == 0.0):
        raise DegenerateGeometryError(f"{name} coincides with an element")
    return rays, distances


def incidence_decompositions(
    rays: np.ndarray,
    distances: np.ndarray,
    convention=axis_plane_tilt,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elevations arccos(|d . u_x|) and tilt tangents (tau_v, tau_h), by
    ``convention`` (a ``CONVENTIONS`` value), of the directions
    d = rays / distances to the feed (in front of the surface), each of length N."""
    direction = rays / distances[:, None]
    dx = np.abs(direction[:, 0])
    dy = np.abs(direction[:, 1])
    dz = np.abs(direction[:, 2])
    tau_v, tau_h = convention(dx, dy, dz)
    elevations = np.arccos(np.minimum(dx, 1.0))
    return elevations, tau_v, tau_h
