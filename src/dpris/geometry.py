"""Surface geometry: the reflective element grid, spherical placements
and the rays from every element to a point.  Inputs arrive checked by
``scenario.Scenario``; the error left here is a point on an element.

The surface is plain arrays: ``build_ris_grid`` gives the read-only (N, 3)
element positions, which ``rays_to`` takes, and the feed takes the
element area pitch^2 as a float (``feed.build_propagation_matrix``).  The
reflection amplitudes decompose the feed's rays themselves
(``ris.element_amplitudes``).

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
