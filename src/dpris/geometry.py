"""Surface geometry: the element grid, spherical placements and the rays
from every element to a point; past ``Scenario``'s checks, the one error
left here is a point on an element.

The surface occupies the y-z plane with unit normal u_x = (1, 0, 0), and
the feed illuminates it from the x < 0 side.  Element dipole axes are z
for V and y for H.  Grid rows advance along z and columns along y.
Placements take degrees; every other angle is in radians.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import DegenerateGeometryError


def build_ris_grid(rows: int, cols: int, pitch: float) -> tuple[np.ndarray, np.ndarray]:
    """The axes of a rows-by-cols grid of elements at ``pitch`` meters,
    centered at the origin in the y-z plane: the z of each row, shape
    (rows, 1), and the y of each column, shape (cols,)."""
    z = (np.arange(rows)[:, None] - (rows - 1) / 2.0) * pitch
    return z, (np.arange(cols) - (cols - 1) / 2.0) * pitch


def spherical_to_cartesian(radius: float, zenith_deg: float, azimuth_deg: float) -> tuple:
    """Cartesian (r sin(t) cos(p), r sin(t) sin(p), r cos(t)) of the point
    at distance r from the center, zenith t (from +z) and azimuth p, both
    given in degrees; the azimuth is wrapped to [0, 2 pi) radians.
    ``math`` gives the bits of numpy's ``deg2rad``, ``sin`` and ``cos``."""
    zenith = math.radians(zenith_deg)
    azimuth = math.radians(azimuth_deg) % (2.0 * math.pi)
    sin_zenith = math.sin(zenith)
    return (
        radius * sin_zenith * math.cos(azimuth),
        radius * sin_zenith * math.sin(azimuth),
        radius * math.cos(zenith),
    )


def rays_to(grid: tuple, point, name: str) -> tuple[tuple, np.ndarray]:
    """The rays from every element of ``grid`` (``build_ris_grid``) to
    ``point``, three coordinates (x, y, z), as their components, a scalar,
    shape (cols,) and shape (rows, 1), and their lengths, shape
    (rows, cols); DegenerateGeometryError when the point is on an
    element."""
    z, y = grid
    x, dy, dz = point[0], point[1] - y, point[2] - z
    distances = np.sqrt(x * x + dy * dy + dz * dz)
    if not np.minimum.reduce(distances, axis=None) > 0.0:
        raise DegenerateGeometryError(f"{name} coincides with an element")
    return (x, dy, dz), distances
