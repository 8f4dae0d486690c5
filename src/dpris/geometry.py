"""Surface geometry: the reflective element grid, spherical placements
and the rays from every element to a point.  Inputs arrive checked by
``scenario.Scenario``; the error left here is a point on an element.

The grid is the outer product of two axes, and the surface is held as
those axes alone: ``build_ris_grid`` gives the z of each row and the y of
each column (every element has x = 0), and ``rays_to`` broadcasts them
into the rays to a point, a scalar x, a row of y and a column of z, with
their lengths on the rows x cols grid, which every per-element array of
the link shares (rows advance along z, columns along y).  The feed takes
the element area pitch^2 as a float (``feed.build_propagation_matrix``).

Coordinate frame
----------------
The surface occupies the y-z plane with unit normal u_x = (1, 0, 0); the
feed illuminates it from the x < 0 side.  Element dipole axes are z for the
V polarization and y for the H polarization.  Placements take the
scenario's degrees (``spherical_to_cartesian``); every other angle is in
radians.  A placement is a tuple of three floats, which ``rays_to``
unpacks.
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
    given in degrees; the azimuth is wrapped to [0, 2 pi) radians.  The
    angles are scalars, so ``math`` converts them and takes the sines and
    cosines, with the bits of numpy's ``deg2rad``, ``sin`` and ``cos``
    without their per-call dispatch, and the point is three floats."""
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
