"""3D geometry: transmit lattice construction and receiver placement."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0
"Speed of light in m/s (exact SI value)."

X_HAT = np.array([1.0, 0.0, 0.0])
Y_HAT = np.array([0.0, 1.0, 0.0])
Z_HAT = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class ArrayLayout:
    """Planar transmit array on z = 0, one crossed-dipole pair per element.

    ``positions`` is an (n, 3) array in meters whose row order fixes the
    antenna index used by the channel vectors and beamformer weights. The
    lattice builder orders it row-major by y: y ascending, then x ascending
    within each row.
    """

    positions: np.ndarray
    wavelength: float
    dipole_length: float
    radius: float

    def __post_init__(self):
        pos = np.ascontiguousarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise ValueError("positions must be a non-empty (n, 3) array")
        if self.wavelength <= 0 or self.dipole_length <= 0 or self.radius <= 0:
            raise ValueError("wavelength, dipole_length and radius must be positive")
        if np.any(pos[:, 2] != 0.0):
            raise ValueError("array elements must lie on the z = 0 plane")
        radial = np.hypot(pos[:, 0], pos[:, 1])
        if np.any(radial > self.radius * (1.0 + 1e-12)):
            raise ValueError("array elements must lie within the aperture radius")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def n_tx(self) -> int:
        return self.positions.shape[0]


def build_circular_array(
    radius: float, wavelength: float, dipole_length: float | None = None
) -> ArrayLayout:
    """Half-wavelength square lattice clipped to a circular aperture.

    The lattice is centered on the origin (one element sits exactly there)
    and keeps every point with ``hypot(x, y) <= radius``, boundary included.
    ``dipole_length`` defaults to a half wavelength.

    Parameters
    ----------
    radius : float
        Aperture radius in meters.
    wavelength : float
        Carrier wavelength in meters; the lattice pitch is half of it.
    """
    if radius <= 0 or wavelength <= 0:
        raise ValueError("radius and wavelength must be positive")
    if dipole_length is None:
        dipole_length = wavelength / 2.0
    pitch = wavelength / 2.0
    n_max = int(math.floor(radius / pitch))
    coords = np.arange(-n_max, n_max + 1) * pitch
    xx, yy = np.meshgrid(coords, coords)  # rows scan y, columns scan x
    keep = np.hypot(xx, yy) <= radius
    x = xx[keep]
    y = yy[keep]
    positions = np.column_stack((x, y, np.zeros_like(x)))
    return ArrayLayout(
        positions=positions,
        wavelength=wavelength,
        dipole_length=dipole_length,
        radius=radius,
    )


def rx_position(distance: float, alpha: float) -> np.ndarray:
    """Receiver center on the xz plane.

    ``alpha`` is the polar angle from the array normal (z-axis) in radians;
    the result is ``(distance*sin(alpha), 0, distance*cos(alpha))``.
    """
    if distance <= 0:
        raise ValueError("distance must be positive")
    return np.array([distance * math.sin(alpha), 0.0, distance * math.cos(alpha)])


@dataclass(frozen=True)
class RxPose:
    "Receiver placement: range and polar angle of the center, dipole direction."

    distance: float
    alpha: float
    v_hat: np.ndarray

    def __post_init__(self):
        if self.distance <= 0:
            raise ValueError("distance must be positive")
        v = np.array(self.v_hat, dtype=float)
        if v.shape != (3,) or abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ValueError("v_hat must be a 3D unit vector")
        v.setflags(write=False)
        object.__setattr__(self, "v_hat", v)

    @property
    def position(self) -> np.ndarray:
        return rx_position(self.distance, self.alpha)


def orientation_grid(
    azimuth_step: float = math.radians(10.0),
    elevation_step: float = math.radians(10.0),
) -> np.ndarray:
    """Unit receive-dipole directions on a regular (elevation, azimuth) grid.

    Elevation covers [0, pi) and azimuth [0, 2*pi), elevation-major order,
    with ``v = (sin el * cos az, sin el * sin az, cos el)``. The default
    10 degree steps give 18 * 36 = 648 directions.
    """
    n_az = _even_divisions(2.0 * math.pi, azimuth_step, "azimuth_step")
    n_el = _even_divisions(math.pi, elevation_step, "elevation_step")
    az = np.arange(n_az) * azimuth_step
    el = np.arange(n_el) * elevation_step
    el_grid, az_grid = np.meshgrid(el, az, indexing="ij")
    sin_el = np.sin(el_grid)
    dirs = np.column_stack(
        (
            (sin_el * np.cos(az_grid)).ravel(),
            (sin_el * np.sin(az_grid)).ravel(),
            np.cos(el_grid).ravel(),
        )
    )
    return dirs


def _even_divisions(full_range: float, step: float, name: str) -> int:
    if step <= 0:
        raise ValueError(f"{name} must be positive")
    ratio = full_range / step  # overflows to inf for a subnormal step
    n = round(ratio) if math.isfinite(ratio) else 0
    if n < 1 or abs(n * step - full_range) > 1e-9:
        raise ValueError(f"{name} must divide its range evenly")
    return n
