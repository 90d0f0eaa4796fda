"""3D geometry: transmit lattice construction and receiver placement."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def mirror_symmetric(self) -> bool:
        """Whether the positions are closed under the reflection y -> -y.

        Worked out exactly on first use and cached (about 60 ms for 283 000
        elements on a 2-vCPU Xeon), so layout construction does not pay for it.
        """
        x = self.positions[:, 0]
        y = self.positions[:, 1]
        order = np.lexsort((y, x))
        mirrored = np.lexsort((-y, x))
        return bool(
            np.array_equal(x[order], x[mirrored]) and np.array_equal(y[order], -y[mirrored])
        )


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

    The sine and cosine tables are exactly symmetric under the reflections
    the steps admit (az -> -az; az -> pi - az for an even azimuth count;
    el -> pi - el), so cos 90 deg and sin 180 deg are exactly 0, and when
    -v or (vx, -vy, vz) of a grid direction v lies on the grid, it lies
    there exactly, as ``orientation_classes`` requires.
    """
    n_az = _even_divisions(2.0 * math.pi, azimuth_step, "azimuth_step")
    n_el = _even_divisions(math.pi, elevation_step, "elevation_step")
    cos_az, sin_az = _full_turn(n_az, azimuth_step)
    # n_el steps of elevation are half of a 2 * n_el step turn
    cos_el, sin_el = _full_turn(2 * n_el, elevation_step)[:, :n_el]
    dirs = np.column_stack(
        (
            np.multiply.outer(sin_el, cos_az).ravel(),
            np.multiply.outer(sin_el, sin_az).ravel(),
            np.repeat(cos_el, n_az),
        )
    )
    return dirs


def _full_turn(n: int, step: float) -> np.ndarray:
    """(cos, sin) of ``i * step`` for i < n, where ``n * step`` is a full turn.

    Entries past a quarter turn are copied from their reflections with the
    sign set exactly: i -> n/2 - i (a -> pi - a) for even n, then i -> n - i
    (a -> -a). A quarter turn gets a cosine of exactly 0.
    """
    i = np.arange(n)
    table = np.stack((np.cos(i * step), np.sin(i * step)))
    if n % 2 == 0:
        half = n // 2
        up = i[(2 * i > half) & (i <= half)]
        table[:, up] = table[:, half - up] * [[-1.0], [1.0]]
        if half % 2 == 0:
            table[0, half // 2] = 0.0
    up = i[2 * i > n]
    table[:, up] = table[:, n - up] * [[1.0], [-1.0]]
    return table


def orientation_classes(directions, mirror: bool) -> tuple[np.ndarray, np.ndarray]:
    """Group receive directions whose SNRs are equal by symmetry.

    v and -v always give the same channel magnitudes. With ``mirror``, so do
    (vx, vy, vz) and (vx, -vy, vz), which holds when the RX center lies on
    the xz plane and the layout is closed under y -> -y. Returns
    ``(first, inverse)``: ``directions[first]`` holds one member of each
    class and ``inverse[i]`` is the class of ``directions[i]``.

    Each direction is reduced to a canonical form with sign changes only,
    and classes are formed by exact equality of those forms, never by a
    tolerance: a direction with no exact partner is a class of its own.
    """
    v = np.array(directions, dtype=float)
    lead = np.where(v[:, 2] != 0.0, v[:, 2], np.where(v[:, 0] != 0.0, v[:, 0], v[:, 1]))
    v[lead < 0.0] *= -1.0
    if mirror:
        v[:, 1] = np.abs(v[:, 1])
    v += 0.0  # -0.0 -> +0.0
    _, first, inverse = np.unique(v, axis=0, return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)  # numpy 2.0.0 returns inverse as (m, 1)


def _even_divisions(full_range: float, step: float, name: str) -> int:
    if step <= 0:
        raise ValueError(f"{name} must be positive")
    ratio = full_range / step  # overflows to inf for a subnormal step
    n = round(ratio) if math.isfinite(ratio) else 0
    if n < 1 or abs(n * step - full_range) > 1e-9:
        raise ValueError(f"{name} must divide its range evenly")
    return n
