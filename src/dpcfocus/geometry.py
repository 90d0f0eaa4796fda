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

LATTICE_CHUNK = 1 << 14
"""Lattice points whose clip test ``build_circular_array`` takes at a time.

A chunk is whole rows of the lattice's x >= 0 half, at least one row, so
the build holds at most about 40 bytes per chunk point beside the positions
(0.6 MiB) and nothing that spans the lattice's bounding square.
``ArrayLayout`` checks that positions are finite and within its radius on as
many positions at a time.
"""


def _positive_finite(value: float) -> bool:
    return math.isfinite(value) and value > 0


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
        if not all(map(_positive_finite, (self.wavelength, self.dipole_length, self.radius))):
            raise ValueError("wavelength, dipole_length and radius must be positive and finite")
        if pos[:, 2].any():
            raise ValueError("array elements must lie on the z = 0 plane")
        for k0 in range(0, pos.shape[0], LATTICE_CHUNK):
            chunk = pos[k0:k0 + LATTICE_CHUNK]
            if not np.isfinite(chunk).all():  # hypot(nan, y) > radius is False
                raise ValueError("array element positions must be finite")
            if np.any(np.hypot(chunk[:, 0], chunk[:, 1]) > self.radius * (1.0 + 1e-12)):
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
        elements on a 2-vCPU Xeon), so constructing a layout does not pay for
        it; ``build_circular_array`` records it instead, as its lattice is
        closed by construction.
        """
        x, y = self.positions[:, 0], self.positions[:, 1]
        return _same_points(x, y, x, -y)

    @cached_property
    def square_symmetric(self) -> bool:
        """Whether the positions are closed under all 8 symmetries of the square.

        These are generated by y -> -y and x <-> y, so this is
        ``mirror_symmetric`` and closure under the swap, each checked exactly
        by sorting, on first use, and cached.
        """
        x, y = self.positions[:, 0], self.positions[:, 1]
        return self.mirror_symmetric and _same_points(x, y, y, x)


def _same_points(x, y, x2, y2) -> bool:
    "Whether the points (x, y) and (x2, y2) are the same multiset, compared exactly."
    order = np.lexsort((y, x))
    other = np.lexsort((y2, x2))
    return bool(np.array_equal(x[order], x2[other]) and np.array_equal(y[order], y2[other]))


def build_circular_array(radius: float, wavelength: float) -> ArrayLayout:
    """Half-wavelength square lattice clipped to a circular aperture.

    The lattice is centered on the origin (one element sits exactly there)
    and keeps every point with ``hypot(x, y) <= radius``, boundary included.
    Its dipoles are half a wavelength long.

    The coordinates are the integer multiples of the pitch, which are exact
    under negation, and the test is taken on the sorted |x| and |y|, so the
    lattice is closed under all 8 symmetries of the square whatever the
    libm; the layout records ``mirror_symmetric`` and ``square_symmetric``
    as true instead of sorting its positions to find out.

    Parameters
    ----------
    radius : float
        Aperture radius in meters.
    wavelength : float
        Carrier wavelength in meters; the lattice pitch is half of it.
    """
    if not (_positive_finite(radius) and _positive_finite(wavelength)):
        raise ValueError("radius and wavelength must be positive and finite")
    pitch = wavelength / 2.0
    n_max = int(math.floor(radius / pitch))
    coords = np.arange(-n_max, n_max + 1) * pitch
    size = coords[n_max:]  # |coordinate| from the centre out, exact under negation
    # rows scan y; the rows at y and -y keep the same points, so count those at y >= 0
    half = np.concatenate([kept.sum(axis=1) for _, kept in _kept_rows(size, size, radius)])
    counts = np.concatenate((half[:0:-1], half))
    starts = np.concatenate(([0], np.cumsum(counts)))
    positions = np.zeros((int(starts[-1]), 3))
    for r0, kept in _kept_rows(coords, size, radius):
        r1 = r0 + kept.shape[0]
        rows = slice(starts[r0], starts[r1])
        positions[rows, 0] = np.broadcast_to(coords, kept.shape)[kept]
        positions[rows, 1] = np.repeat(coords[r0:r1], counts[r0:r1])
    layout = ArrayLayout(
        positions=positions,
        wavelength=wavelength,
        dipole_length=wavelength / 2.0,
        radius=radius,
    )
    vars(layout).update(mirror_symmetric=True, square_symmetric=True)
    return layout


def _kept_rows(ys, size, radius: float):
    """Yield ``(first, kept)`` for chunks of the lattice rows at ``ys``, in order.

    ``kept[i]`` marks the points of row ``ys[first + i]`` in the aperture,
    over the columns at x = -size[-1], ..., size[-1] (``size`` ascends from
    0). The test is taken on the x >= 0 half, ``LATTICE_CHUNK`` points at a
    time, and mirrored onto x < 0, whose |x| are the same floats.
    """
    step = max(1, LATTICE_CHUNK // size.size)
    for first in range(0, ys.size, step):
        a = np.abs(ys[first:first + step])
        radial = np.maximum.outer(a, size)
        np.hypot(radial, np.minimum.outer(a, size), out=radial)
        kept = radial <= radius
        del radial
        yield first, np.concatenate((kept[:, :0:-1], kept), axis=1)


def rx_position(distance: float, alpha: float) -> np.ndarray:
    """Receiver center on the xz plane.

    ``alpha`` is the polar angle from the array normal (z-axis) in radians;
    the result is ``(distance*sin(alpha), 0, distance*cos(alpha))``.
    """
    if not (_positive_finite(distance) and math.isfinite(alpha)):
        raise ValueError("distance must be positive and finite, alpha finite")
    return np.array([distance * math.sin(alpha), 0.0, distance * math.cos(alpha)])


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
    az -> pi/2 - az when 4 divides it; el -> pi - el), so cos 90 deg and
    sin 180 deg are exactly 0, and when -v, (vx, -vy, vz) or (vy, vx, vz)
    of a grid direction v lies on the grid, it lies there exactly, as
    ``orientation_classes`` requires.
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

    Entries past an eighth of a turn are copied from their reflections with
    the sign set exactly: i -> n/4 - i (a -> pi/2 - a, which swaps cos and
    sin, and gives pi/4 a sine equal to its cosine) when 4 divides n, then
    i -> n/2 - i (a -> pi - a) for even n, then i -> n - i (a -> -a). A
    quarter turn thus gets a cosine of exactly 0.
    """
    i = np.arange(n)
    table = np.stack((np.cos(i * step), np.sin(i * step)))
    if n % 4 == 0:
        quarter = n // 4
        up = i[(2 * i > quarter) & (i <= quarter)]
        table[:, up] = table[::-1, quarter - up]
        if quarter % 2 == 0:
            table[1, quarter // 2] = table[0, quarter // 2]  # a = pi/4 is its own partner
    if n % 2 == 0:
        half = n // 2
        up = i[(2 * i > half) & (i <= half)]
        table[:, up] = table[:, half - up] * [[-1.0], [1.0]]
    up = i[2 * i > n]
    table[:, up] = table[:, n - up] * [[1.0], [-1.0]]
    return table


def orientation_classes(
    directions, mirror: bool, square: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Group receive directions whose SNRs are equal by symmetry.

    v and -v always give the same channel magnitudes. With ``mirror``, so do
    (vx, vy, vz) and (vx, -vy, vz), which holds when the RX center lies on
    the xz plane and the layout is closed under y -> -y. With ``square``,
    every sign change of vx, vy and vz and the swap vx <-> vy give the same
    SNRs, which holds when the RX center lies on the z axis and the layout
    is closed under all 8 symmetries of the square
    (``ArrayLayout.square_symmetric``): x -> -x and y -> -y map every
    dipole's |h| to itself, and x <-> y swaps sum_k |h_x,k| and
    sum_k |h_y,k|, which the three SNRs treat alike. Returns
    ``(first, inverse)``: ``directions[first]`` holds one member of each
    class and ``inverse[i]`` is the class of ``directions[i]``.

    Each direction is reduced to a canonical form with sign changes and a
    swap only ((max(|vx|, |vy|), min(|vx|, |vy|), |vz|) with ``square``),
    and classes are formed by exact equality of those forms, never by a
    tolerance: a direction with no exact partner is a class of its own.
    """
    v = np.array(directions, dtype=float)
    if square:
        a = np.abs(v)
        v = np.column_stack((np.maximum(a[:, 0], a[:, 1]), np.minimum(a[:, 0], a[:, 1]), a[:, 2]))
    else:
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
