"""3D geometry: transmit lattice construction and receiver placement."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

SPEED_OF_LIGHT = 299792458.0
"Speed of light in m/s (exact SI value)."

X_HAT = np.array([1.0, 0.0, 0.0])
Y_HAT = np.array([0.0, 1.0, 0.0])
Z_HAT = np.array([0.0, 0.0, 1.0])

LATTICE_CHUNK = 1 << 14
"""Lattice points whose clip test ``build_circular_array`` takes at a time.

A chunk is whole rows of the lattice, at least one, tested on their x >= 0
half, so the build holds at most about 40 bytes per chunk point beside its
row table (0.6 MiB) and nothing that spans the lattice's bounding square.
"""


def _positive_finite(value: float) -> bool:
    return math.isfinite(value) and value > 0


class AntennaRows(NamedTuple):
    """A layout's antennas as runs, the form the compiled loop reads them in.

    Run r holds antennas ``first_antenna[r]`` to ``first_antenna[r + 1] - 1``
    in order, all at y = ``y[r]``, with x taken from consecutive entries of
    ``x_table`` from ``first_x[r]`` on; every antenna lies on z = 0.
    ``first_antenna`` ends with the antenna count. The float arrays are
    contiguous float64 and the index arrays contiguous int64.
    """

    x_table: np.ndarray
    y: np.ndarray
    first_x: np.ndarray
    first_antenna: np.ndarray


@dataclass(frozen=True, eq=False)
class ArrayLayout:
    """Planar transmit array on z = 0, one crossed pair of half-wave dipoles per element.

    A layout is its row table: ``rows`` fixes the antenna index used by the
    channel vectors and beamformer weights, and its arrays are made
    read-only. Beside them it holds only the carrier ``wavelength``: no
    computation reads the aperture radius it was clipped to, and no (n, 3)
    positions are kept. Layouts compare by identity. The compiled loop reads
    ``rows`` unchecked, and the SNR kernel folds receive directions by the
    square's symmetries, so the constructor is not public:
    ``build_circular_array`` makes every layout, a lattice closed under
    those symmetries, one run per kept stretch of each lattice row,
    row-major by y: y ascending, then x ascending within each row.
    """

    rows: AntennaRows
    wavelength: float

    def __post_init__(self):
        for array in self.rows:
            array.setflags(write=False)

    @property
    def n_tx(self) -> int:
        return int(self.rows.first_antenna[-1])


def build_circular_array(radius: float, wavelength: float) -> ArrayLayout:
    """Half-wavelength square lattice clipped to a circular aperture.

    The lattice is centered on the origin (one element sits exactly there)
    and keeps every point with ``hypot(x, y) <= radius``, boundary included.

    The coordinates are the integer multiples of the pitch, which are exact
    under negation, and the test is taken on the sorted |x| and |y|, so the
    lattice is closed under all 8 symmetries of the square whatever the
    libm: the symmetries ``fold_placements`` folds receive directions by.
    Its ``rows`` take x from the 2 floor(R / pitch) + 1 coordinates
    themselves, one run per kept stretch of each row.

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
    runs = np.concatenate([_stretches(r0, kept) for r0, kept in _kept_rows(coords, size, radius)],
                          axis=1)
    row, first_x, stop = runs
    rows = AntennaRows(coords, coords[row], first_x, np.append(0, np.cumsum(stop - first_x)))
    return ArrayLayout(rows, wavelength)


def _stretches(r0: int, kept) -> np.ndarray:
    """The (row, first, stop) columns of a (3, s) int64 array, one per stretch of
    consecutive kept points, in order: row ``r0 + row`` keeps columns ``first`` to
    ``stop - 1`` of ``kept``."""
    edges = np.diff(kept, axis=1, prepend=False, append=False)  # where a stretch starts or stops
    row, column = np.nonzero(edges)  # row-major: each stretch's start, then its stop
    return np.stack((r0 + row[::2], column[::2], column[1::2])).astype(np.int64, copy=False)


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
    is closed under all 8 symmetries of the square, as every lattice of
    ``build_circular_array`` is: x -> -x and y -> -y map every
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
