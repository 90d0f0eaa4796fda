"""3D geometry: transmit lattice construction and receiver placement.

Sets of 3-vectors, such as the orientation grid, are (m, 3) float64 buffers:
row-major memoryviews of an ``array('d')``, which ``numpy.asarray`` reads
without a copy. Functions that take such a set also take an array of numpy
of any real dtype or a sequence of rows of 3 real numbers.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple

SPEED_OF_LIGHT = 299792458.0
"Speed of light in m/s (exact SI value)."


def _positive_finite(value: float) -> bool:
    return math.isfinite(value) and value > 0


def _rows(values: array) -> memoryview:
    "The float64 ``values``, three to a row, as a read-only (m, 3) view."
    return memoryview(values).cast("B").cast("d", (len(values) // 3, 3)).toreadonly()


def _float64_rows(rows) -> memoryview | None:
    "``rows`` as a memoryview if it is an (m, 3) float64 buffer, else None."
    try:
        view = memoryview(rows)
    except TypeError:
        return None
    return view if view.format == "d" and view.ndim == 2 and view.shape[1] == 3 else None


def _row_lists(rows, what: str) -> list:
    """The (m, 3) ``rows`` as a list of m lists of 3 floats, or ``ValueError`` unless
    ``rows`` is non-empty with three real numbers to a row: an array of numpy of any
    real dtype, a sequence of rows, or the rows this package returns."""
    view = _float64_rows(rows)
    if view is not None:
        values = view.tolist()
    else:
        try:
            values = [[_real(x) for x in _sequence(row)] for row in _sequence(rows)]
        except (TypeError, ValueError):
            values = []
    if not values or any(len(row) != 3 for row in values):
        raise ValueError(f"{what} must be a non-empty (m, 3) array of real numbers")
    return values


def _row_array(rows, what: str) -> array:
    "A float64 array of the 3 m values of ``rows``, row by row, checked as ``_row_lists``."
    view = _float64_rows(rows)
    if view is not None and len(view):
        return array("d", view.tobytes())
    return array("d", [x for row in _row_lists(rows, what) for x in row])


def _sequence(values):
    "``values``, or ``TypeError`` if it is a string: its characters are not numbers."
    if isinstance(values, (str, bytes, bytearray)):
        raise TypeError("a string is not a sequence of numbers")
    return values


def _real(x) -> float:
    """``float(x)`` for a real number ``x``; ``TypeError`` for a string, which ``float``
    would parse, and for an array of one element or more, which is no number."""
    if isinstance(x, (str, bytes, bytearray)) or getattr(x, "ndim", 0) != 0:
        raise TypeError("not a real number")
    return float(x)


class AntennaRows(NamedTuple):
    """A layout's antennas as runs, the form the compiled loop reads them in.

    Run r holds antennas ``first_antenna[r]`` to ``first_antenna[r + 1] - 1``
    in order, all at y = ``y[r]``, with x taken from consecutive entries of
    ``x_table`` from ``first_x[r]`` on; every antenna lies on z = 0.
    ``first_antenna`` ends with the antenna count. In a layout the fields are
    read-only float64 and int64 memoryviews, each over a ``bytes`` object
    (``ArrayLayout``).
    """

    x_table: memoryview
    y: memoryview
    first_x: memoryview
    first_antenna: memoryview


@dataclass(frozen=True, eq=False)
class ArrayLayout:
    """Planar transmit array on z = 0, one crossed pair of half-wave dipoles per element.

    A layout is its row table: ``rows`` fixes the antenna index used by the
    channel vectors and beamformer weights. Beside it the layout holds only
    the carrier ``wavelength``: no computation reads the aperture radius it
    was clipped to, and no (n, 3) positions are kept. The constructor takes
    the fields of ``rows`` as any sequences of numbers and keeps them as
    read-only float64 and int64 memoryviews, each over a ``bytes`` object,
    whose address the compiled loop reads: no write can move an entry it
    reads. Layouts compare by identity. The compiled loop reads the table
    unchecked, and the SNR kernel folds receive directions by the square's
    symmetries, so the constructor is not public: ``build_circular_array``
    makes every layout, a lattice closed under those symmetries, one run per
    kept stretch of each lattice row, row-major by y: y ascending, then x
    ascending within each row.
    """

    rows: AntennaRows
    wavelength: float

    def __post_init__(self):
        table = (_frozen("d", field) for field in self.rows[:2])
        runs = (_frozen("q", field) for field in self.rows[2:])
        object.__setattr__(self, "rows", AntennaRows(*table, *runs))

    @property
    def n_tx(self) -> int:
        return self.rows.first_antenna[-1]


def _frozen(typecode: str, values) -> memoryview:
    "``values`` as a read-only memoryview of ``typecode`` over a ``bytes`` object."
    return memoryview(array(typecode, values).tobytes()).cast(typecode)


def build_circular_array(radius: float, wavelength: float) -> ArrayLayout:
    """Half-wavelength square lattice clipped to a circular aperture.

    The lattice is centered on the origin (one element sits exactly there)
    and keeps every point with ``hypot(x, y) <= radius``, boundary included.

    The coordinates are the integer multiples of the pitch, which are exact
    under negation, and the test is taken on the sorted |x| and |y|, so the
    lattice is closed under all 8 symmetries of the square whatever the
    libm: the symmetries ``fold_placements`` folds receive directions by.
    Its ``rows`` take x from the 2 floor(R / pitch) + 1 coordinates
    themselves, one run per row that keeps a point. The test holds for the
    |x| of a row from 0 up to a bound, which falls as |y| grows, so a row
    keeps one stretch centred on x = 0, and one walk along the rim finds the
    half-widths of all rows (``_kept``).

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
    coords = tuple(i * pitch for i in range(-n_max, n_max + 1))
    kept = _kept(coords[n_max:], radius)  # |coordinate| from the centre out
    y, first_x, first_antenna = [], [], [0]
    for row, at in enumerate(coords):
        k = kept[abs(row - n_max)]  # the row keeps the k innermost |x| on each side
        if k:
            y.append(at)
            first_x.append(n_max - k + 1)
            first_antenna.append(first_antenna[-1] + 2 * k - 1)
    return ArrayLayout(AntennaRows(coords, y, first_x, first_antenna), wavelength)


def _kept(size: tuple, radius: float) -> list:
    """``kept[i]``: how many of the ascending ``size`` (the |x| of a row) pass the
    aperture test ``hypot(max(a, s), min(a, s)) <= radius`` beside a = ``size[i]``.

    The test takes the C library's ``hypot``, which numpy's ``np.hypot`` calls and
    the lattice has always been clipped with: ``math.hypot`` rounds correctly, so on
    a radius through a lattice point it differs from it in the last bit, on
    whichever side, and moves that point across the rim. Each count is the last
    one, lowered while its outermost point fails, so the walk takes about
    2 ``len(size)`` tests.
    """
    import ctypes

    hypot = ctypes.CDLL(None).hypot
    hypot.argtypes, hypot.restype = (ctypes.c_double, ctypes.c_double), ctypes.c_double
    kept, k = [], len(size)
    for a in size:
        while k and not hypot(max(a, size[k - 1]), min(a, size[k - 1])) <= radius:
            k -= 1
        kept.append(k)
    return kept


def rx_position(distance: float, alpha: float) -> tuple[float, float, float]:
    """Receiver center on the xz plane.

    ``alpha`` is the polar angle from the array normal (z-axis) in radians;
    the result is ``(distance*sin(alpha), 0, distance*cos(alpha))``.
    """
    if not (_positive_finite(distance) and math.isfinite(alpha)):
        raise ValueError("distance must be positive and finite, alpha finite")
    return (distance * math.sin(alpha), 0.0, distance * math.cos(alpha))


def orientation_grid(
    azimuth_step: float = math.radians(10.0),
    elevation_step: float = math.radians(10.0),
) -> memoryview:
    """Unit receive-dipole directions on a regular (elevation, azimuth) grid, as (m, 3) rows.

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
    cos_el, sin_el = _full_turn(2 * n_el, elevation_step)
    azimuths = list(zip(cos_az, sin_az))
    return _rows(array("d", [x for se, ce in zip(sin_el[:n_el], cos_el)
                             for ca, sa in azimuths for x in (se * ca, se * sa, ce)]))


def _full_turn(n: int, step: float) -> tuple[list, list]:
    """(cos, sin) of ``i * step`` for i < n, where ``n * step`` is a full turn.

    Entries past an eighth of a turn are copied from their reflections with
    the sign set exactly: i -> n/4 - i (a -> pi/2 - a, which swaps cos and
    sin, and gives pi/4 a sine equal to its cosine) when 4 divides n, then
    i -> n/2 - i (a -> pi - a) for even n, then i -> n - i (a -> -a). A
    quarter turn thus gets a cosine of exactly 0. Each reflection reads
    entries below the half of its range and writes entries above it.
    """
    cos = [math.cos(i * step) for i in range(n)]
    sin = [math.sin(i * step) for i in range(n)]
    if n % 4 == 0:
        quarter = n // 4
        for i in range(quarter // 2 + 1, quarter + 1):
            cos[i], sin[i] = sin[quarter - i], cos[quarter - i]
        if quarter % 2 == 0:
            sin[quarter // 2] = cos[quarter // 2]  # a = pi/4 is its own partner
    if n % 2 == 0:
        half = n // 2
        for i in range(half // 2 + 1, half + 1):
            cos[i], sin[i] = -cos[half - i], sin[half - i]
    for i in range(n // 2 + 1, n):
        cos[i], sin[i] = cos[n - i], -sin[n - i]
    return cos, sin


def orientation_classes(directions, mirror: bool, square: bool = False) -> tuple[tuple, tuple]:
    """Group receive directions whose SNRs are equal by symmetry.

    v and -v always give the same channel magnitudes. With ``mirror``, so do
    (vx, vy, vz) and (vx, -vy, vz), which holds when the RX center lies on
    the xz plane and the layout is closed under y -> -y. With ``square``,
    every sign change of vx, vy and vz and the swap vx <-> vy give the same
    SNRs, which holds when the RX center lies on the z axis and the layout
    is closed under all 8 symmetries of the square, as every lattice of
    ``build_circular_array`` is: x -> -x and y -> -y map every
    dipole's |h| to itself, and x <-> y swaps sum_k |h_x,k| and
    sum_k |h_y,k|, which the three SNRs treat alike. ``directions`` are
    (m, 3) rows of real numbers. Returns ``(first, inverse)``, tuples of ints:
    ``directions[first[c]]`` is the first member of class c and
    ``inverse[i]`` is the class of ``directions[i]``.

    Each direction is reduced to a canonical form with sign changes and a
    swap only ((max(|vx|, |vy|), min(|vx|, |vy|), |vz|) with ``square``),
    and classes are formed by exact equality of those forms, never by a
    tolerance: a direction with no exact partner is a class of its own.
    Classes are numbered in the ascending order of their forms.
    """
    return _classes(_row_lists(directions, "directions"), mirror, square)


def _classes(directions: list, mirror: bool, square: bool) -> tuple[tuple, tuple]:
    "``orientation_classes`` of ``directions``, a list of rows of 3 floats."
    forms = []
    for x, y, z in directions:
        if square:
            x, y, z = max(abs(x), abs(y)), min(abs(x), abs(y)), abs(z)
        else:
            lead = z if z != 0.0 else x if x != 0.0 else y
            if lead < 0.0:
                x, y, z = -x, -y, -z
            if mirror:
                y = abs(y)
        forms.append((x + 0.0, y + 0.0, z + 0.0))  # -0.0 -> +0.0
    first = {}
    for i, form in enumerate(forms):
        first.setdefault(form, i)
    ordered = sorted(first)
    number = {form: c for c, form in enumerate(ordered)}
    return tuple(first[form] for form in ordered), tuple(number[form] for form in forms)


def _even_divisions(full_range: float, step: float, name: str) -> int:
    if step <= 0:
        raise ValueError(f"{name} must be positive")
    ratio = full_range / step  # overflows to inf for a subnormal step
    n = round(ratio) if math.isfinite(ratio) else 0
    if n < 1 or abs(n * step - full_range) > 1e-9:
        raise ValueError(f"{name} must divide its range evenly")
    return n
