import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dpcfocus
from dpcfocus.channel import _positions
from dpcfocus.geometry import (
    SPEED_OF_LIGHT,
    build_circular_array,
    orientation_classes,
    orientation_grid,
    rx_position,
)
from oracles import (
    brute_force_disc_count,
    explicit_layout,
    numpy_lattice_rows,
    numpy_orientation_classes,
    numpy_orientation_grid,
    reference_lattice,
)


def test_single_element_array():
    layout = build_circular_array(radius=0.2, wavelength=1.0)
    assert layout.n_tx == 1
    assert np.array_equal(_positions(layout), [[0.0, 0.0, 0.0]])


def test_boundary_lattice_points_are_kept():
    layout = build_circular_array(radius=0.5, wavelength=1.0)
    assert layout.n_tx == 5
    got = {(x, y) for x, y, _ in _positions(layout).tolist()}
    assert got == {(0.0, 0.0), (0.5, 0.0), (-0.5, 0.0), (0.0, 0.5), (0.0, -0.5)}


def test_full_scale_element_count_matches_enumeration():
    wavelength = SPEED_OF_LIGHT / 300e9
    layout = build_circular_array(radius=0.15, wavelength=wavelength)
    assert layout.n_tx == brute_force_disc_count(0.15, wavelength / 2.0)
    area_estimate = math.pi * (0.15 / (wavelength / 2.0)) ** 2
    assert abs(layout.n_tx - area_estimate) <= 0.01 * area_estimate


@pytest.mark.parametrize(
    "radius, wavelength",
    # (0.5, 0) and (1.5, 2) lie exactly on the circle at the first two
    [(0.5, 1.0), (2.5, 1.0), (2.6, 1.0), (0.008, SPEED_OF_LIGHT / 300e9),
     (0.15, SPEED_OF_LIGHT / 300e9)],
)
def test_lattice_positions_are_the_reference_lattice(radius, wavelength):
    layout = build_circular_array(radius, wavelength)
    want = reference_lattice(radius, wavelength / 2.0)
    positions = _positions(layout)
    assert positions.shape == want.shape
    assert positions.tobytes() == want.tobytes()
    # one run per row, each taking x from the lattice's 2 floor(R / pitch) + 1 coordinates
    side = 2 * math.floor(radius / (wavelength / 2.0)) + 1
    assert len(layout.rows.x_table) == side and len(layout.rows.y) == side


@pytest.mark.parametrize(
    "radius, wavelength",
    [(2.6, 1.0), (0.7, 1.0), (0.008, SPEED_OF_LIGHT / 300e9), (0.3, 0.07), (1.0, 0.3),
     # radii R / pitch through a lattice point: on an axis, off the diagonal and on it
     (5 * 0.5, 1.0),
     (math.hypot(3, 4) * SPEED_OF_LIGHT / 300e9 / 2, SPEED_OF_LIGHT / 300e9),
     (math.hypot(3, 3) * 0.07 / 2, 0.07)],
)
def test_layout_reflection_symmetry(radius, wavelength):
    # fold_placements folds by the square's symmetries for every layout, so the lattice
    # must be closed under them exactly: x -> -x, y -> -y and x <-> y generate all 8
    layout = build_circular_array(radius, wavelength)
    points = {(x, y) for x, y, _ in _positions(layout).tolist()}
    assert len(points) == layout.n_tx
    assert {(-x, y) for x, y in points} == points
    assert {(x, -y) for x, y in points} == points
    assert {(y, x) for x, y in points} == points


def test_layout_ordering_is_row_major_by_y_then_x():
    layout = build_circular_array(radius=1.1, wavelength=1.0)
    keys = [(y, x) for x, y, _ in _positions(layout).tolist()]
    assert keys == sorted(keys)


def test_layout_elements_lie_in_plane_within_radius():
    layout = build_circular_array(radius=1.3, wavelength=0.7)
    x, y, z = _positions(layout).T
    assert np.all(z == 0.0)
    assert np.all(np.hypot(x, y) <= 1.3)


def test_lattice_refuses_a_negative_radius():
    with pytest.raises(ValueError, match="positive and finite"):
        build_circular_array(radius=-1.0, wavelength=1.0)


@pytest.mark.parametrize("bad", [0.0, -0.0, -math.inf])
@pytest.mark.parametrize("argument", ["radius", "wavelength"])
def test_lattice_refuses_a_size_that_is_not_positive(argument, bad):
    sizes = {"radius": 0.01, "wavelength": 1e-3, argument: bad}
    with pytest.raises(ValueError, match="positive and finite"):
        build_circular_array(**sizes)


@pytest.mark.parametrize("field", ["x_table", "y", "first_x", "first_antenna"])
def test_layout_arrays_are_read_only(field):
    # the compiled loop reads the table at the address of each field's bytes, unchecked
    layout = build_circular_array(radius=1.1, wavelength=1.0)
    values = getattr(layout.rows, field)
    assert values.readonly and isinstance(values.obj, bytes)
    with pytest.raises(TypeError, match="read-only"):
        values[0] = 1


def test_layouts_compare_and_hash_by_identity():
    layout, twin = build_circular_array(0.01, 1e-3), build_circular_array(0.01, 1e-3)
    assert layout == layout and layout != twin
    assert len({layout, twin, layout}) == 2


def test_the_layout_constructor_is_not_public():
    # the kernel reads rows unchecked and folds by the lattice's symmetries
    assert "ArrayLayout" not in dpcfocus.__all__


def test_explicit_layout_rebuilds_its_positions_bit_for_bit():
    positions = np.array([[0.5, -0.0, 0.0], [-0.5, 0.0, 0.0], [0.0, 0.0, 0.0],
                          [1.0, 0.25, 0.0], [-1.0, 0.25, 0.0], [0.0, -0.0, 0.0]])
    layout = explicit_layout(positions, wavelength=1.0)
    assert _positions(layout).tobytes() == positions.tobytes()
    # a run is a stretch of equal y bits, so -0.0 and 0.0 start separate runs
    assert layout.rows.first_antenna.tolist() == [0, 1, 3, 5, 6]
    assert layout.rows.x_table.tolist() == positions[:, 0].tolist()


def test_rx_position_cases():
    assert np.allclose(rx_position(1.0, 0.0), [0.0, 0.0, 1.0])
    assert np.allclose(rx_position(1.0, math.pi / 2), [1.0, 0.0, 0.0], atol=1e-12)
    p = rx_position(0.15, math.pi / 6)
    assert np.allclose(p, [0.075, 0.0, 0.15 * math.sqrt(3.0) / 2.0], atol=1e-15)


def test_rx_position_norm_and_zero_y():
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = float(rng.uniform(0.01, 5.0))
        a = float(rng.uniform(-math.pi, math.pi))
        p = rx_position(d, a)
        assert p[1] == 0.0
        assert math.isclose(float(np.linalg.norm(p)), d, rel_tol=1e-12)
    with pytest.raises(ValueError):
        rx_position(0.0, 0.3)


def test_orientation_grid_default():
    grid = np.asarray(orientation_grid())
    assert grid.shape == (648, 3)
    assert np.array_equal(grid[0], [0.0, 0.0, 1.0])
    # elevation-major ordering: el=90deg, az=90deg sits at 9*36 + 9
    assert np.allclose(grid[9 * 36 + 9], [0.0, 1.0, 0.0], atol=1e-12)
    assert np.max(np.abs(np.linalg.norm(grid, axis=1) - 1.0)) <= 1e-12


def test_orientation_grid_custom_steps():
    grid = orientation_grid(
        azimuth_step=math.radians(30.0), elevation_step=math.radians(30.0)
    )
    assert grid.shape == (12 * 6, 3)


def test_orientation_grid_rejects_uneven_steps():
    with pytest.raises(ValueError):
        orientation_grid(azimuth_step=math.radians(7.0))
    with pytest.raises(ValueError):
        orientation_grid(elevation_step=math.radians(13.0))
    with pytest.raises(ValueError):
        orientation_grid(azimuth_step=-1.0)


@pytest.mark.parametrize(
    "az_deg, el_deg", [(10, 10), (30, 20), (40, 10), (7.5, 10), (10, 7.5), (72, 36)]
)
def test_orientation_grid_partners_are_exact_reflections(az_deg, el_deg):
    n_az = round(360 / az_deg)
    n_el = round(180 / el_deg)
    grid = np.asarray(orientation_grid(math.radians(az_deg), math.radians(el_deg)))
    grid = grid.reshape(n_el, n_az, 3)
    j = np.arange(n_az)
    # azimuth j -> n_az - j is vy -> -vy
    assert np.array_equal(grid[:, -j % n_az], grid * [1.0, -1.0, 1.0])
    if n_az % 2 == 0:
        # azimuth j -> n_az/2 - j (a -> pi - a) is vx -> -vx
        assert np.array_equal(grid[:, (n_az // 2 - j) % n_az], grid * [-1.0, 1.0, 1.0])
    # elevation i -> n_el - i is vz -> -vz
    assert np.array_equal(grid[n_el - np.arange(1, n_el)], grid[1:] * [1.0, 1.0, -1.0])


# Orbit counts: the pole is one class; with the mirror, each pair of elevation rings
# (el, pi - el) of n_az directions gives (2 * n_az + 4) / 4 classes and the equator
# (n_az + 4) / 4, when n_az is even. With an odd n_az only the mirror has partners.
# The square's 16-element group (with v -> -v) folds a ring pair into (n_az + 8) / 8
# classes and the equator into (n_az + 8) / 16 when 4 divides n_az.
@pytest.mark.parametrize(
    "az_deg, el_deg, mirrored, unmirrored, squared",
    [(10, 10, 163, 307, 46), (30, 20, 29, 49, 9), (40, 10, 86, 154, 46),
     (7.5, 10, 214, 409, 64)],
)
def test_orientation_class_counts(az_deg, el_deg, mirrored, unmirrored, squared):
    grid = orientation_grid(math.radians(az_deg), math.radians(el_deg))
    assert len(orientation_classes(grid, mirror=True)[0]) == mirrored
    assert len(orientation_classes(grid, mirror=False)[0]) == unmirrored
    assert len(orientation_classes(grid, True, True)[0]) == squared


@pytest.mark.parametrize("az_deg, el_deg", [(10, 10), (30, 20), (7.5, 10), (90, 45)])
def test_orientation_grid_is_exactly_symmetric_under_the_swap(az_deg, el_deg):
    # azimuth j -> n_az/4 - j (az -> 90 deg - az) is vx <-> vy when 4 divides n_az
    n_az = round(360 / az_deg)
    n_el = round(180 / el_deg)
    grid = np.asarray(orientation_grid(math.radians(az_deg), math.radians(el_deg)))
    grid = grid.reshape(n_el, n_az, 3)
    j = np.arange(n_az)
    assert np.array_equal(grid[:, (n_az // 4 - j) % n_az], grid[:, :, [1, 0, 2]])


@pytest.mark.parametrize("mirror, square", [(False, False), (True, False), (True, True)])
def test_orientation_class_members_are_sign_flips_of_their_representative(mirror, square):
    grid = np.random.default_rng(5).permutation(np.asarray(orientation_grid()))
    first, inverse = map(np.array, orientation_classes(grid, mirror, square))
    assert np.array_equal(inverse[first], np.arange(first.size))
    rep = grid[first][inverse]
    if square:
        signs = np.array(np.meshgrid([1.0, -1.0], [1.0, -1.0], [1.0, -1.0])).reshape(3, -1).T
        images = [rep[:, axes] * t for axes in ([0, 1, 2], [1, 0, 2]) for t in signs]
    else:
        transforms = [[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]]
        if mirror:
            transforms += [[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0]]
        images = [rep * t for t in transforms]
    related = np.zeros(grid.shape[0], dtype=bool)
    for image in images:
        related |= np.all(grid == image, axis=1)
    assert related.all()


@pytest.mark.parametrize("convert", [
    lambda grid: grid.tolist(),
    lambda grid: [tuple(row) for row in grid.tolist()],
    lambda grid: list(grid),
    lambda grid: grid.astype(np.float32).astype(np.float64),
    lambda grid: np.asfortranarray(grid),
], ids=["lists", "tuples", "numpy-rows", "float64-copy", "fortran"])
def test_orientation_classes_take_any_rows_of_real_numbers(convert):
    grid = np.asarray(orientation_grid(math.radians(30.0), math.radians(20.0)))
    want = orientation_classes(grid, mirror=True)
    assert orientation_classes(convert(grid), mirror=True) == want
    ints = np.array([[0, 0, 1], [0, 0, -1], [1, 0, 0]])
    assert orientation_classes(ints, mirror=True) == orientation_classes(ints * 1.0, True)
    assert orientation_classes(ints.tolist(), mirror=True) == ((0, 2), (0, 0, 1))


@pytest.mark.parametrize("rows", [
    [], np.empty((0, 3)), [[1.0, 0.0]], [[1.0, 0.0, 0.0, 0.0]], np.zeros(3), "100",
    ["100"], [["1", "0", "0"]], [[np.zeros(1), 0.0, 1.0]], np.zeros((2, 3, 1)),
], ids=["empty-list", "empty-array", "short-row", "long-row", "flat", "string",
        "row-string", "number-strings", "array-entry", "three-d"])
def test_orientation_classes_refuse_what_is_not_rows_of_three_numbers(rows):
    with pytest.raises(ValueError, match=r"non-empty \(m, 3\) array of real numbers"):
        orientation_classes(rows, mirror=True)


def test_orientation_classes_never_group_by_tolerance():
    rng = np.random.default_rng(9)
    v = rng.normal(size=(200, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    first, inverse = map(np.array, orientation_classes(v, mirror=True))
    assert first.size == 200 and np.array_equal(first[inverse], np.arange(200))
    # an exact negation is the same class, one ulp off is not
    exact = np.array([[0.6, 0.0, 0.8], [-0.6, -0.0, -0.8]])
    assert len(orientation_classes(exact, mirror=False)[0]) == 1
    exact[1, 2] = np.nextafter(-0.8, 0.0)
    assert len(orientation_classes(exact, mirror=True)[0]) == 2
    assert len(orientation_classes(exact, True, True)[0]) == 2
    swapped = np.array([[0.6, 0.0, 0.8], [0.0, -0.6, 0.8], [0.0, np.nextafter(0.6, 1.0), 0.8]])
    assert len(orientation_classes(swapped, True, True)[0]) == 2


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    wavelength=st.floats(1e-4, 10.0),
    pitches=st.floats(0.5, 80.0),
    point=st.tuples(st.integers(0, 60), st.integers(1, 60)),
    on_a_point=st.booleans(),
)
def test_the_row_table_is_the_numpy_oracles(wavelength, pitches, point, on_a_point):
    # the bisection of each row against numpy's test of every point, bit for bit; half the
    # radii run through a lattice point, hypot(i p, j p), where the test is decided by
    # the last bit
    pitch = wavelength / 2.0
    radius = math.hypot(point[0] * pitch, point[1] * pitch) if on_a_point else pitches * pitch
    got = build_circular_array(radius, wavelength).rows
    want = numpy_lattice_rows(radius, wavelength)
    for got_field, want_field in zip(got, want, strict=True):
        assert np.array(got_field, dtype=want_field.dtype).tobytes() == want_field.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(n_az=st.integers(1, 72), n_el=st.integers(1, 36))
def test_the_grid_and_its_classes_are_the_numpy_oracles(n_az, n_el):
    # math.cos and math.sin against numpy's, and classes by equal tuples against
    # np.unique: the same directions, members and class order, bit for bit
    steps = math.radians(360.0 / n_az), math.radians(180.0 / n_el)
    grid = orientation_grid(*steps)
    want = numpy_orientation_grid(*steps)
    assert np.asarray(grid).tobytes() == want.tobytes()
    for mirror, square in ((False, False), (True, False), (True, True)):
        first, inverse = numpy_orientation_classes(want, mirror, square)
        assert orientation_classes(grid, mirror, square) == (tuple(first.tolist()),
                                                             tuple(inverse.tolist()))
