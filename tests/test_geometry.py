import math

import numpy as np
import pytest

from dpcfocus.geometry import (
    SPEED_OF_LIGHT,
    Z_HAT,
    ArrayLayout,
    RxPose,
    build_circular_array,
    orientation_grid,
    rx_position,
)
from oracles import brute_force_disc_count


def test_single_element_array():
    layout = build_circular_array(radius=0.2, wavelength=1.0)
    assert layout.n_tx == 1
    assert np.array_equal(layout.positions, [[0.0, 0.0, 0.0]])


def test_boundary_lattice_points_are_kept():
    layout = build_circular_array(radius=0.5, wavelength=1.0)
    assert layout.n_tx == 5
    got = {(x, y) for x, y, _ in layout.positions.tolist()}
    assert got == {(0.0, 0.0), (0.5, 0.0), (-0.5, 0.0), (0.0, 0.5), (0.0, -0.5)}


def test_full_scale_element_count_matches_enumeration():
    wavelength = SPEED_OF_LIGHT / 300e9
    layout = build_circular_array(radius=0.15, wavelength=wavelength)
    assert layout.n_tx == brute_force_disc_count(0.15, wavelength / 2.0)
    area_estimate = math.pi * (0.15 / (wavelength / 2.0)) ** 2
    assert abs(layout.n_tx - area_estimate) <= 0.01 * area_estimate


def test_layout_reflection_symmetry():
    layout = build_circular_array(radius=2.6, wavelength=1.0)
    points = {(x, y) for x, y, _ in layout.positions.tolist()}
    assert {(-x, y) for x, y in points} == points
    assert {(x, -y) for x, y in points} == points


def test_layout_ordering_is_row_major_by_y_then_x():
    layout = build_circular_array(radius=1.1, wavelength=1.0)
    keys = [(y, x) for x, y, _ in layout.positions.tolist()]
    assert keys == sorted(keys)


def test_layout_elements_lie_in_plane_within_radius():
    layout = build_circular_array(radius=1.3, wavelength=0.7)
    assert np.all(layout.positions[:, 2] == 0.0)
    assert np.all(np.hypot(layout.positions[:, 0], layout.positions[:, 1]) <= 1.3)
    assert layout.dipole_length == 0.35


def test_layout_validation():
    with pytest.raises(ValueError):
        ArrayLayout(
            positions=np.array([[0.0, 0.0, 0.1]]),
            wavelength=1.0, dipole_length=0.5, radius=1.0,
        )
    with pytest.raises(ValueError):
        ArrayLayout(
            positions=np.array([[5.0, 0.0, 0.0]]),
            wavelength=1.0, dipole_length=0.5, radius=1.0,
        )
    with pytest.raises(ValueError):
        build_circular_array(radius=-1.0, wavelength=1.0)


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


def test_rx_pose_validation():
    pose = RxPose(distance=0.5, alpha=math.radians(30.0), v_hat=Z_HAT)
    assert np.allclose(pose.position, rx_position(0.5, math.radians(30.0)))
    with pytest.raises(ValueError):
        RxPose(distance=-1.0, alpha=0.0, v_hat=Z_HAT)
    with pytest.raises(ValueError):
        RxPose(distance=1.0, alpha=0.0, v_hat=np.array([1.0, 1.0, 0.0]))


def test_orientation_grid_default():
    grid = orientation_grid()
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
