import cmath
import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from dpcfocus.beamforming import HALF_WAVE_SERIES
from dpcfocus.channel import (
    ChannelGeometry,
    PolarizedChannel,
    _pattern,
    _positions,
    _transverse_unit,
)
from dpcfocus.geometry import (
    SPEED_OF_LIGHT,
    X_HAT,
    Y_HAT,
    Z_HAT,
    build_circular_array,
    rx_position,
)
from oracles import (
    decimal_chebyshev_value,
    decimal_pattern,
    decimal_pattern_coefficients,
    economized_pattern_series,
    explicit_layout,
    scalar_channel,
    scalar_gain,
)


def single_element_layout(wavelength=1.0):
    return explicit_layout(np.zeros((1, 3)), wavelength)


def rotation_about_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def pattern_at(theta):
    "The dipole pattern at polar angles ``theta`` (an array), through ``_pattern``."
    return _pattern(np.cos(np.atleast_1d(np.asarray(theta, dtype=float))))


def transverse(u, p_hat):
    "``_transverse_unit`` of one dipole ``u`` and one unit ray ``p_hat``."
    u, p_hat = np.asarray(u, dtype=float), np.asarray(p_hat, dtype=float)
    return _transverse_unit(u, p_hat[None, :], np.array([np.dot(u, p_hat)]))[0]


def test_scalar_gain_free_space_reference_points():
    # co-polarized dipoles broadside to the ray: both patterns and the projection are 1,
    # so the gain is the free-space term lambda / (4 pi r) exp(-2 pi j r / lambda)
    g = scalar_gain((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0), 1.0, 0.5)
    assert math.isclose(abs(g), 1.0 / (4.0 * math.pi), rel_tol=1e-12)
    assert abs(g.imag) < 1e-12  # phase is 0 mod 2*pi at one wavelength

    g2 = scalar_gain((1.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 2.0, 0.0), 1.0, 0.5)
    assert math.isclose(abs(g2), 1.0 / (8.0 * math.pi), rel_tol=1e-12)
    assert abs(g2.imag) < 1e-12

    g3 = scalar_gain((0.0, 1.0, 0.0), (0.0, 1.0, 0.0), (0.25, 0.0, 0.0), 1.0, 0.5)
    assert math.isclose(abs(g3), 1.0 / math.pi, rel_tol=1e-12)
    assert math.isclose(cmath.phase(g3), -math.pi / 2.0, rel_tol=1e-12)


def test_pattern_reference_points():
    peak, axis, opposite, near_axis, diagonal = pattern_at(
        [math.pi / 2.0, 0.0, math.pi, 1e-10, math.pi / 4.0]
    )
    assert math.isclose(peak, 1.0, rel_tol=1e-12)
    assert axis == 0.0
    assert opposite == 0.0
    assert near_axis == 0.0
    assert math.isclose(diagonal, 0.6279332232978174, rel_tol=1e-12)
    assert round(diagonal, 4) == 0.6279  # the textbook figure 0.628 at 3 decimals
    assert round(diagonal, 3) == 0.628


def test_pattern_symmetry_and_bound():
    rng = np.random.default_rng(5)
    theta = rng.uniform(0.0, math.pi, size=500)
    fwd = pattern_at(theta)
    rev = pattern_at(math.pi - theta)
    assert np.allclose(fwd, rev, atol=1e-12)
    assert np.all(np.abs(fwd) <= 1.0 + 1e-12)


EPS = sys.float_info.epsilon


def cosines_up_to_the_axis():
    "Random cosines, plus the floats next to +-1 and points ever closer to the axis."
    near = [math.nextafter(1.0, 0.0), math.nextafter(math.nextafter(1.0, 0.0), 0.0)]
    near += [1.0 - 10.0**-k for k in (15, 12, 9, 6, 3)]
    random = np.random.default_rng(3).uniform(-1.0, 1.0, size=200).tolist()
    return np.array(near + [-c for c in near] + [0.0, 0.5, -0.5] + random)


def test_pattern_matches_a_decimal_reference():
    c = cosines_up_to_the_axis()
    got = _pattern(c)
    want = np.array([decimal_pattern(x, 0.5) for x in c])
    # h has no zero on [0, 1], so the pattern is accurate right up to the axis
    assert np.all(np.abs(got - want) <= 2.0 * EPS * np.abs(want))


def test_pattern_series_degree_comes_from_the_tail_bound():
    # the series is the Taylor series economized on [0, 1]: its degree is where the
    # dropped shifted-Chebyshev terms, each at most |c_k| there, reach 2^-53 of the
    # Taylor coefficient mass; one more term would pass it
    kept, dropped, mass = economized_pattern_series(0.5)
    degree = len(HALF_WAVE_SERIES) - 1
    assert degree == len(kept) - 1 == 7  # the Taylor series itself needs 9
    assert sum(dropped) <= Decimal(2) ** -53 * mass < sum(dropped) + abs(kept[-1])
    # the rounded coefficients are the oracle's kept Chebyshev terms
    for x in np.linspace(0.0, 1.0, 33):
        with localcontext() as ctx:
            ctx.prec = 80
            got = Decimal(0)
            for h in reversed(HALF_WAVE_SERIES):
                got = got * Decimal(x) + Decimal(h)
        assert abs(got - decimal_chebyshev_value(kept, x)) <= Decimal(EPS) * mass


def test_pattern_series_is_the_decimal_steps_bit_for_bit():
    # the constant is the 60-digit decimal steps for half a wavelength, each coefficient
    # rounded once to float64
    got = [c.hex() for c in HALF_WAVE_SERIES]
    assert got == [c.hex() for c in decimal_pattern_coefficients(0.5)]


def test_half_wave_series_literals_round_trip():
    # each literal is the shortest repr of its float64, so the source text is the value
    assert len(HALF_WAVE_SERIES) == 8
    assert all(type(h) is float and float(repr(h)) == h for h in HALF_WAVE_SERIES)
    assert HALF_WAVE_SERIES[0] == 1.0 and HALF_WAVE_SERIES[-1] == -6.306190369412005e-11
    # the signs alternate like those of cos(pi/2 * sqrt(x)) / (1 - x)
    assert all((h > 0) == (n % 2 == 0) for n, h in enumerate(HALF_WAVE_SERIES))


def test_half_wave_pattern_is_one_broadside_and_zero_on_the_axis():
    got = _pattern(np.array([0.0, -0.0, 1.0, -1.0]))
    assert got.tolist() == [1.0, 1.0, 0.0, 0.0]


def test_transverse_unit_cases():
    assert np.allclose(transverse(X_HAT, Z_HAT), X_HAT, atol=1e-15)
    p = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
    expected = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)
    assert np.allclose(transverse(X_HAT, p), expected, atol=1e-12)
    assert np.array_equal(transverse(Z_HAT, Z_HAT), np.zeros(3))


def test_transverse_unit_is_transverse_and_unit():
    rng = np.random.default_rng(9)
    for _ in range(300):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        p = rng.normal(size=3)
        p /= np.linalg.norm(p)
        e = transverse(u, p)
        if np.array_equal(e, np.zeros(3)):
            continue
        assert abs(np.dot(e, p)) < 1e-9
        assert math.isclose(float(np.linalg.norm(e)), 1.0, rel_tol=1e-12)


def test_scalar_gain_off_axis_ray_is_frozen():
    # 30 degrees off boresight at 15 cm, 300 GHz, receive dipole along z
    wavelength = SPEED_OF_LIGHT / 300e9
    p = 0.15 * np.array([0.5, 0.0, math.sqrt(3.0) / 2.0])
    g = scalar_gain((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), tuple(p), wavelength, wavelength / 2.0)
    frozen = complex(-7.185018559676502e-05, 5.4900680886638995e-05)
    assert cmath.isclose(g, frozen, rel_tol=1e-10)


def test_scalar_gain_never_exceeds_free_space():
    rng = np.random.default_rng(21)
    for _ in range(300):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        p = rng.normal(size=3) * rng.uniform(0.1, 10.0)
        g = scalar_gain(u, v, p, wavelength=1.0, dipole_length=0.5)
        assert abs(g) <= 1.0 / (4.0 * math.pi * np.linalg.norm(p)) * (1.0 + 1e-12)


def test_scalar_gain_phase_is_propagation_delay_mod_pi():
    rng = np.random.default_rng(33)
    wavelength = 0.01
    hits = 0
    for _ in range(200):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        p = rng.normal(size=3) * rng.uniform(0.05, 2.0)
        g = scalar_gain(u, v, p, wavelength, wavelength / 2.0)
        if abs(g) < 1e-18:
            continue
        hits += 1
        r = float(np.linalg.norm(p))
        # removing the delay phase must leave a real number (sign free)
        residual = g * cmath.exp(2j * math.pi * r / wavelength)
        assert abs(residual.imag) <= 1e-9 * abs(residual)
    assert hits > 150


def test_scalar_gain_invariant_under_z_rotation():
    rng = np.random.default_rng(41)
    for _ in range(50):
        rot = rotation_about_z(rng.uniform(0.0, 2.0 * math.pi))
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        p = rng.normal(size=3) * rng.uniform(0.2, 3.0)
        g = scalar_gain(u, v, p, wavelength=0.1, dipole_length=0.05)
        g_rot = scalar_gain(rot @ u, rot @ v, rot @ p, wavelength=0.1, dipole_length=0.05)
        assert cmath.isclose(g, g_rot, rel_tol=1e-9, abs_tol=1e-18)


def test_polarized_channel_validation():
    with pytest.raises(ValueError):
        PolarizedChannel(h_x=np.zeros(3, dtype=complex), h_y=np.zeros(2, dtype=complex))


def test_channel_for_single_antenna_boresight():
    layout = single_element_layout(wavelength=1.0)
    ch = ChannelGeometry(layout, rx_position(1.0, 0.0)).channel_for(X_HAT)
    assert ch.n_tx == 1
    assert cmath.isclose(ch.h_x[0], 1.0 / (4.0 * math.pi), rel_tol=1e-12, abs_tol=1e-15)
    assert ch.h_y[0] == 0.0


def test_channel_for_negates_with_receive_dipole():
    wavelength = 0.01
    layout = build_circular_array(radius=0.03, wavelength=wavelength)
    v = np.array([1.0, 2.0, 2.0]) / 3.0
    geom = ChannelGeometry(layout, rx_position(0.08, 0.4))
    up = geom.channel_for(v)
    down = geom.channel_for(-v)
    assert np.allclose(down.h_x, -up.h_x, rtol=1e-12, atol=0.0)
    assert np.allclose(down.h_y, -up.h_y, rtol=1e-12, atol=0.0)


def test_channel_for_matches_scalar_oracle():
    wavelength = 0.02
    layout = build_circular_array(radius=0.05, wavelength=wavelength)
    rng = np.random.default_rng(13)
    for _ in range(4):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        rx = rx_position(float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.0, math.radians(60.0))))
        ch = ChannelGeometry(layout, rx).channel_for(v)
        h_x, h_y = scalar_channel(
            _positions(layout).tolist(), rx.tolist(), v.tolist(),
            wavelength, wavelength / 2.0,
        )
        assert np.allclose(ch.h_x, h_x, rtol=1e-12, atol=1e-20)
        assert np.allclose(ch.h_y, h_y, rtol=1e-12, atol=1e-20)


def test_channel_for_equivariant_under_scene_rotation():
    # rotate array, RX and dipole axes together: per-antenna gains are unchanged
    wavelength = 0.03
    layout = build_circular_array(radius=0.05, wavelength=wavelength)
    v = np.array([0.0, 0.6, 0.8])
    rx = rx_position(0.2, math.radians(25.0))
    ch = ChannelGeometry(layout, rx).channel_for(v)
    rot = rotation_about_z(math.radians(72.5))
    rx_rot = rot @ rx
    v_rot = rot @ v
    for k in range(layout.n_tx):
        p_rot = rx_rot - rot @ _positions(layout)[k]
        gx = scalar_gain(rot @ X_HAT, v_rot, p_rot, wavelength, wavelength / 2.0)
        gy = scalar_gain(rot @ Y_HAT, v_rot, p_rot, wavelength, wavelength / 2.0)
        assert cmath.isclose(gx, complex(ch.h_x[k]), rel_tol=1e-9, abs_tol=1e-18)
        assert cmath.isclose(gy, complex(ch.h_y[k]), rel_tol=1e-9, abs_tol=1e-18)


def test_channel_geometry_rejects_colocated_rx():
    layout = build_circular_array(radius=0.5, wavelength=1.0)
    with pytest.raises(ValueError):
        ChannelGeometry(layout, np.array([0.5, 0.0, 0.0]))


def test_channel_geometry_reuse_matches_fresh_geometry():
    wavelength = 0.02
    layout = build_circular_array(radius=0.04, wavelength=wavelength)
    rx = rx_position(0.15, math.radians(20.0))
    geom = ChannelGeometry(layout, rx)
    rng = np.random.default_rng(17)
    for _ in range(5):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        fresh = ChannelGeometry(layout, rx).channel_for(v)
        reused = geom.channel_for(v)
        assert np.array_equal(fresh.h_x, reused.h_x)
        assert np.array_equal(fresh.h_y, reused.h_y)


def test_full_scale_channel_has_real_xy_ratio():
    # 15 cm aperture at 300 GHz, RX at 15 cm and 30 degrees, dipole along z
    wavelength = SPEED_OF_LIGHT / 300e9
    layout = build_circular_array(radius=0.15, wavelength=wavelength)
    ch = ChannelGeometry(layout, rx_position(0.15, math.radians(30.0))).channel_for(Z_HAT)
    both = (np.abs(ch.h_x) > 1e-18) & (np.abs(ch.h_y) > 1e-18)
    assert np.count_nonzero(both) > 0.9 * layout.n_tx
    cross = ch.h_x[both] * np.conj(ch.h_y[both])
    assert np.max(np.abs(cross.imag) / np.abs(cross)) < 1e-9
