import cmath
import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpcfocus import beamforming
from dpcfocus.beamforming import (
    HALF_WAVE_SERIES,
    LinkBudget,
    fold_placements,
    link_snrs,
    polarization_angles,
    thermal_noise_power,
)
from dpcfocus.channel import X_HAT, Y_HAT, Z_HAT, ChannelGeometry, PolarizedChannel, _positions
from dpcfocus.cli import FIG3_ALPHA, FIG3_DISTANCES_M
from dpcfocus.geometry import (
    SPEED_OF_LIGHT,
    _classes,
    build_circular_array,
    orientation_grid,
    rx_position,
)
from conftest import kernel_snr, kernel_snrs, random_channel
from oracles import (
    Beamformer,
    benchmark_weights,
    dpc_beamformer,
    evaluate_snr,
    explicit_layout,
    grid_search_gain,
    polarization_angle_map,
    scalar_gain,
)

UNIT_BUDGET = LinkBudget(transmit_power=1.0, noise_power=1.0)


def focusing_gain(channel, bf):
    return abs(np.dot(channel.h_x, bf.f_x) + np.dot(channel.h_y, bf.f_y))


def closed_form_gain(channel):
    return float(
        np.sum(np.sqrt(np.abs(channel.h_x) ** 2 + np.abs(channel.h_y) ** 2))
        / math.sqrt(channel.n_tx)
    )


def test_thermal_noise_power_default():
    assert math.isclose(thermal_noise_power(100e6), 4.0038821e-13, rel_tol=1e-12)
    with pytest.raises(ValueError):
        thermal_noise_power(-1.0)


def test_thermal_noise_power_is_k_t0_b():
    assert beamforming.NOISE_TEMPERATURE == 290.0
    for bandwidth in (1.0, 100e6, 2.5e9):
        want = beamforming.BOLTZMANN * beamforming.NOISE_TEMPERATURE * bandwidth
        assert thermal_noise_power(bandwidth) == want


def test_the_kernel_reads_the_half_wave_series_bit_for_bit():
    # the loop reads the coefficients at the address of their bytes, unchecked
    coeffs = beamforming._PATTERN_COEFFS
    assert coeffs.format == "d" and coeffs.readonly and isinstance(coeffs.obj, bytes)
    with pytest.raises(TypeError, match="read-only"):
        coeffs[0] = 2.0
    assert [c.hex() for c in coeffs.tolist()] == [c.hex() for c in HALF_WAVE_SERIES]


def test_link_budget_validation():
    with pytest.raises(ValueError):
        LinkBudget(transmit_power=0.0, noise_power=1.0)
    with pytest.raises(ValueError):
        LinkBudget(transmit_power=1.0, noise_power=-2.0)
    with pytest.raises(ValueError):
        LinkBudget(transmit_power=1e300, noise_power=1e-300)  # P/N overflows to inf
    with pytest.raises(ValueError):
        LinkBudget(transmit_power=math.nan, noise_power=1.0)
    with pytest.raises(ValueError):
        LinkBudget(transmit_power=5e-324, noise_power=2.0)  # P/N underflows to 0
    # a subnormal P/N is kept: only the rates read it
    LinkBudget(transmit_power=5e-324, noise_power=1.0)
    LinkBudget(transmit_power=sys.float_info.min, noise_power=1.0)


@pytest.mark.parametrize("wavelength, r0", [
    (1e-3, 0.0), (1e-3, -0.1), (1e-3, math.nan), (1e-3, math.inf),
    (0.0, 0.1), (-1e-3, 0.1), (math.nan, 0.1), (math.inf, 0.1),
])
def test_link_snrs_refuses_a_wavelength_or_r0_not_positive_and_finite(wavelength, r0):
    # r0 = 0 raised ZeroDivisionError, a negative r0 or wavelength gave SNRs as if
    # positive, and a NaN wavelength gave NaN rows
    with pytest.raises(ValueError, match="wavelength and r0 must be positive and finite"):
        link_snrs([[1.0, 0.5, 0.25]], UNIT_BUDGET, wavelength, r0)
    link = (1e-3 / (4 * math.pi * 0.1)) ** 2
    (row,) = link_snrs([[1.0, 0.5, 0.25]], UNIT_BUDGET, 1e-3, 0.1).tolist()
    assert row == pytest.approx([link, 0.5 * link, 0.25 * link], rel=1e-15)


def test_dpc_beamformer_single_polarization_channel():
    n = 6
    rng = np.random.default_rng(2)
    ch = PolarizedChannel(
        h_x=rng.normal(size=n) + 1j * rng.normal(size=n),
        h_y=np.zeros(n, dtype=complex),
    )
    bf = dpc_beamformer(ch)
    assert np.allclose(np.abs(bf.f_x), 1.0 / math.sqrt(n), rtol=1e-12)
    assert np.array_equal(bf.f_y, np.zeros(n, dtype=complex))


def test_dpc_beamformer_two_antenna_example():
    ch = PolarizedChannel(h_x=np.array([1.0 + 0j]), h_y=np.array([1j]))
    bf = dpc_beamformer(ch)
    assert cmath.isclose(complex(bf.f_x[0]), 1.0 / math.sqrt(2.0), rel_tol=1e-12)
    assert cmath.isclose(complex(bf.f_y[0]), -1j / math.sqrt(2.0), rel_tol=1e-12)
    assert math.isclose(focusing_gain(ch, bf), math.sqrt(2.0), rel_tol=1e-12)


def test_dpc_beamformer_per_antenna_power_is_exact():
    rng = np.random.default_rng(8)
    for n in (1, 2, 7, 64):
        ch = random_channel(rng, n)
        bf = dpc_beamformer(ch)
        power = np.abs(bf.f_x) ** 2 + np.abs(bf.f_y) ** 2
        assert np.allclose(power, 1.0 / n, rtol=1e-12, atol=0.0)


def test_dpc_beamformer_dead_antenna_convention():
    ch = PolarizedChannel(h_x=np.array([0j, 2.0 + 0j]), h_y=np.array([0j, 1j]))
    bf = dpc_beamformer(ch)
    assert bf.f_x[0] == 1.0 / math.sqrt(2.0)
    assert bf.f_y[0] == 0.0


def test_dpc_beamformer_phases_conjugate_the_channel():
    rng = np.random.default_rng(12)
    ch = random_channel(rng, 20)
    bf = dpc_beamformer(ch)
    # f * h must land on the positive real axis for both dipole sets
    px = ch.h_x * bf.f_x
    py = ch.h_y * bf.f_y
    assert np.all(px.real >= 0.0)
    assert np.allclose(px.imag, 0.0, atol=1e-15)
    assert np.allclose(py.imag, 0.0, atol=1e-15)


def test_benchmark_weights_definition():
    phi = 0.7
    ch = PolarizedChannel(
        h_x=np.array([3.0 * cmath.exp(1j * phi)]), h_y=np.array([0.5 + 0j])
    )
    f_x, f_y = benchmark_weights(ch)
    assert cmath.isclose(complex(f_x[0]), cmath.exp(-1j * phi), rel_tol=1e-12)
    assert cmath.isclose(complex(f_y[0]), 1.0, rel_tol=1e-12)


def test_benchmark_weights_aligned_channel_sums_magnitudes():
    h = np.array([0.5, 1.5, 2.0, 0.25], dtype=complex)
    ch = PolarizedChannel(h_x=h, h_y=np.zeros(4, dtype=complex))
    f_x, f_y = benchmark_weights(ch)
    assert np.allclose(f_x, 0.5 * np.ones(4), rtol=1e-12)
    assert math.isclose(abs(np.dot(h, f_x)), np.sum(np.abs(h)) / 2.0, rel_tol=1e-12)


def test_benchmark_weights_random_channel_coherent_sum():
    rng = np.random.default_rng(31)
    ch = random_channel(rng, 50)
    f_x, f_y = benchmark_weights(ch)
    n = ch.n_tx
    assert np.allclose(np.abs(f_x), 1.0 / math.sqrt(n), rtol=1e-12)
    assert np.allclose(np.abs(f_y), 1.0 / math.sqrt(n), rtol=1e-12)
    assert math.isclose(
        abs(np.dot(ch.h_x, f_x)), float(np.sum(np.abs(ch.h_x))) / math.sqrt(n), rel_tol=1e-12
    )
    assert math.isclose(
        abs(np.dot(ch.h_y, f_y)), float(np.sum(np.abs(ch.h_y))) / math.sqrt(n), rel_tol=1e-12
    )


def test_benchmark_weights_zero_entry_convention():
    ch = PolarizedChannel(h_x=np.array([0j, 1j]), h_y=np.array([1.0 + 0j, 0j]))
    f_x, f_y = benchmark_weights(ch)
    assert f_x[0] == 1.0 / math.sqrt(2.0)
    assert f_y[1] == 1.0 / math.sqrt(2.0)


def test_evaluate_snr_single_polarization_collapse():
    rng = np.random.default_rng(3)
    ch = PolarizedChannel(
        h_x=rng.normal(size=5) + 1j * rng.normal(size=5),
        h_y=np.zeros(5, dtype=complex),
    )
    triple = evaluate_snr(ch, UNIT_BUDGET)
    assert math.isclose(triple.snr_dpc, triple.snr_dual, rel_tol=1e-12)
    assert math.isclose(triple.snr_dual, triple.snr_switched, rel_tol=1e-12)


def test_evaluate_snr_hierarchy_on_random_channels():
    rng = np.random.default_rng(14)
    for _ in range(1000):
        ch = random_channel(rng, int(rng.integers(1, 9)))
        t = evaluate_snr(ch, UNIT_BUDGET)
        assert t.snr_dpc >= t.snr_dual * (1.0 - 1e-12)
        assert t.snr_dual >= t.snr_switched * (1.0 - 1e-12)


def test_evaluate_snr_closed_form_identity():
    rng = np.random.default_rng(15)
    budget = LinkBudget(transmit_power=2e-3, noise_power=5e-13)
    for _ in range(200):
        ch = random_channel(rng, int(rng.integers(1, 40)), scale=1e-3)
        t = evaluate_snr(ch, budget)
        expected = (budget.transmit_power / budget.noise_power) * closed_form_gain(ch) ** 2
        assert math.isclose(t.snr_dpc, expected, rel_tol=1e-9)


def test_evaluate_snr_global_phase_invariance():
    rng = np.random.default_rng(16)
    ch = random_channel(rng, 30)
    t0 = evaluate_snr(ch, UNIT_BUDGET)
    for phase in (0.3, 1.7, -2.2):
        spun = PolarizedChannel(
            h_x=ch.h_x * cmath.exp(1j * phase), h_y=ch.h_y * cmath.exp(1j * phase)
        )
        t1 = evaluate_snr(spun, UNIT_BUDGET)
        assert math.isclose(t0.snr_dpc, t1.snr_dpc, rel_tol=1e-9)
        assert math.isclose(t0.snr_dual, t1.snr_dual, rel_tol=1e-9)
        assert math.isclose(t0.snr_switched, t1.snr_switched, rel_tol=1e-9)


def test_evaluate_snr_scales_with_link_budget():
    rng = np.random.default_rng(18)
    ch = random_channel(rng, 12)
    t1 = evaluate_snr(ch, LinkBudget(1.0, 1.0))
    t2 = evaluate_snr(ch, LinkBudget(4.0, 2.0))
    assert math.isclose(t2.snr_dpc, 2.0 * t1.snr_dpc, rel_tol=1e-12)


def test_dpc_beamformer_matches_exhaustive_grid_search():
    rng = np.random.default_rng(100)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        ch = random_channel(rng, n)
        closed = focusing_gain(ch, dpc_beamformer(ch))
        brute = grid_search_gain(ch.h_x, ch.h_y)
        assert brute <= closed * (1.0 + 1e-9)
        assert closed - brute <= 1e-3 * closed


def test_polarization_angle_map_reference_points():
    n = 4
    f_x = np.array([1.0, 1.0, 0.0, 1.0], dtype=complex) / math.sqrt(n)
    f_y = np.array([0.0, 1.0, 1.0, -1.0], dtype=complex) / math.sqrt(n)
    f_x[1] /= math.sqrt(2.0)
    f_y[1] /= math.sqrt(2.0)
    pol = polarization_angle_map(Beamformer(f_x, f_y))
    assert pol.angles[0] == 0.0
    assert math.isclose(pol.angles[1], math.pi / 4.0, rel_tol=1e-12)
    assert pol.angles[2] == math.pi / 2.0
    assert math.isclose(pol.angles[3], -math.pi / 4.0, rel_tol=1e-12)
    assert not pol.nonlinear.any()


def test_polarization_angle_map_flags_elliptical_and_dead():
    f_x = np.array([1.0, 0.0], dtype=complex)
    f_y = np.array([1j, 0.0], dtype=complex)
    pol = polarization_angle_map(Beamformer(f_x, f_y))
    assert pol.nonlinear[0]
    assert math.isnan(pol.angles[1])
    assert not pol.nonlinear[1]


def test_polarization_angles_fold_into_half_open_interval():
    rng = np.random.default_rng(77)
    amp = rng.uniform(0.0, 1.0, size=200)
    sign = rng.choice([-1.0, 1.0], size=200)
    phase = rng.uniform(-math.pi, math.pi, size=200)
    f_x = amp * np.exp(1j * phase)
    f_y = sign * np.sqrt(1.0 - amp**2) * np.exp(1j * phase)
    pol = polarization_angle_map(Beamformer(f_x, f_y))
    finite = np.isfinite(pol.angles)
    assert np.all(pol.angles[finite] > -math.pi / 2.0)
    assert np.all(pol.angles[finite] <= math.pi / 2.0)
    assert not pol.nonlinear.any()


def test_model_channels_drive_linear_polarization():
    wavelength = 0.001
    layout = build_circular_array(radius=0.02, wavelength=wavelength)
    ch = ChannelGeometry(layout, rx_position(0.15, math.radians(30.0))).channel_for(Z_HAT)
    pol = polarization_angle_map(dpc_beamformer(ch))
    assert not pol.nonlinear.any()
    assert np.all(np.isfinite(pol.angles))


def test_polarization_spread_shrinks_with_distance():
    wavelength = 0.001
    layout = build_circular_array(radius=0.02, wavelength=wavelength)
    stds = []
    for d in (0.15, 1.0):
        geom = ChannelGeometry(layout, rx_position(d, math.radians(30.0)))
        pol = polarization_angle_map(dpc_beamformer(geom.channel_for(Z_HAT)))
        stds.append(float(np.std(pol.angles)))
    assert stds[0] > stds[1]


FIG3_LAYOUT = build_circular_array(0.1 * 0.15, SPEED_OF_LIGHT / 300e9)  # fig3 at scale 0.1


@pytest.mark.parametrize(
    "alpha, distance",
    [(FIG3_ALPHA, d) for d in FIG3_DISTANCES_M] + [(0.0, FIG3_DISTANCES_M[0])],
)
def test_polarization_angles_match_the_complex_map(alpha, distance):
    rx = rx_position(distance, alpha)
    real = polarization_angles(FIG3_LAYOUT, rx)
    channel = ChannelGeometry(FIG3_LAYOUT, rx).channel_for(Z_HAT)
    pol = polarization_angle_map(dpc_beamformer(channel))
    assert not pol.nonlinear.any()
    assert np.max(np.abs(np.asarray(real) - np.degrees(pol.angles))) <= 1e-12


def test_polarization_angles_keep_the_edge_rules_on_the_z_axis():
    # over the centre, the x = 0 column has a_x = 0 and radiates along y; the centre
    # antenna itself has a_x = a_y = 0 and puts its power on the x dipole
    angles = np.asarray(polarization_angles(FIG3_LAYOUT, rx_position(0.15, 0.0)))
    x, y, _ = _positions(FIG3_LAYOUT).T
    column = (x == 0.0) & (y != 0.0)
    assert column.sum() == 60
    assert np.all(angles[column] == 90.0)
    centre = angles[(x == 0.0) & (y == 0.0)]
    assert centre.tolist() == [0.0] and not np.signbit(centre[0])


@pytest.mark.parametrize(
    "rx", [(math.nan, 0.0, 0.1), (0.0, -math.inf, 0.1), (0.0, 0.1)],
    ids=["nan", "inf", "two-element"],
)
def test_polarization_angles_refuse_a_bad_rx(rx):
    # refused as fold_placements refuses it for the kernel, not mapped to NaN angles
    with pytest.raises(ValueError, match="finite 3-vector"):
        polarization_angles(FIG3_LAYOUT, np.array(rx))


def test_polarization_angles_refuse_a_colocated_rx():
    # every antenna lies on the array plane, which the RX may not
    with pytest.raises(ValueError, match="off the array plane"):
        polarization_angles(FIG3_LAYOUT, _positions(FIG3_LAYOUT)[-1])


KERNEL_WAVELENGTH = SPEED_OF_LIGHT / 300e9
KERNEL_BUDGET = LinkBudget(transmit_power=1e-3, noise_power=thermal_noise_power(100e6))
DEFAULT_GRID = np.asarray(orientation_grid())
GRID_30_20 = np.asarray(orientation_grid(math.radians(30.0), math.radians(20.0)))


@pytest.fixture(scope="module")
def kernel_layout():
    return build_circular_array(radius=0.01, wavelength=KERNEL_WAVELENGTH)


def first_antennas(layout, n):
    "The first ``n`` elements of ``layout`` as a layout of their own."
    return explicit_layout(_positions(layout)[:n], layout.wavelength)


def oracle_snr(layout, rx_center, grid, budget):
    geom = ChannelGeometry(layout, rx_center)
    return np.array([evaluate_snr(geom.channel_for(v), budget) for v in grid])


def evaluated(layout, rx_centers, grid):
    "The number of directions the kernel evaluates for each RX center, after its fold."
    return [fold.directions.shape[0] for _, _, fold in fold_placements(layout, rx_centers, grid)]


def assert_kernel_matches_oracle(layout, alpha, distance, grid, plain=False):
    assert_rx_matches_oracle(layout, rx_position(distance, alpha), grid, plain)


def assert_rx_matches_oracle(layout, rx_center, grid, plain=False):
    "The kernel matches the oracle at ``rx_center``; ``plain`` as for ``kernel_snrs``."
    fast = kernel_snr(layout, rx_center, grid, KERNEL_BUDGET, plain)
    slow = oracle_snr(layout, rx_center, grid, KERNEL_BUDGET)
    assert fast.shape == (grid.shape[0], 3)
    # exact zeros (an all-null channel) must stay exact
    assert np.all(np.abs(fast - slow) <= 1e-12 * np.abs(slow))


@pytest.mark.parametrize("grid", [DEFAULT_GRID, GRID_30_20], ids=["10x10deg", "30x20deg"])
@pytest.mark.parametrize("distance", [0.1, 1.0])
@pytest.mark.parametrize("alpha_deg", [0.0, 30.0, 60.0])
def test_orientation_snr_matches_evaluate_snr(kernel_layout, alpha_deg, distance, grid):
    # alpha = 0 puts the RX over the centre antenna, so v = z hits its axial null
    assert_kernel_matches_oracle(kernel_layout, math.radians(alpha_deg), distance, grid)


def test_orientation_snr_matches_evaluate_snr_random_placements(kernel_layout):
    rng = np.random.default_rng(2024)
    for _ in range(20):
        alpha = rng.uniform(0.0, math.radians(89.0))
        distance = rng.uniform(0.02, 1.5)
        assert_kernel_matches_oracle(kernel_layout, alpha, distance, GRID_30_20)


@pytest.mark.parametrize("block", [1, 3, 64, 4096])
def test_an_explicit_layout_with_gaps_and_repeated_rows(monkeypatch, block):
    # rows with holes, a row whose y comes back after another, and 0.0 beside -0.0: each
    # stretch of one y, bit for bit, is a run, and blocks start inside runs
    pitch = KERNEL_WAVELENGTH / 2.0
    points = [(-2, 0), (0, 0), (3, 0), (1, 1), (2, 1), (-1, 0), (0, -1), (2, -1), (4, -1),
              (-3, 2), (0, 2), (1, 2), (3, 2)]
    positions = np.array([(i * pitch, j * pitch, 0.0) for i, j in points])
    positions[5, 1] = -0.0
    layout = explicit_layout(positions, KERNEL_WAVELENGTH)
    assert list(layout.rows.first_antenna) == [0, 3, 5, 6, 9, 13]
    assert _positions(layout).tobytes() == positions.tobytes()
    monkeypatch.setattr(beamforming, "ANTENNA_BLOCK", block)
    for alpha, distance in ((0.0, 0.01), (math.radians(30.0), 0.05)):
        assert_kernel_matches_oracle(layout, alpha, distance, GRID_30_20, plain=True)
    angles = polarization_angles(layout, rx_position(0.05, FIG3_ALPHA))
    channel = ChannelGeometry(layout, rx_position(0.05, FIG3_ALPHA)).channel_for(Z_HAT)
    want = np.degrees(polarization_angle_map(dpc_beamformer(channel)).angles)
    assert np.max(np.abs(np.asarray(angles) - want)) <= 1e-12


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_orientation_snr_block_boundaries(kernel_layout, monkeypatch, offset):
    # two blocks of 128 antennas, each two groups of 64, and one antenna more or less;
    # the lowest lattice rows are not closed under y -> -y, so every class of v and -v
    # is evaluated
    monkeypatch.setattr(beamforming, "ANTENNA_BLOCK", 128)
    layout = first_antennas(kernel_layout, 256 + offset)
    assert_kernel_matches_oracle(layout, math.radians(30.0), 0.1, DEFAULT_GRID, plain=True)


def test_orientation_snr_single_antenna(kernel_layout):
    layout = first_antennas(kernel_layout, 1)
    assert_kernel_matches_oracle(layout, math.radians(30.0), 0.1, DEFAULT_GRID, plain=True)


@pytest.mark.parametrize(
    "rx, v, null",
    [
        # broadside: the y dipole is cross-polarized to v = x, the x dipole to v = y
        ((0.0, 0.0, 1.0), X_HAT, "y"),
        ((0.0, 0.0, 1.0), Y_HAT, "x"),
        # along the receive dipole's own axis: no channel at all
        ((0.0, 0.0, 1.0), Z_HAT, "both"),
        # 30 degrees off boresight at 15 cm, the ray whose x-dipole gain
        # test_scalar_gain_off_axis_ray_is_frozen pins: the y dipole's field is along y
        ((0.075, 0.0, 0.15 * math.sqrt(3.0) / 2.0), Z_HAT, "y"),
    ],
    ids=["broadside-x", "broadside-y", "rx-axis", "off-axis"],
)
def test_single_antenna_nulls_leave_one_dipole(rx, v, null):
    # one antenna at the origin: dual == switched wherever one of its dipoles is
    # nulled, and each SNR is P/N |h|^2 with h the scalar oracle's gains
    layout = explicit_layout(np.zeros((1, 3)), KERNEL_WAVELENGTH)
    ((dpc, dual, switched),) = kernel_snr(layout, np.array(rx), v[None, :], KERNEL_BUDGET,
                                          plain=True)
    g_x, g_y = (
        abs(scalar_gain(u, tuple(v), rx, KERNEL_WAVELENGTH, KERNEL_WAVELENGTH / 2.0))
        for u in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    )
    assert (g_x == 0.0, g_y == 0.0) == (null in ("x", "both"), null in ("y", "both"))
    rho = KERNEL_BUDGET.transmit_power / KERNEL_BUDGET.noise_power
    want = rho * (g_x**2 + g_y**2)
    assert dual == switched
    for got in (dpc, dual):
        assert abs(got - want) <= 1e-12 * want


def quarter_turn(a):
    "Rotate the rows (or the one vector) ``a`` by 90 degrees about z: (x, y, z) -> (-y, x, z)."
    a = np.asarray(a, dtype=float)
    return np.stack((-a[..., 1], a[..., 0], a[..., 2]), axis=-1)


@pytest.mark.parametrize(
    "rx",
    [rx_position(0.1, math.radians(30.0)), rx_position(1.0, 0.0), np.array([0.02, 0.03, 0.1])],
    ids=["xz-plane", "z-axis", "off-plane"],
)
def test_snrs_are_unchanged_by_a_quarter_turn_about_z(kernel_layout, rx):
    # the square lattice maps onto itself, and its x and y dipoles onto each other, so
    # the turn swaps sum_k |h_x,k| and sum_k |h_y,k|, which the three SNRs treat alike
    before = kernel_snr(kernel_layout, rx, DEFAULT_GRID, KERNEL_BUDGET)
    after = kernel_snr(kernel_layout, quarter_turn(rx), quarter_turn(DEFAULT_GRID), KERNEL_BUDGET)
    assert np.all(np.abs(after - before) <= 1e-12 * np.abs(before))


def test_orientation_snr_one_antenna_blocks(kernel_layout, monkeypatch):
    # every block is one antenna over the whole grid, added by the caller
    monkeypatch.setattr(beamforming, "ANTENNA_BLOCK", 1)
    assert_kernel_matches_oracle(kernel_layout, math.radians(30.0), 0.1, DEFAULT_GRID)


@pytest.mark.parametrize("alpha_deg, distance", [(30.0, 0.1), (60.0, 1.0)])
def test_orientation_snr_on_a_mirror_free_layout(kernel_layout, alpha_deg, distance):
    layout = first_antennas(kernel_layout, 24)  # the lowest rows of the lattice
    assert_kernel_matches_oracle(layout, math.radians(alpha_deg), distance, DEFAULT_GRID,
                                 plain=True)


def test_orientation_snr_with_rx_off_the_xz_plane(kernel_layout):
    assert_rx_matches_oracle(kernel_layout, np.array([0.02, 0.03, 0.1]), DEFAULT_GRID)


def test_orientation_snr_on_a_shuffled_grid(kernel_layout):
    grid = np.random.default_rng(11).permutation(DEFAULT_GRID)
    assert_kernel_matches_oracle(kernel_layout, math.radians(60.0), 1.0, grid)


def test_orientation_snr_on_random_directions(kernel_layout):
    # no two random directions are exact partners, so every one is evaluated directly
    v = np.random.default_rng(13).normal(size=(300, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    assert_kernel_matches_oracle(kernel_layout, math.radians(30.0), 0.1, v)


def test_orientation_snr_is_bit_reproducible(kernel_layout):
    rx = rx_position(0.1, math.radians(30.0))
    first = kernel_snr(kernel_layout, rx, DEFAULT_GRID, KERNEL_BUDGET)
    second = kernel_snr(kernel_layout, rx, DEFAULT_GRID, KERNEL_BUDGET)
    assert np.array_equal(first, second)


FOUR_BLOCKS = 400
"An ``ANTENNA_BLOCK`` that splits the 1257-antenna ``kernel_layout`` into four blocks."


@pytest.fixture
def threaded(monkeypatch):
    "Two worker threads on four blocks per placement."
    monkeypatch.setattr(beamforming, "MAX_WORKERS", 2)
    monkeypatch.setattr(beamforming, "ANTENNA_BLOCK", FOUR_BLOCKS)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("block", [1, 1000, 8192])
def test_orientation_snr_bits_do_not_depend_on_workers(
    kernel_layout, monkeypatch, block, workers
):
    # the caller adds the block sums in block order, so at one block size the worker
    # count leaves every bit; 8192 makes the 1257-antenna layout one block
    rx = rx_position(0.1, math.radians(30.0))
    monkeypatch.setattr(beamforming, "ANTENNA_BLOCK", block)
    monkeypatch.setattr(beamforming, "MAX_WORKERS", 1)
    alone = kernel_snr(kernel_layout, rx, DEFAULT_GRID, KERNEL_BUDGET)
    monkeypatch.setattr(beamforming, "MAX_WORKERS", workers)
    assert np.array_equal(kernel_snr(kernel_layout, rx, DEFAULT_GRID, KERNEL_BUDGET), alone)


def test_orientation_snr_on_threads_matches_evaluate_snr(kernel_layout, threaded):
    rx = rx_position(0.1, math.radians(30.0))
    placements = fold_placements(kernel_layout, [rx], DEFAULT_GRID)
    assert beamforming.kernel_workers(kernel_layout.n_tx, placements) == 2
    assert_kernel_matches_oracle(kernel_layout, math.radians(30.0), 0.1, DEFAULT_GRID)


def test_a_one_degree_grid_runs_one_task_per_antenna_block(monkeypatch):
    # about 16 200 classes leave the block size alone: each task returns the (3, m)
    # column sums of a whole ANTENNA_BLOCK, and the 5041-antenna lattice takes two
    layout = build_circular_array(radius=0.02, wavelength=KERNEL_WAVELENGTH)
    grid = orientation_grid(math.radians(1.0), math.radians(1.0))
    rxs = [rx_position(0.1, math.radians(30.0)), rx_position(0.3, math.radians(60.0))]
    tasks = []  # (antennas, directions) per task
    tile_sums = beamforming._tile_sums

    def counted(kernel, layout, antennas, rx, r0, v):
        tasks.append((len(antennas), v.shape[0]))
        return tile_sums(kernel, layout, antennas, rx, r0, v)

    monkeypatch.setattr(beamforming, "_tile_sums", counted)
    snrs = list(kernel_snrs(layout, rxs, grid, KERNEL_BUDGET))
    blocks = -(-layout.n_tx // beamforming.ANTENNA_BLOCK)
    assert (layout.n_tx, blocks) == (5041, 2)
    assert len(snrs) == len(rxs) and len(tasks) == len(rxs) * blocks
    m = evaluated(layout, rxs[:1], grid)[0]
    assert m > 16000
    assert tasks[:blocks] == [(4096, m), (5041 - 4096, m)]


def test_orientation_snr_rejects_bad_directions(kernel_layout):
    with pytest.raises(ValueError):
        kernel_snr(kernel_layout, rx_position(0.1, 0.0), Z_HAT, KERNEL_BUDGET)


@pytest.fixture
def no_kernel_tasks(monkeypatch):
    "Fails the test if any kernel task runs: every task is one ``_tile_sums`` call."

    def refuse(*args):
        raise AssertionError("a kernel task ran")

    monkeypatch.setattr(beamforming, "_tile_sums", refuse)


def refused_at_the_call(layout, rx_centers, directions, match):
    # fold_placements refuses before folded_snrs is called, so before any task is queued
    with pytest.raises(ValueError, match=match):
        kernel_snrs(layout, rx_centers, directions, KERNEL_BUDGET)


def test_no_kernel_tasks_fails_a_valid_call(kernel_layout, no_kernel_tasks):
    # the refusals below would pass vacuously if the fixture patched a function no task calls
    with pytest.raises(AssertionError, match="a kernel task ran"):
        kernel_snr(kernel_layout, rx_position(0.1, 0.3), GRID_30_20, KERNEL_BUDGET)


def test_kernel_refuses_an_empty_grid(kernel_layout, no_kernel_tasks):
    refused_at_the_call(kernel_layout, [rx_position(0.1, 0.3)], np.empty((0, 3)), "non-empty")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_kernel_refuses_a_non_finite_direction(kernel_layout, no_kernel_tasks, bad):
    grid = GRID_30_20.copy()
    grid[5, 1] = bad
    refused_at_the_call(kernel_layout, [rx_position(0.1, 0.3)], grid, "unit vectors")


@pytest.mark.parametrize("scale", [2.0, 1.0 + 1e-11, 0.0])
def test_kernel_refuses_a_direction_off_unit_length(kernel_layout, no_kernel_tasks, scale):
    grid = GRID_30_20.copy()
    grid[7] *= scale
    refused_at_the_call(kernel_layout, [rx_position(0.1, 0.3)], grid, "unit vectors")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_kernel_refuses_a_non_finite_rx_center(kernel_layout, no_kernel_tasks, bad):
    rxs = [rx_position(0.1, 0.3), np.array([0.0, bad, 0.1])]
    refused_at_the_call(kernel_layout, rxs, GRID_30_20, "finite 3-vector")


def test_kernel_refuses_a_two_element_rx_center(kernel_layout, no_kernel_tasks):
    refused_at_the_call(kernel_layout, [np.array([0.0, 0.1])], GRID_30_20, "finite 3-vector")


@pytest.mark.parametrize(
    "rx", ["123", b"123", ["0", "0", "1"], np.array([[0.0], [0.0], [0.1]]), 0.1],
    ids=["str", "bytes", "number-strings", "column", "scalar"],
)
def test_kernel_refuses_an_rx_center_that_is_not_three_numbers(kernel_layout, no_kernel_tasks, rx):
    refused_at_the_call(kernel_layout, [rx], GRID_30_20, "finite 3-vector")
    with pytest.raises(ValueError, match="finite 3-vector"):
        polarization_angles(FIG3_LAYOUT, rx)


def test_kernel_takes_rows_and_rx_centers_as_lists(kernel_layout):
    rx = rx_position(0.1, 0.3)
    want = kernel_snr(kernel_layout, rx, GRID_30_20, KERNEL_BUDGET)
    got = kernel_snr(kernel_layout, list(rx), GRID_30_20.tolist(), KERNEL_BUDGET)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("antenna", [7, -1])
def test_orientation_snr_rejects_a_colocated_rx(kernel_layout, antenna):
    # every antenna lies on the array plane, which the RX may not
    rx = _positions(kernel_layout)[antenna]
    with pytest.raises(ValueError, match="off the array plane"):
        kernel_snr(kernel_layout, rx, GRID_30_20, KERNEL_BUDGET)


@pytest.mark.parametrize("rx", [(0.0, 0.0, 0.0), (0.5, -0.25, -0.0), (1.0, 0.0, 0.0)],
                         ids=["at-an-antenna", "off-aperture", "on-the-x-axis"])
def test_an_rx_on_the_array_plane_is_refused_at_the_call(kernel_layout, no_kernel_tasks,
                                                        monkeypatch, rx):
    def refuse(*args):
        raise AssertionError("a thread or the kernel started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(beamforming, "_tile_kernel", refuse)
    rxs = [rx_position(0.1, 0.3), np.array(rx)]
    refused_at_the_call(kernel_layout, rxs, GRID_30_20, "off the array plane")
    with pytest.raises(ValueError, match="off the array plane"):
        polarization_angles(kernel_layout, np.array(rx))


def test_an_rx_a_subnormal_height_above_an_antenna_is_accepted(kernel_layout):
    rx = _positions(kernel_layout)[7] + [0.0, 0.0, 5e-324]
    (placement,) = fold_placements(kernel_layout, [rx], GRID_30_20)
    assert placement[1] == 5e-324
    gains = np.asarray(next(beamforming.folded_snrs(kernel_layout, [placement])))
    assert np.all(np.isfinite(gains)) and np.any(gains > 0.0)
    assert np.all(np.isfinite(polarization_angles(kernel_layout, rx)))


@pytest.mark.parametrize("workers", [1, 2])
def test_orientation_snr_distances_do_not_overflow(kernel_layout, monkeypatch, workers):
    if workers > 1:
        # blocks of 141 antennas, nine blocks
        monkeypatch.setattr(beamforming, "MAX_WORKERS", workers)
        monkeypatch.setattr(beamforming, "ANTENNA_BLOCK", 141)
    placements = fold_placements(kernel_layout, [rx_position(1.0, 0.3)], GRID_30_20)
    assert beamforming.kernel_workers(kernel_layout.n_tx, placements) == workers
    # |rx - p|^2 overflows float64 at 1e200 m; the SNRs underflow to 0 instead of NaN
    with np.errstate(over="raise", invalid="raise"):
        far = kernel_snr(kernel_layout, rx_position(1e200, 0.3), GRID_30_20, KERNEL_BUDGET)
    assert np.all(far == 0.0)
    # at 1e150 m every factor is representable and the free-space 1/r^2 law holds
    snr = [
        kernel_snr(kernel_layout, rx_position(d, 0.3), GRID_30_20, KERNEL_BUDGET)
        for d in (1e150, 2e150)
    ]
    assert np.all(snr[0] > 0.0)
    assert np.allclose(snr[0], 4.0 * snr[1], rtol=1e-12, atol=0.0)


def test_square_fold_on_the_z_axis_matches_the_mirror_fold_and_the_oracle(
    kernel_layout, monkeypatch
):
    # on the z axis the whole square group folds the grid; with it switched off the
    # same layout gets the mirror fold, whose evaluated directions differ
    rx = rx_position(0.1, 0.0)
    assert evaluated(kernel_layout, [rx], DEFAULT_GRID) == [46]
    square = kernel_snr(kernel_layout, rx, DEFAULT_GRID, KERNEL_BUDGET)
    with monkeypatch.context() as patch:
        patch.setattr(beamforming, "_classes", lambda v, mirror, square: _classes(v, mirror, False))
        assert evaluated(kernel_layout, [rx], DEFAULT_GRID) == [163]
        mirror = kernel_snr(kernel_layout, rx, DEFAULT_GRID, KERNEL_BUDGET)
    assert np.all(np.abs(square - mirror) <= 1e-12 * np.abs(mirror))
    assert_rx_matches_oracle(kernel_layout, rx, DEFAULT_GRID)


def test_a_stretched_layout_on_the_z_axis_matches_the_oracle(kernel_layout):
    # a lattice stretched along x keeps y -> -y (and x -> -x) but not x <-> y, so the
    # square fold would not hold for it on the z axis
    stretched = explicit_layout(_positions(kernel_layout) * [1.25, 1.0, 1.0],
                                kernel_layout.wavelength)
    assert_rx_matches_oracle(stretched, rx_position(0.1, 0.0), DEFAULT_GRID, plain=True)


STREAM_RXS = [
    rx_position(0.1, math.radians(30.0)),
    rx_position(1.0, 0.0),
    np.array([0.02, 0.03, 0.1]),  # off the xz plane: no y-mirror fold
    rx_position(0.3, math.radians(60.0)),
]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("block", [FOUR_BLOCKS, 4096], ids=["four-blocks", "default"])
def test_orientation_snrs_is_bit_equal_to_one_placement_calls(
    kernel_layout, monkeypatch, block, workers
):
    monkeypatch.setattr(beamforming, "ANTENNA_BLOCK", block)
    alone = [kernel_snr(kernel_layout, rx, DEFAULT_GRID, KERNEL_BUDGET) for rx in STREAM_RXS]
    monkeypatch.setattr(beamforming, "MAX_WORKERS", workers)
    # at least one block per placement: every worker asked for starts
    stream = fold_placements(kernel_layout, STREAM_RXS, DEFAULT_GRID)
    assert beamforming.kernel_workers(kernel_layout.n_tx, stream) == workers
    streamed = list(kernel_snrs(kernel_layout, STREAM_RXS, DEFAULT_GRID, KERNEL_BUDGET))
    assert len(streamed) == len(alone)
    for got, expected in zip(streamed, alone):
        assert np.array_equal(got, expected)


def test_orientation_snrs_mixes_mirror_and_plain_placements(kernel_layout, threaded):
    # the fold of the placement on the z axis evaluates 46 classes, of the other y = 0
    # placements 163, and of the one off the xz plane 307
    assert evaluated(kernel_layout, STREAM_RXS, DEFAULT_GRID) == [163, 46, 307, 163]
    streamed = kernel_snrs(kernel_layout, STREAM_RXS, DEFAULT_GRID, KERNEL_BUDGET)
    for rx, fast in zip(STREAM_RXS, streamed, strict=True):
        slow = oracle_snr(kernel_layout, rx, DEFAULT_GRID, KERNEL_BUDGET)
        assert np.all(np.abs(fast - slow) <= 1e-12 * np.abs(slow))


def test_full_size_gains_match_correctly_rounded_sums():
    # summation rounding grows with the antenna count, so check it at full size: 283 177
    # antennas in 70 blocks, on the z axis at 1 m, where the fold leaves 46 classes. The
    # oracle adds each class's channel magnitudes with math.fsum, correctly rounded, so it
    # shares no summation order with the kernel's blocks; the kernel yields a row per class
    layout = build_circular_array(0.15, KERNEL_WAVELENGTH)
    (placement,) = fold_placements(layout, [rx_position(1.0, 0.0)], DEFAULT_GRID)
    rx, r0, fold = placement
    assert (layout.n_tx, fold.directions.shape[0]) == (283177, 46)
    fast = np.asarray(next(beamforming.folded_snrs(layout, [placement])))
    geom = ChannelGeometry(layout, rx)
    scale = 4.0 * math.pi * r0 / KERNEL_WAVELENGTH  # magnitudes in units of lambda / (4 pi r0)
    slow = []
    for v in np.asarray(fold.directions):
        channel = geom.channel_for(v)
        a_x, a_y = np.abs(channel.h_x) * scale, np.abs(channel.h_y) * scale
        s_x, s_y = math.fsum(a_x.tolist()), math.fsum(a_y.tolist())
        s_dpc = math.fsum(np.hypot(a_x, a_y).tolist())
        slow.append((s_dpc**2, s_x**2 + s_y**2, max(s_x, s_y) ** 2))
    slow = np.array(slow) / layout.n_tx
    assert np.all(np.abs(fast - slow) <= 1e-12 * slow)


def test_orientation_snrs_kernel_workers_count_every_placement(kernel_layout, monkeypatch):
    monkeypatch.setattr(beamforming, "MAX_WORKERS", 3)
    n = kernel_layout.n_tx
    rx = rx_position(0.1, math.radians(30.0))
    # one block per placement on the 163-class grid
    assert [
        beamforming.kernel_workers(n, fold_placements(kernel_layout, [rx] * p, DEFAULT_GRID))
        for p in (0, 1, 2, 70)
    ] == [0, 1, 2, 3]
    monkeypatch.setattr(beamforming, "ANTENNA_BLOCK", 402)  # four blocks each
    one = fold_placements(kernel_layout, [rx], DEFAULT_GRID)
    assert beamforming.kernel_workers(n, one) == 3
    # more antennas never start fewer workers
    assert [beamforming.kernel_workers(k, one) for k in (1, 402, 403, n, 10**12)] == [1, 1, 2, 3, 3]


def test_abandoning_orientation_snrs_cancels_its_queued_tasks(kernel_layout, threaded, monkeypatch):
    monkeypatch.setattr(beamforming, "ANTENNA_BLOCK", 4096)  # one block per placement
    baseline = threading.active_count()
    rxs = [rx_position(d, 0.3) for d in np.linspace(0.1, 1.0, 20)]
    started = []  # placement indices, in the order their tasks start
    both_held = threading.Event()
    tile_sums = beamforming._tile_sums

    def counted(kernel, layout, antennas, rx, *args):
        i = next(i for i, r in enumerate(rxs) if np.array_equal(r, rx))
        started.append(i)
        if i >= 2:
            if {2, 3} <= set(started):
                both_held.set()
            time.sleep(0.5)  # hold both workers while the consumer stops
        return tile_sums(kernel, layout, antennas, rx, *args)

    monkeypatch.setattr(beamforming, "_tile_sums", counted)

    def consume():
        # 20 tasks, of which the first five are submitted (four, then one more after the
        # first is taken)
        for i, _ in enumerate(kernel_snrs(kernel_layout, rxs, GRID_30_20, KERNEL_BUDGET)):
            if i == 1:
                # stop only once both workers hold a sleeping task, the third and fourth
                assert both_held.wait(timeout=30.0)
                raise RuntimeError("the consumer stops")

    with pytest.raises(RuntimeError, match="the consumer stops"):
        consume()
    assert threading.active_count() == baseline
    # the fifth task is still queued behind the two sleeping ones, and is cancelled
    assert sorted(started) == [0, 1, 2, 3]


class TaskFailure(Exception):
    "What the patched kernel task of a failing placement raises."


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_kernel_task_is_raised_at_its_placement(kernel_layout, monkeypatch, workers):
    # one block per placement: the third task is the third placement's, and it raises in
    # its worker; the caller gets the first two arrays, then that exception, and every
    # worker is joined
    monkeypatch.setattr(beamforming, "MAX_WORKERS", workers)
    expected = [kernel_snr(kernel_layout, rx, GRID_30_20, KERNEL_BUDGET) for rx in STREAM_RXS[:2]]
    tile_sums = beamforming._tile_sums

    def failing(kernel, layout, antennas, rx, *args):
        if np.array_equal(rx, STREAM_RXS[2]):
            raise TaskFailure("the third task fails")
        return tile_sums(kernel, layout, antennas, rx, *args)

    monkeypatch.setattr(beamforming, "_tile_sums", failing)
    placements = fold_placements(kernel_layout, STREAM_RXS, GRID_30_20)
    assert beamforming.kernel_workers(kernel_layout.n_tx, placements) == workers
    baseline = threading.active_count()
    got = []

    def consume():
        try:
            got.extend(kernel_snrs(kernel_layout, STREAM_RXS, GRID_30_20, KERNEL_BUDGET))
        except TaskFailure as exc:
            got.append(exc)

    # consumed on a thread of its own, so that an exception lost in a worker fails the
    # test instead of leaving it waiting for a reply that never comes
    consumer = threading.Thread(target=consume, daemon=True)
    consumer.start()
    consumer.join(timeout=30.0)
    assert not consumer.is_alive()
    assert len(got) == 3 and isinstance(got[2], TaskFailure)
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))
    assert threading.active_count() == baseline


def test_available_cpus_without_an_affinity_mask_counts_the_cpus(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert beamforming.available_cpus() == (os.cpu_count() or 1)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert beamforming.available_cpus() == 1


needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform"
)


@needs_affinity
@pytest.mark.parametrize("workers", [2, 3])
def test_kernel_workers_each_move_to_a_cpu_and_get_their_mask_back(
    kernel_layout, monkeypatch, workers
):
    calls = []  # (thread, mask) per call
    real = os.sched_setaffinity

    def recorded(pid, mask):
        calls.append((threading.get_ident(), set(mask)))
        real(pid, mask)

    monkeypatch.setattr(os, "sched_setaffinity", recorded)
    monkeypatch.setattr(beamforming, "MAX_WORKERS", workers)
    monkeypatch.setattr(beamforming, "ANTENNA_BLOCK", FOUR_BLOCKS)
    caller = os.sched_getaffinity(0)
    streamed = list(kernel_snrs(kernel_layout, STREAM_RXS, DEFAULT_GRID, KERNEL_BUDGET))
    assert os.sched_getaffinity(0) == caller
    assert len(streamed) == len(STREAM_RXS)
    threads = {thread for thread, _ in calls}
    assert threading.get_ident() not in threads and len(threads) == workers
    cpus = sorted(caller)
    moved = []
    for thread in threads:
        # one CPU of the process mask, then that mask again
        (cpu,), restored = (mask for t, mask in calls if t == thread)
        assert restored == caller
        moved.append(cpu)
    # worker i takes CPU i of the mask, so on two or more CPUs no two workers share one
    assert sorted(moved) == sorted(cpus[i % len(cpus)] for i in range(workers))


@pytest.mark.parametrize("placement", ["absent", "refused"])
def test_kernel_workers_without_placement_give_the_same_bits(
    kernel_layout, monkeypatch, placement
):
    monkeypatch.setattr(beamforming, "ANTENNA_BLOCK", FOUR_BLOCKS)
    monkeypatch.setattr(beamforming, "MAX_WORKERS", 1)
    alone = list(kernel_snrs(kernel_layout, STREAM_RXS, DEFAULT_GRID, KERNEL_BUDGET))
    if placement == "absent":
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    else:
        def refuse(pid, mask):
            raise OSError(22, "Invalid argument")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
    monkeypatch.setattr(beamforming, "MAX_WORKERS", 2)
    streamed = kernel_snrs(kernel_layout, STREAM_RXS, DEFAULT_GRID, KERNEL_BUDGET)
    for got, expected in zip(streamed, alone, strict=True):
        assert np.array_equal(got, expected)


def test_more_kernel_workers_than_cpus_keep_the_order(kernel_layout, monkeypatch):
    # eight workers on four blocks per placement, switching threads often:
    # a reply lost or taken out of order would change an array
    rxs = STREAM_RXS * 3
    monkeypatch.setattr(beamforming, "ANTENNA_BLOCK", FOUR_BLOCKS)
    alone = [kernel_snr(kernel_layout, rx, DEFAULT_GRID, KERNEL_BUDGET) for rx in rxs]
    monkeypatch.setattr(beamforming, "MAX_WORKERS", 8)
    baseline = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        streamed = list(kernel_snrs(kernel_layout, rxs, DEFAULT_GRID, KERNEL_BUDGET))
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == baseline
    for got, expected in zip(streamed, alone, strict=True):
        assert np.array_equal(got, expected)


@st.composite
def kernel_inputs(draw):
    """A small lattice, or a perturbed one that takes ``kernel_snrs``'s ``plain`` fold,
    one to three RX centres on the z axis, on the xz plane or off it, and an even grid
    or random unit directions.

    The RX ranges cover 0.5 to 150 aperture radii, far past the paper's 0.67 to 6.7; on
    the z axis there, every antenna lies close to the axis of an RX dipole near v = z
    (see ``test_orientation_snr_far_on_the_z_axis_near_v_equals_z``)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # at least one wavelength of radius: 13 antennas or more
    radius = draw(st.floats(1.0, 4.0)) * KERNEL_WAVELENGTH
    layout = build_circular_array(radius, KERNEL_WAVELENGTH)
    plain = draw(st.booleans())
    if plain:
        pitch = KERNEL_WAVELENGTH / 2.0
        offsets = rng.uniform(-0.2 * pitch, 0.2 * pitch, size=_positions(layout).shape)
        offsets[:, 2] = 0.0
        layout = explicit_layout(_positions(layout) + offsets, layout.wavelength)
    rxs = []
    for kind in draw(st.lists(st.sampled_from(["z axis", "xz plane", "off"]), min_size=1,
                              max_size=3)):
        d = draw(st.floats(0.5, 150.0)) * radius
        alpha = draw(st.floats(0.01, 1.4))
        if kind == "z axis":
            rxs.append(rx_position(d, 0.0))
        elif kind == "xz plane":
            rxs.append(rx_position(d, alpha))
        else:
            azimuth = draw(st.floats(0.1, 6.2))
            rxs.append(d * np.array([math.sin(alpha) * math.cos(azimuth),
                                     math.sin(alpha) * math.sin(azimuth), math.cos(alpha)]))
    if draw(st.booleans()):
        grid = np.asarray(orientation_grid(2.0 * math.pi / draw(st.sampled_from([4, 6, 8, 12])),
                                           math.pi / draw(st.sampled_from([2, 3, 6]))))
    else:
        grid = rng.normal(size=(draw(st.integers(1, 60)), 3))
        grid /= np.linalg.norm(grid, axis=1, keepdims=True)
    return layout, rxs, grid, plain


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(kernel_inputs(), st.integers(1, 3), st.integers(1, 600))
def test_orientation_snrs_matches_the_oracle_on_drawn_inputs(inputs, workers, block):
    # the block size fixes which antennas each column sum adds; at one block size the
    # arrays are bit-equal across worker counts
    layout, rxs, grid, plain = inputs
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(beamforming, "ANTENNA_BLOCK", block)
        patch.setattr(beamforming, "MAX_WORKERS", 1)
        alone = list(kernel_snrs(layout, rxs, grid, KERNEL_BUDGET, plain))
        patch.setattr(beamforming, "MAX_WORKERS", workers)
        streamed = list(kernel_snrs(layout, rxs, grid, KERNEL_BUDGET, plain))
    assert len(streamed) == len(rxs)
    for rx, fast, first in zip(rxs, streamed, alone):
        assert np.array_equal(fast, first)
        slow = oracle_snr(layout, rx, grid, KERNEL_BUDGET)
        assert np.all(np.abs(fast - slow) <= 1e-12 * np.abs(slow))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kernel_inputs())
def test_dpc_snr_never_exceeds_the_free_space_bound(inputs):
    # per antenna |h_x|^2 + |h_y|^2 <= |h_up|^2 = (lambda / (4 pi r))^2: the half-wave
    # pattern is at most sin(theta), and the two TX dipoles' transverse fields project
    # v onto the plane normal to the ray; so the DPC gain is at most sum_k |h_up,k| / sqrt(n)
    layout, rxs, grid, plain = inputs
    rho = KERNEL_BUDGET.transmit_power / KERNEL_BUDGET.noise_power
    for rx, snr in zip(rxs, kernel_snrs(layout, rxs, grid, KERNEL_BUDGET, plain), strict=True):
        r = np.linalg.norm(rx - _positions(layout), axis=1)
        bound = rho * np.sum(layout.wavelength / (4.0 * math.pi * r)) ** 2 / layout.n_tx
        assert np.all(snr[:, 0] <= bound * (1.0 + 1e-12))


def test_orientation_snr_far_on_the_z_axis_near_v_equals_z():
    # 75 aperture radii above a 13-antenna lattice every antenna lies within 0.8 degrees
    # of the axis of a dipole along z; sqrt((1 - c)(1 + c)) of the rounded c = p . v
    # would lose about eps / (1 - c) there, and the v = z SNRs missed the oracle by
    # 1.4e-12 relative while the sine came from it instead of |p x v|
    layout = build_circular_array(KERNEL_WAVELENGTH, KERNEL_WAVELENGTH)
    assert layout.n_tx == 13
    grid = np.asarray(orientation_grid(math.pi / 2.0, math.pi / 2.0))
    assert_rx_matches_oracle(layout, rx_position(75.0 * KERNEL_WAVELENGTH, 0.0), grid)
