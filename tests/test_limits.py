"""Closed-form limits of the SNR kernel for an RX on the array's axis.

The oracle of ``tests/oracles.py`` shares the kernel's model, so it cannot
catch a wrong pattern or a wrong field projection. These limits can: in
them the physics reduces to sums over the lattice, worked out here from the
positions alone.

Set-up. The RX centre sits at height d on the z axis, over antennas at
(x_k, y_k, 0) with r_k = hypot(x_k, y_k) <= R, D_k = sqrt(d^2 + r_k^2) and
ray p_k = (-x_k, -y_k, d) / D_k. A half-wave dipole's pattern is
sin(theta) h(cos^2 theta) with h(t) = cos(pi sqrt(t) / 2) / (1 - t), so
h(0) = 1, h'(0) = 1 - pi^2/8, h(1) = pi/4 and h'(1) = -pi/16. The TX dipole
along u (x or y) radiates the field h(c_u^2) (u - c_u p) with c_u = u . p,
so with g_rx = |p x v| h((p . v)^2) the magnitudes are

    |h_u,k| = lambda / (4 pi D_k) * g_rx,k * h(c_u^2) * |(u - c_u p_k) . v|.

With w_k = (a_k, b_k) = (|h_x,k|, |h_y,k|), DPC/dual is
(sum_k |w_k|)^2 / |sum_k w_k|^2 and dual/switched is
((sum a)^2 + (sum b)^2) / max(sum a, sum b)^2. The lattice is closed under
the square's symmetries, so sum x^2 = sum y^2 and sum x y = 0.

Limit 1, v = z (the RX dipole's axial null at the centre). Here
(u - c_u p) . z = -c_u p_z and |p x z| = r / D, so
a_k = K_k r_k |x_k| h(x_k^2 / D_k^2) and b_k likewise with |y_k|, where
K_k = lambda d h(d^2 / D_k^2) / (4 pi D_k^4) is shared by both dipoles.
As d grows the TX factors h tend to 1 and K_k to a constant, so

    DPC/dual -> L = (sum r^2)^2 / ((sum |x| r)^2 + (sum |y| r)^2),

which is pi^2/8 in the continuum. To the next order in r^2/d^2,
K_k ~ 1 - kappa r_k^2 / d^2 with kappa = 2 + h'(1)/h(1) = 7/4 (from
D^-4 and h(1 - r^2/d^2)), and h(x^2/D^2) ~ 1 + h'(0) x^2 / d^2, so
sum |w| ~ S2 (1 + dN) and sum a = sum b ~ X1 (1 + dA) with

    S2 dN = (-kappa sum r^4 + h'(0) sum (x^4 + y^4)) / d^2,
    X1 dA = (-kappa sum r^3 |x| + h'(0) sum r |x|^3) / d^2,

S2 = sum r^2 and X1 = sum |x| r. Hence DPC/dual = L (1 + 2 (dN - dA)): the
gap (DPC/dual - L) (d/R)^2 tends to the lattice constant C and closes as
(R/d)^2.

Limit 2, v = (cos phi, sin phi, 0) in the array plane. Now
(x - c_x p) . v = cos phi - x s / D^2 and (y - c_y p) . v = sin phi - y s / D^2
with s = x cos phi + y sin phi, and g_rx is shared by both dipoles. As d
grows every w_k points along (cos phi, sin phi), so
dual/switched -> 1 / max(cos^2 phi, sin^2 phi). Its first-order terms,
(h'(0) - 1) sum x^2 cos phi and (h'(0) - 1) sum y^2 sin phi, keep
sum b / sum a = tan phi, so the ratio's error is O((R/d)^4). The angle
theta_k of w_k has ln tan theta_k = ln tan phi + q_k / d^2 with

    q_k = (pi^2/8) (x_k^2 - y_k^2) - 2 cot(2 phi) x_k y_k,

so theta_k - mean = sin(2 phi) (q_k - mean q) / (2 d^2). Since
(sum |w|)^2 / |sum w|^2 - 1 is the variance of theta_k to leading order,

    DPC/dual - 1 -> sin^2(2 phi) Var(q) / (4 d^4),

which falls as (R/d)^4.

Each limit is asserted only where its signal stands well above rounding:
up to 300 R for the first and up to 100 R for the second.
"""

import math

import numpy as np
import pytest

from dpcfocus.beamforming import LinkBudget
from dpcfocus.channel import _positions
from dpcfocus.geometry import SPEED_OF_LIGHT, build_circular_array, rx_position
from conftest import kernel_snr

UNIT_BUDGET = LinkBudget(transmit_power=1.0, noise_power=1.0)
H0_SLOPE = 1.0 - math.pi**2 / 8.0
"h'(0) of the half-wave dipole's pattern series."
KAPPA = 7.0 / 4.0
"2 + h'(1) / h(1) = 2 - 1/4."
PHI = math.radians(10.0)
RADIUS = 0.015
"The aperture radius R of ``layout`` in meters."


@pytest.fixture(scope="module")
def layout():
    "The 15 mm aperture at 300 GHz: 2837 antennas."
    layout = build_circular_array(RADIUS, SPEED_OF_LIGHT / 300e9)
    assert layout.n_tx == 2837
    return layout


def on_axis_snr(layout, distance, v):
    "(DPC, dual, switched) for the RX dipole along ``v``, ``distance`` up the z axis."
    (row,) = kernel_snr(layout, rx_position(distance, 0.0), np.array([v]), UNIT_BUDGET)
    return row


@pytest.mark.parametrize("radii", [10, 30, 100, 300])
def test_axial_null_ratio_tends_to_the_lattice_sum(layout, radii):
    x, y, _ = np.abs(_positions(layout).T)
    r = np.hypot(x, y)
    s2 = np.sum(r * r)
    x1 = np.sum(x * r)
    limit = s2**2 / (x1**2 + np.sum(y * r) ** 2)
    assert limit == pytest.approx(1.2323288807, rel=1e-10)
    d_n = (-KAPPA * np.sum(r**4) + H0_SLOPE * np.sum(x**4 + y**4)) / s2
    d_a = (-KAPPA * np.sum(r**3 * x) + H0_SLOPE * np.sum(r * x**3)) / x1
    gap = 2.0 * limit * (d_n - d_a) / RADIUS**2  # C, about -0.0305
    dpc, dual, _ = on_axis_snr(layout, radii * RADIUS, (0.0, 0.0, 1.0))
    measured = (dpc / dual - limit) * radii**2
    # the next order is (R/d)^2 relative to the gap
    assert abs(measured / gap - 1.0) <= 2.0 / radii**2


@pytest.mark.parametrize("radii", [10, 30, 100])
def test_in_plane_ratios_tend_to_their_limits(layout, radii):
    dpc, dual, switched = on_axis_snr(
        layout, radii * RADIUS, (math.cos(PHI), math.sin(PHI), 0.0)
    )
    # dual/switched -> 1/cos^2 phi, its first order cancelling on the square lattice
    assert abs(dual / switched * math.cos(PHI) ** 2 - 1.0) <= 1e-3 / radii**4
    # DPC/dual - 1 -> sin^2(2 phi) Var(q) / (4 d^4)
    x, y, _ = _positions(layout).T
    q = (math.pi**2 / 8.0) * (x * x - y * y) - (2.0 / math.tan(2.0 * PHI)) * x * y
    spread = math.sin(2.0 * PHI) ** 2 * np.var(q) / (4.0 * RADIUS**4)  # about 0.0447
    measured = (dpc / dual - 1.0) * radii**4
    assert abs(measured / spread - 1.0) <= 2.0 / radii**2
