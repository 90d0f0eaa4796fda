"""Independent reference implementations used to check the library.

Everything here recomputes results on a separate route, so the library's
fast paths are verified against it:

* layouts of any positions (``explicit_layout``), beside the lattice of
  ``build_circular_array``; as they need not share its symmetries, the SNR
  kernel runs them under the fold by v -> -v alone (``conftest.kernel_snrs``);
* the channel of one dipole pair, composed step by step with scalar
  math/cmath (``scalar_gain``, ``scalar_channel``);
* the complex weights and the received SNRs by direct inner products
  (``dpc_beamformer``, ``benchmark_weights``, ``evaluate_snr``) and the
  polarization axes those weights radiate (``polarization_angle_map``),
  which the SNR kernel ``folded_snrs`` and ``polarization_angles`` must
  match; they take the complex channel of ``ChannelGeometry``;
* a brute-force search over weights, and the dipole pattern and its series
  in decimal arithmetic, among them the steps that form the pattern series
  in 60-digit decimals (``decimal_pattern_coefficients``), which the
  constant ``beamforming.HALF_WAVE_SERIES`` must match bit for bit.
"""

import cmath
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import NamedTuple

import numpy as np

from dpcfocus.beamforming import LinkBudget
from dpcfocus.channel import PolarizedChannel
from dpcfocus.geometry import AntennaRows, ArrayLayout

PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def brute_force_disc_count(radius: float, pitch: float) -> int:
    "Count square-lattice points inside a closed disc by direct enumeration."
    n_max = int(math.floor(radius / pitch))
    count = 0
    for i in range(-n_max, n_max + 1):
        for j in range(-n_max, n_max + 1):
            if math.hypot(i * pitch, j * pitch) <= radius:
                count += 1
    return count


def reference_lattice(radius: float, pitch: float) -> np.ndarray:
    """Every lattice point (i * pitch, j * pitch, 0) with ``hypot <= radius``, as an
    (n, 3) array, row-major by y: j ascending, then i ascending within each row."""
    n_max = int(math.floor(radius / pitch))
    span = range(-n_max, n_max + 1)
    points = [(i * pitch, j * pitch, 0.0) for j in span for i in span
              if math.hypot(i * pitch, j * pitch) <= radius]
    return np.array(points)


def explicit_layout(positions, wavelength: float) -> ArrayLayout:
    """A layout of the (n, 3) ``positions`` on z = 0, antenna i at row i.

    Each stretch of consecutive antennas with the same y, bit for bit, is one
    run, with one ``x_table`` entry per antenna.
    """
    pos = np.array(positions, dtype=float)
    x, y = pos[:, 0], pos[:, 1]
    bits = y.view(np.int64)  # -0.0 and 0.0 start separate runs
    first = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1]))).astype(np.int64)
    rows = AntennaRows(x.copy(), y[first], first, np.append(first, pos.shape[0]))
    return ArrayLayout(rows, wavelength)


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _pattern(theta, length_over_wavelength):
    s = math.sin(theta)
    if s < 1e-9:
        return 0.0
    k = math.pi * length_over_wavelength
    return (math.cos(k * math.cos(theta)) - math.cos(k)) / s


def scalar_gain(u, v, p, wavelength, dipole_length) -> complex:
    "One dipole-to-dipole gain composed step by step with scalar math."
    r = math.sqrt(_dot(p, p))
    h_up = wavelength / (4 * math.pi * r) * cmath.exp(-2j * math.pi * r / wavelength)
    p_hat = (p[0] / r, p[1] / r, p[2] / r)
    lol = dipole_length / wavelength
    theta_tx = math.acos(max(-1.0, min(1.0, _dot(u, p_hat))))
    theta_rx = math.pi - math.acos(max(-1.0, min(1.0, _dot(v, p_hat))))
    w = _cross(p_hat, _cross(u, p_hat))
    wn = math.sqrt(_dot(w, w))
    beta = 0.0 if wn < 1e-12 else _dot(v, w) / wn
    return h_up * _pattern(theta_tx, lol) * _pattern(theta_rx, lol) * beta


def scalar_channel(positions, rx_center, v_hat, wavelength, dipole_length):
    "Per-antenna channel pair (x- and y-oriented TX dipoles), scalar route."
    h_x = []
    h_y = []
    v = tuple(v_hat)
    for pos in positions:
        p = tuple(rx_center[i] - pos[i] for i in range(3))
        h_x.append(scalar_gain((1.0, 0.0, 0.0), v, p, wavelength, dipole_length))
        h_y.append(scalar_gain((0.0, 1.0, 0.0), v, p, wavelength, dipole_length))
    return np.array(h_x), np.array(h_y)


LINEAR_POL_TOL = 1e-6
"Relative imaginary part above which a weight pair is not linearly polarized."


@dataclass
class Beamformer:
    """Complex weights for the x- and y-oriented dipole sets.

    Each antenna k holds |f_x,k|^2 + |f_y,k|^2 = 1/n_tx, the per-antenna
    power budget.
    """

    f_x: np.ndarray
    f_y: np.ndarray

    def __post_init__(self):
        self.f_x = np.asarray(self.f_x, dtype=complex)
        self.f_y = np.asarray(self.f_y, dtype=complex)
        if self.f_x.ndim != 1 or self.f_x.shape != self.f_y.shape:
            raise ValueError("f_x and f_y must be 1-D arrays of equal length")

    @property
    def n_tx(self) -> int:
        return self.f_x.shape[0]


class SnrTriple(NamedTuple):
    "Linear-scale received SNR under the three TX architectures: one (DPC, dual, switched) row."

    snr_dpc: float
    snr_dual: float
    snr_switched: float


def dpc_beamformer(channel: PolarizedChannel) -> Beamformer:
    """SNR-maximizing weights under the per-antenna power constraint.

    Every antenna conjugates the phases of its two channel entries and
    splits its 1/n_tx power budget across the dipole pair in proportion to
    |h_x,k| : |h_y,k|. An antenna with no channel at all (both entries zero)
    contributes nothing whatever it transmits; it gets the full budget on
    its x dipole so the output stays deterministic.
    """
    n = channel.n_tx
    mag_x = np.abs(channel.h_x)
    mag_y = np.abs(channel.h_y)
    amp = np.sqrt(mag_x * mag_x + mag_y * mag_y)
    alive = amp > 0.0
    inv = np.divide(1.0 / math.sqrt(n), amp, out=np.zeros(n), where=alive)
    f_x = np.conj(channel.h_x)
    f_x *= inv
    f_y = np.conj(channel.h_y)
    f_y *= inv
    if not alive.all():
        f_x[~alive] = 1.0 / math.sqrt(n)
    return Beamformer(f_x=f_x, f_y=f_y)


def benchmark_weights(channel: PolarizedChannel) -> tuple[np.ndarray, np.ndarray]:
    """Phase-only conjugate weights with uniform amplitude 1/sqrt(n_tx).

    These drive both benchmark architectures. A zero channel entry has no
    defined phase; it gets phase 0 by convention.
    """
    n = channel.n_tx
    root = math.sqrt(n)
    return _conj_phases(channel.h_x) / root, _conj_phases(channel.h_y) / root


def _conj_phases(h):
    mag = np.abs(h)
    nz = mag > 0.0
    inv = np.divide(1.0, mag, out=np.zeros(h.shape[0]), where=nz)
    out = np.conj(h)
    out *= inv
    if not nz.all():
        out[~nz] = 1.0  # zero entries have phase 0 by convention
    return out


def evaluate_snr(channel: PolarizedChannel, budget: LinkBudget) -> SnrTriple:
    """Received SNR for the DPC, dual- and switched-polarization arrays.

    The benchmark beams yield the per-polarization gains
    gamma_x = |h_x^T f_x^b| and gamma_y = |h_y^T f_y^b|; switched keeps the
    better one, dual combines both digitally. The DPC SNR comes from the
    actual inner product with the optimal weights.
    """
    f_x_b, f_y_b = benchmark_weights(channel)
    gamma_x = abs(np.dot(channel.h_x, f_x_b))
    gamma_y = abs(np.dot(channel.h_y, f_y_b))
    opt = dpc_beamformer(channel)
    gain_dpc = abs(np.dot(channel.h_x, opt.f_x) + np.dot(channel.h_y, opt.f_y))
    rho = budget.transmit_power / budget.noise_power
    return SnrTriple(
        snr_dpc=rho * gain_dpc**2,
        snr_dual=rho * (gamma_x**2 + gamma_y**2),
        snr_switched=rho * max(gamma_x, gamma_y) ** 2,
    )


@dataclass
class PolarizationMap:
    """Per-antenna polarization axes radiated by a beamformer.

    ``angles`` holds the linear-polarization axis in (-pi/2, pi/2], measured
    from the x dipole toward the y dipole; NaN marks antennas that radiate
    nothing. ``nonlinear`` marks antennas whose weight pair is not
    phase-aligned (an elliptical state); their angle entry comes from the
    in-phase component only and should be treated with care.
    """

    angles: np.ndarray
    nonlinear: np.ndarray

    @property
    def n_tx(self) -> int:
        return self.angles.shape[0]


def polarization_angle_map(bf: Beamformer) -> PolarizationMap:
    """Polarization axis of the field radiated by each antenna.

    For weights with aligned (or opposed) phases the radiated field is
    linearly polarized at the signed angle atan(f_y,k / f_x,k); the fold to
    (-pi/2, pi/2] reflects that a polarization axis has no sign. Antennas
    whose weight pair has a relative phase away from 0 or pi are flagged in
    ``nonlinear`` instead of being silently projected.
    """
    f_x = bf.f_x
    f_y = bf.f_y
    rel = f_y * np.conj(f_x)  # relative phasor between the dipole pair
    nonlinear = np.abs(rel.imag) > LINEAR_POL_TOL * np.abs(rel)
    angles = np.arctan2(rel.real, np.abs(f_x) ** 2)
    pure_y = (f_x == 0) & (f_y != 0)
    angles = np.where(pure_y, math.pi / 2.0, angles)
    dead = (f_x == 0) & (f_y == 0)
    angles = np.where(dead, np.nan, angles)
    return PolarizationMap(angles=angles, nonlinear=nonlinear)


def grid_search_gain(h_x, h_y, phase_step_deg=1.0, power_step=1e-3) -> float:
    """Best focusing gain |h_x^T f_x + h_y^T f_y| over a brute-force grid.

    Per antenna the weights are sqrt(t/n)*exp(j*phi_x) and
    sqrt((1-t)/n)*exp(j*phi_y) with both phases on a ``phase_step_deg`` grid
    and the power share t on a ``power_step`` grid, which satisfies the
    per-antenna power constraint by construction. The modulus is handled by
    scanning a global rotation psi over the same phase grid: |z| equals
    max over psi of Re(z * exp(-j*psi)), and at fixed psi the objective is a
    sum of independent per-antenna real terms, so each antenna is maximized
    by direct enumeration.
    """
    h_x = np.asarray(h_x, dtype=complex)
    h_y = np.asarray(h_y, dtype=complex)
    n = h_x.size
    phases = np.deg2rad(np.arange(0.0, 360.0, phase_step_deg))
    shares = np.arange(0.0, 1.0 + power_step / 2.0, power_step)
    amp_x = np.sqrt(shares / n)
    amp_y = np.sqrt((1.0 - shares) / n)
    # rotations[i, j] = exp(j*(phi_j - psi_i))
    rotations = np.exp(1j * (phases[None, :] - phases[:, None]))
    total = np.zeros(phases.size)
    for k in range(n):
        best_x = (h_x[k] * rotations).real.max(axis=1)
        best_y = (h_y[k] * rotations).real.max(axis=1)
        total += (amp_x[None, :] * best_x[:, None] + amp_y[None, :] * best_y[:, None]).max(axis=1)
    return float(total.max())


def _decimal_cos(z: Decimal) -> Decimal:
    total, term, k = Decimal(0), Decimal(1), 0
    while abs(term) > Decimal(10) ** -70:
        total += term
        k += 1
        term = -term * z * z / ((2 * k - 1) * (2 * k))
    return total


def decimal_pattern(cos_theta: float, length_over_wavelength: float) -> float:
    """(cos(pi*L*c) - cos(pi*L)) / sqrt(1 - c^2) in 80-digit decimal arithmetic.

    Evaluated at the exact binary values of c and L, then rounded once;
    |c| < 1 is required.
    """
    with localcontext() as ctx:
        ctx.prec = 80
        c = Decimal(cos_theta)
        k = PI * Decimal(length_over_wavelength)
        return float((_decimal_cos(k * c) - _decimal_cos(k)) / ((1 - c) * (1 + c)).sqrt())


def decimal_pattern_series(length_over_wavelength: float, count: int) -> list[Decimal]:
    """The first ``count`` Taylor coefficients of h(x) = (cos(pi*L*sqrt(x)) - cos(pi*L)) / (1 - x).

    Formed as forward partial sums of the numerator's coefficients (dividing
    by 1 - x is summing them), in 80-digit decimal arithmetic.
    """
    with localcontext() as ctx:
        ctx.prec = 80
        k2 = (PI * Decimal(length_over_wavelength)) ** 2
        partial = 1 - _decimal_cos(PI * Decimal(length_over_wavelength))
        a_j = Decimal(1)
        out = []
        for j in range(1, count + 1):
            out.append(partial)
            a_j = -a_j * k2 / ((2 * j - 1) * (2 * j))
            partial += a_j
        return out


def decimal_chebyshev_series(taylor) -> list[Decimal]:
    """Coefficients c_k of sum_n taylor[n] x^n = sum_k c_k T*_k(x), with T*_k(x) = T_k(2x - 1).

    Built by Horner's rule in the shifted-Chebyshev basis, from
    x T*_0 = (T*_0 + T*_1) / 2 and x T*_k = (T*_{k-1} + 2 T*_k + T*_{k+1}) / 4,
    in 80-digit decimal arithmetic.
    """
    with localcontext() as ctx:
        ctx.prec = 80
        c = [Decimal(0)]
        for h in reversed(taylor):
            times_x = [Decimal(0)] * (len(c) + 1)
            for k, ck in enumerate(c):
                if k == 0:
                    times_x[0] += ck / 2
                    times_x[1] += ck / 2
                else:
                    times_x[k - 1] += ck / 4
                    times_x[k] += ck / 2
                    times_x[k + 1] += ck / 4
            times_x[0] += h
            c = times_x
        return c


def decimal_chebyshev_value(c, x) -> Decimal:
    "sum_k c[k] T*_k(x) by Clenshaw's recurrence, in 80-digit decimal arithmetic."
    with localcontext() as ctx:
        ctx.prec = 80
        y = 2 * Decimal(x) - 1
        b1 = b2 = Decimal(0)
        for ck in reversed(c[1:]):
            b1, b2 = 2 * y * b1 - b2 + ck, b1
        return y * b1 - b2 + c[0]


def economized_pattern_series(length_over_wavelength: float):
    """The economized pattern series, worked out on a separate route.

    Expands 60 Taylor coefficients of h in the shifted-Chebyshev basis and
    drops the top terms while their |c_k| sum to at most 2^-53 of the
    Taylor coefficient mass. Returns ``(kept, dropped, mass)``: the kept
    Chebyshev coefficients, the |c_k| of the dropped ones, top first, and the
    mass.
    """
    taylor = decimal_pattern_series(length_over_wavelength, 60)
    c = decimal_chebyshev_series(taylor)
    mass = sum(abs(h) for h in taylor)
    budget = mass * Decimal(2) ** -53
    dropped = []
    while len(c) > 2 and sum(dropped) + abs(c[-1]) <= budget:
        dropped.append(abs(c.pop()))
    return c, dropped, mass


def shifted_chebyshev(degree: int) -> list[list[int]]:
    """Integer coefficients, lowest first, of T*_k(x) = T_k(2x - 1) for k <= ``degree``.

    By T*_{k+1} = 2 (2x - 1) T*_k - T*_{k-1}, from T*_0 = 1 and T*_1 = 2x - 1.
    """
    rows = [[1], [-1, 2]]
    while len(rows) <= degree:
        prev, last = rows[-2], rows[-1]
        nxt = [0] * (len(last) + 1)
        for n, t in enumerate(last):
            nxt[n] -= 2 * t
            nxt[n + 1] += 4 * t
        for n, t in enumerate(prev):
            nxt[n] -= t
        rows.append(nxt)
    return rows


def decimal_pattern_coefficients(length_over_wavelength: float) -> tuple[float, ...]:
    """The economized pattern series of a dipole of L wavelengths, in 60-digit decimals.

    The steps ``beamforming.HALF_WAVE_SERIES`` records for L = 1/2: the Taylor
    coefficients a_j of cos(pi*L*sqrt(x)) from the 60-digit ``PI``, until
    they fall below 1e-40 past j^2 > (pi*L)^2, and their tail sums
    h_n = -sum_{j>n} a_j; then, while the degree exceeds 1, the top term
    h_N x^N is traded for the lower-degree rest of c T*_N, with
    c = h_N / 2^(2N-1) its shifted-Chebyshev coefficient, while the sum of
    the dropped |c| stays within 2^-53 of the Taylor coefficient mass; and
    one rounding to float64.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        k2 = (PI * Decimal(length_over_wavelength)) ** 2
        a = [Decimal(1)]
        # past j^2 > k2 the terms fall faster than geometrically; stop once negligible
        while len(a) < 4 or len(a) ** 2 <= k2 or abs(a[-1]) > Decimal("1e-40"):
            j = len(a)
            a.append(-a[-1] * k2 / ((2 * j - 1) * (2 * j)))
        tail = sum(a[1:])
        h = []
        for n in range(len(a) - 1):
            h.append(-tail)
            tail -= a[n + 1]
        budget = sum(abs(c) for c in h) * Decimal(2) ** -53
        chebyshev = shifted_chebyshev(len(h) - 1)
        while len(h) > 2:
            top = len(h) - 1
            c = h[top] / 2 ** (2 * top - 1)
            if abs(c) > budget:
                break
            budget -= abs(c)
            for n, t in enumerate(chebyshev[top][:top]):
                h[n] -= c * t
            h.pop()
        return tuple(float(c) for c in h)
