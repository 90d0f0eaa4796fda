"""Polarized line-of-sight channel between crossed TX dipoles and an RX dipole.

The complex gain from one transmit dipole to the receive dipole is a product
of four factors: the free-space amplitude and delay phase, the field patterns
of the transmitting and receiving dipoles, and the projection of the impinging
electric field onto the receive dipole. All four vary across a large aperture
at short range, so every antenna gets its own evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import X_HAT, Y_HAT, ArrayLayout

TRANSVERSE_FLOOR = 1e-12
"Below this transverse norm the impinging-field direction is degenerate."

SERIES_CANCELLATION_LIMIT = 2.0**10
"""Largest ratio of the pattern series' coefficient mass to the pattern's peak.

Horner's rule then loses at most 10 of float64's 53 bits against the peak.
"""

_PI_DIGITS = "3.14159265358979323846264338327950288419716939937510582097494"
_SERIES_BITS = 600
"Fixed-point bits of ``pattern_series`` beyond those of the dipole length: about 180 digits."


@lru_cache(maxsize=16)
def pattern_series(length_over_wavelength: float) -> tuple[float, ...]:
    """Coefficients h_0..h_N, lowest first, of a polynomial for the pattern's entire part.

    The pattern of a dipole of L wavelengths is sqrt(1 - c^2) * h(c^2), with
    c = cos(theta) and h(x) = (cos(pi*L*sqrt(x)) - cos(pi*L)) / (1 - x).
    With a_j = (-1)^j (pi*L)^(2j) / (2j)! the Taylor coefficients of
    cos(pi*L*sqrt(x)), the numerator vanishes at x = 1, so h's Taylor
    coefficients are the tail sums -sum_{j>n} a_j. These are formed in
    integer fixed point, each value x held as the integer x * 2^b rounded
    down, from pi to 60 digits and the exact binary value of L, until the
    terms fall below 1e-40, and then Chebyshev-economized on [0, 1]: while
    the degree exceeds 1, the top term h_N x^N is traded for the
    lower-degree rest of c T*_N, with T*_N(x) = T_N(2x - 1) and
    c = h_N / 2^(2N-1) its shifted-Chebyshev coefficient, which changes h by
    at most |c| on [0, 1]. Terms are dropped while the sum of their |c|
    stays within 2^-53 of the Taylor coefficient mass sum_n |h_n|, the scale
    of the rounding error of Horner's rule itself, and the result is rounded
    once to float64. b is ``_SERIES_BITS`` plus twice the bit length of L's
    binary denominator, so (pi*L)^2 keeps about 180 digits however short
    the dipole. The tests check the result bit for bit against the same
    steps in 60-digit decimal arithmetic (``tests/oracles.py``). A half-wave
    dipole needs N = 7, where the Taylor series itself would need 9.

    Raises
    ------
    ValueError
        If L is not positive and finite, or if the coefficient mass exceeds
        ``SERIES_CANCELLATION_LIMIT`` times the peak of |h| on [0, 1]: the
        series of such a long dipole cancels too much to be summed to
        float64 accuracy.
    """
    length = float(length_over_wavelength)
    if not (math.isfinite(length) and length > 0.0):
        raise ValueError("the dipole length must be positive and finite")
    num, den = length.as_integer_ratio()
    one = 1 << (_SERIES_BITS + 2 * den.bit_length())
    pi_num, pi_den = int(_PI_DIGITS.replace(".", "")), 10 ** (len(_PI_DIGITS) - 2)
    k2 = (pi_num * num) ** 2 * one // (pi_den * den) ** 2
    a = [one]
    # past j^2 > k2 the terms fall faster than geometrically; stop once negligible
    while len(a) < 4 or len(a) ** 2 * one <= k2 or abs(a[-1]) * 10**40 > one:
        # terms go on while j^2 <= k2, so a k2 of 1001^2 or more would reach 1000 of them
        if len(a) > 1000 or k2 >= 1001**2 * one:
            raise ValueError(
                f"a dipole of {length!r} wavelengths is too long for the pattern series"
            )
        j = len(a)
        a.append(-a[-1] * k2 // (one * (2 * j - 1) * (2 * j)))
    tail = sum(a[1:])
    h = []
    for n in range(len(a) - 1):
        h.append(-tail)
        tail -= a[n + 1]
    budget = sum(abs(c) for c in h) >> 53
    chebyshev = _shifted_chebyshev(len(h) - 1)
    while len(h) > 2:
        top = len(h) - 1
        c = h[top] >> (2 * top - 1)
        if abs(c) > budget:
            break
        budget -= abs(c)
        for n, t in enumerate(chebyshev[top][:top]):
            h[n] -= c * t
        h.pop()
    try:
        coeffs = tuple(c / one for c in h)  # int / int rounds correctly
    except OverflowError:  # a coefficient past float64's range: it cancels past its accuracy
        mass, peak = math.inf, 0.0
    else:
        mass = sum(abs(c) for c in coeffs)
        peak = float(np.max(np.abs(_series(np.linspace(0.0, 1.0, 257), coeffs))))
    if not mass <= SERIES_CANCELLATION_LIMIT * peak:
        raise ValueError(
            f"a dipole of {length!r} wavelengths is too long for the pattern series: "
            "its coefficients cancel beyond float64 accuracy"
        )
    return coeffs


def _shifted_chebyshev(degree: int) -> list[list[int]]:
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


def _series(x: np.ndarray, coeffs) -> np.ndarray:
    "sum_n coeffs[n] * x^n by Horner's rule, as a new array."
    out = x * coeffs[-1]
    out += coeffs[-2]
    for c in coeffs[-3::-1]:
        out *= x
        out += c
    return out


def _pattern(cos_theta: np.ndarray, length_over_wavelength: float) -> np.ndarray:
    """Dipole pattern sqrt(1 - c^2) * h(c^2) of a float64 array c (ndim >= 1).

    The pattern is even in c, so theta and pi - theta need no sign flip.
    """
    out = _series(np.square(cos_theta), pattern_series(length_over_wavelength))
    # (1 - c)(1 + c) keeps sin(theta) accurate next to the axial null, where 1 - c^2 is not
    sin2 = (1.0 - cos_theta) * (1.0 + cos_theta)
    np.maximum(sin2, 0.0, out=sin2)
    out *= np.sqrt(sin2)
    return out


@dataclass
class PolarizedChannel:
    """Complex channel vectors for the x- and y-oriented TX dipole sets.

    Entries follow the row order of the layout's ``positions``.
    """

    h_x: np.ndarray
    h_y: np.ndarray

    def __post_init__(self):
        self.h_x = np.asarray(self.h_x, dtype=complex)
        self.h_y = np.asarray(self.h_y, dtype=complex)
        if self.h_x.ndim != 1 or self.h_x.shape != self.h_y.shape:
            raise ValueError("h_x and h_y must be 1-D arrays of equal length")

    @property
    def n_tx(self) -> int:
        return self.h_x.shape[0]


class ChannelGeometry:
    """Position-dependent channel factors, reusable across RX orientations.

    Precomputes everything that depends only on the array and the RX center:
    per-antenna displacement directions, free-space gains, TX patterns for
    both dipole orientations, and impinging-field directions. The remaining
    orientation-dependent factors are added by :meth:`channel_for`, which is
    the cheap part of an orientation sweep.
    """

    def __init__(self, layout: ArrayLayout, rx_center):
        rx = np.asarray(rx_center, dtype=float)
        disp = rx[None, :] - layout.positions
        dist = np.linalg.norm(disp, axis=1)
        if np.any(dist == 0.0):
            raise ValueError("RX is co-located with a TX element")
        wavelength = layout.wavelength
        self.layout = layout
        self.rx_center = rx
        self.distances = dist
        self.p_hat = disp / dist[:, None]
        self.pattern_ratio = layout.dipole_length / wavelength
        self.h_up = (wavelength / (4.0 * math.pi) / dist) * np.exp(
            (-2j * math.pi / wavelength) * dist
        )
        cos_tx_x = self.p_hat[:, 0]
        cos_tx_y = self.p_hat[:, 1]
        self.g_tx_x = _pattern(cos_tx_x, self.pattern_ratio)
        self.g_tx_y = _pattern(cos_tx_y, self.pattern_ratio)
        self.e_x = _transverse_unit(X_HAT, self.p_hat, cos_tx_x)
        self.e_y = _transverse_unit(Y_HAT, self.p_hat, cos_tx_y)

    def channel_for(self, v_hat) -> PolarizedChannel:
        "Channel vectors for a receive dipole along the unit vector ``v_hat``."
        v = np.asarray(v_hat, dtype=float)
        # theta_rx = pi - arccos(v . p_hat); the pattern sin(theta) h(cos^2) is even in
        # cos(theta), and |p_hat x v| keeps the sine accurate next to the RX dipole's
        # axis, where the rounded cosine does not
        g_rx = _series(np.square(self.p_hat @ v), pattern_series(self.pattern_ratio))
        g_rx *= np.linalg.norm(np.cross(self.p_hat, v), axis=1)
        real_x = self.g_tx_x * g_rx
        real_x *= self.e_x @ v
        real_y = self.g_tx_y * g_rx
        real_y *= self.e_y @ v
        return PolarizedChannel(h_x=self.h_up * real_x, h_y=self.h_up * real_y)


def _transverse_unit(u, p_hat, cos_up):
    # u - (u . p) p, normalized per row; zero rows mark the axial degeneracy
    w = u[None, :] - cos_up[:, None] * p_hat
    n = np.linalg.norm(w, axis=1)
    out = np.zeros_like(w)
    ok = n >= TRANSVERSE_FLOOR
    out[ok] = w[ok] / n[ok, None]
    return out
