"""Polarized line-of-sight channel between crossed TX dipoles and an RX dipole.

The complex gain from one transmit dipole to the receive dipole is a product
of four factors: the free-space amplitude and delay phase, the field patterns
of the transmitting and receiving dipoles, and the projection of the impinging
electric field onto the receive dipole. All four vary across a large aperture
at short range, so every antenna gets its own evaluation. Every dipole is a
half-wave dipole, whose pattern is summed from the kernel's constant
polynomial ``beamforming.HALF_WAVE_SERIES``.

No command-line run loads this module: the SNR kernel and fig3's map read
the layout's row table. The complex channel is the tests' reference route,
and only it decodes the table into (n, 3) positions (``_positions``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beamforming import HALF_WAVE_SERIES
from .geometry import X_HAT, Y_HAT, ArrayLayout

TRANSVERSE_FLOOR = 1e-12
"Below this transverse norm the impinging-field direction is degenerate."


def _series(x: np.ndarray) -> np.ndarray:
    "h(x) = sum_n HALF_WAVE_SERIES[n] * x^n by Horner's rule, as a new array."
    out = x * HALF_WAVE_SERIES[-1]
    out += HALF_WAVE_SERIES[-2]
    for c in HALF_WAVE_SERIES[-3::-1]:
        out *= x
        out += c
    return out


def _pattern(cos_theta: np.ndarray) -> np.ndarray:
    """Half-wave dipole pattern sqrt(1 - c^2) * h(c^2) of a float64 array c (ndim >= 1).

    The pattern is even in c, so theta and pi - theta need no sign flip.
    """
    out = _series(np.square(cos_theta))
    # (1 - c)(1 + c) keeps sin(theta) accurate next to the axial null, where 1 - c^2 is not
    sin2 = (1.0 - cos_theta) * (1.0 + cos_theta)
    np.maximum(sin2, 0.0, out=sin2)
    out *= np.sqrt(sin2)
    return out


@dataclass
class PolarizedChannel:
    """Complex channel vectors for the x- and y-oriented TX dipole sets.

    Entry i is antenna i of the layout, as ``_positions`` orders them.
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
        disp = rx[None, :] - _positions(layout)
        dist = np.linalg.norm(disp, axis=1)
        if np.any(dist == 0.0):
            raise ValueError("RX is co-located with a TX element")
        wavelength = layout.wavelength
        self.layout = layout
        self.rx_center = rx
        self.distances = dist
        self.p_hat = disp / dist[:, None]
        self.h_up = (wavelength / (4.0 * math.pi) / dist) * np.exp(
            (-2j * math.pi / wavelength) * dist
        )
        cos_tx_x = self.p_hat[:, 0]
        cos_tx_y = self.p_hat[:, 1]
        self.g_tx_x = _pattern(cos_tx_x)
        self.g_tx_y = _pattern(cos_tx_y)
        self.e_x = _transverse_unit(X_HAT, self.p_hat, cos_tx_x)
        self.e_y = _transverse_unit(Y_HAT, self.p_hat, cos_tx_y)

    def channel_for(self, v_hat) -> PolarizedChannel:
        "Channel vectors for a receive dipole along the unit vector ``v_hat``."
        v = np.asarray(v_hat, dtype=float)
        # theta_rx = pi - arccos(v . p_hat); the pattern sin(theta) h(cos^2) is even in
        # cos(theta), and |p_hat x v| keeps the sine accurate next to the RX dipole's
        # axis, where the rounded cosine does not
        g_rx = _series(np.square(self.p_hat @ v))
        g_rx *= np.linalg.norm(np.cross(self.p_hat, v), axis=1)
        real_x = self.g_tx_x * g_rx
        real_x *= self.e_x @ v
        real_y = self.g_tx_y * g_rx
        real_y *= self.e_y @ v
        return PolarizedChannel(h_x=self.h_up * real_x, h_y=self.h_up * real_y)


def _positions(layout: ArrayLayout) -> np.ndarray:
    "The (n, 3) positions in meters of ``layout``'s antennas, row i for antenna i."
    t, n = layout.rows, layout.n_tx
    run = np.repeat(np.arange(t.y.size), np.diff(t.first_antenna))
    pos = np.zeros((n, 3))
    pos[:, 0] = t.x_table[t.first_x[run] + (np.arange(n) - t.first_antenna[run])]
    pos[:, 1] = t.y[run]
    return pos


def _transverse_unit(u, p_hat, cos_up):
    # u - (u . p) p, normalized per row; zero rows mark the axial degeneracy
    w = u[None, :] - cos_up[:, None] * p_hat
    n = np.linalg.norm(w, axis=1)
    out = np.zeros_like(w)
    ok = n >= TRANSVERSE_FLOOR
    out[ok] = w[ok] / n[ok, None]
    return out
