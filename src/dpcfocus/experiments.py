"""Orientation sweeps, improvement statistics, achievable rates.

A sweep fixes the RX center, walks the receive dipole over an orientation
grid, and returns the three architecture SNRs per orientation as one (m, 3)
array with columns (DPC, dual, switched). Distributions of the DPC advantage
(in dB over a benchmark) are then summarized with box-plot statistics, and
rates follow from averaging B*log2(1+SNR).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .beamforming import LinkBudget, fold_placements, folded_snrs, link_snrs, thermal_noise_power
from .geometry import (
    SPEED_OF_LIGHT,
    ArrayLayout,
    _even_divisions,
    _positive_finite,
    orientation_grid,
    rx_position,
)

NARROWBAND_MARGIN = 0.1
"Delay spread must stay below this fraction of the symbol time 1/B."

BASELINE_COLUMNS = {"dual": 1, "switched": 2}
"Column of each benchmark architecture in an (m, 3) SNR array; column 0 is DPC."

DEFAULT_ALPHAS_DEG = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0)
DEFAULT_DISTANCES_M = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass(frozen=True)
class SweepConfig:
    """Resolved sweep parameters; SI units and radians throughout.

    ``noise_power`` defaults to the thermal floor k_B * 290 K * bandwidth
    when left as None.
    """

    radius: float = 0.15
    carrier_frequency: float = 300e9
    alpha_values: tuple = tuple(math.radians(a) for a in DEFAULT_ALPHAS_DEG)
    distance_values: tuple = DEFAULT_DISTANCES_M
    azimuth_step: float = math.radians(10.0)
    elevation_step: float = math.radians(10.0)
    bandwidth: float = 100e6
    transmit_power: float = 1e-3
    noise_power: float | None = None

    def __post_init__(self):
        if self.noise_power is None:
            object.__setattr__(self, "noise_power", thermal_noise_power(self.bandwidth))
        # + 0.0 turns an angle of -0.0 into 0.0, which the CSVs and manifest then echo
        for name in ("alpha_values", "distance_values"):
            object.__setattr__(self, name, tuple(float(x) + 0.0 for x in getattr(self, name)))
        for name in ("radius", "carrier_frequency", "azimuth_step", "elevation_step",
                     "bandwidth", "transmit_power", "noise_power"):
            if not _positive_finite(getattr(self, name)):
                raise ValueError(f"{name} must be positive and finite")
        if not self.alpha_values:
            raise ValueError("alpha_values must be non-empty")
        # the RX must sit in front of the array: alpha = 90 degrees is the array plane
        if not all(0.0 <= a < math.pi / 2.0 for a in self.alpha_values):
            raise ValueError("alpha_values must lie in [0, 90) degrees")
        if not self.distance_values or not all(map(_positive_finite, self.distance_values)):
            raise ValueError("distance_values must be non-empty, positive and finite")
        if not math.isfinite(self.wavelength):
            raise ValueError("carrier_frequency is too small: the wavelength overflows")
        if not math.isfinite(1.0 / self.bandwidth):
            raise ValueError("bandwidth is too small: the symbol time 1/B overflows")
        # the lattice pitch is half a wavelength; a smaller radius keeps only the centre
        # element, which is at the RX dipole's axial null for v = z when alpha = 0
        if self.radius / (self.wavelength / 2.0) < 1.0:
            raise ValueError(
                "radius must be at least half a wavelength: a smaller lattice has one element"
            )
        _even_divisions(2.0 * math.pi, self.azimuth_step, "azimuth_step")
        _even_divisions(math.pi, self.elevation_step, "elevation_step")
        self.budget()  # rejects a link budget whose P/N overflows

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency

    def budget(self) -> LinkBudget:
        return LinkBudget(transmit_power=self.transmit_power, noise_power=self.noise_power)

    def scaled(self, factor: float) -> "SweepConfig":
        "Copy with the aperture radius multiplied by ``factor``."
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return replace(self, radius=self.radius * factor)


class DistributionStats(NamedTuple):
    """Box-plot summary of a dB-improvement distribution.

    Quartiles use linear interpolation; whiskers sit 1.5 IQR beyond the
    quartiles, clamped to the observed extremes. The first five fields are
    in the order of the CLI's statistics columns, so a row takes them as
    ``stats[:5]``.
    """

    median: float
    lower_quartile: float
    upper_quartile: float
    lower_whisker: float
    upper_whisker: float
    sample_count: int


def narrowband_check(distance: float, radius: float, bandwidth: float) -> tuple[float, bool]:
    """Boresight delay spread across the aperture and a narrowband verdict.

    The spread is (sqrt(d^2 + R^2) - d) / c, the extra flight time from the
    aperture rim relative to its center. ``valid`` means the spread stays
    under ``NARROWBAND_MARGIN`` symbol times (1/bandwidth).
    """
    if not (_positive_finite(distance) and _positive_finite(bandwidth)
            and 0 <= radius < math.inf):
        raise ValueError(
            "distance and bandwidth must be positive and finite, radius finite and non-negative"
        )
    delay = (math.hypot(distance, radius) - distance) / SPEED_OF_LIGHT
    return delay, delay < NARROWBAND_MARGIN / bandwidth


def placement_sweeps(
    layout: ArrayLayout,
    placements,
    budget: LinkBudget,
    *,
    grid: np.ndarray | None = None,
):
    """Iterator over the SNRs of every receive-dipole orientation, per (alpha, distance).

    Each item is an (m, 3) array whose row i holds the (DPC, dual, switched)
    SNRs for ``grid[i]`` (default ``orientation_grid()``) with the RX center
    at ``rx_position(distance, alpha)``. The arrays come in placement order,
    each as soon as it is ready, from one ``folded_snrs`` stream: the antenna
    blocks of all placements share one set of worker threads, and each array
    is bit-identical to the one a call with its placement alone yields.

    The CLI does not call this: it folds its placements in ``plan_run``,
    before its refusals, its statistics read the budget-free gains of
    ``folded_snrs``, where this yields SNRs, and it warns of each placement
    that fails ``narrowband_check``, which this leaves to the caller.
    """
    if grid is None:
        grid = orientation_grid()
    rx_centers = [rx_position(distance, alpha) for alpha, distance in placements]
    folded = fold_placements(layout, rx_centers, grid)
    gains = folded_snrs(layout, folded)
    return (link_snrs(g, budget, layout.wavelength, r0) for (_, r0, _), g in zip(folded, gains))


def _snr_rows(snr) -> np.ndarray:
    snr = np.asarray(snr, dtype=float)
    if snr.ndim != 2 or snr.shape[1] != 3 or snr.shape[0] == 0:
        raise ValueError("snr must be a non-empty (m, 3) array of (DPC, dual, switched)")
    # NaN fails both tests; a zero SNR is allowed, with rate 0
    if not np.all((snr >= 0.0) & (snr < math.inf)):
        raise ValueError("SNRs must be finite and non-negative")
    return snr


def improvements_db(snr, baseline: str) -> np.ndarray:
    "Per-orientation DPC SNR advantage over ``baseline`` (switched or dual), in dB."
    if baseline not in BASELINE_COLUMNS:
        raise ValueError(f"unknown baseline {baseline!r}; expected 'switched' or 'dual'")
    snr = _snr_rows(snr)[:, [0, BASELINE_COLUMNS[baseline]]]
    if not np.all(snr > 0.0):
        raise ValueError("SNRs must be positive: a zero SNR has no dB improvement")
    a, b = snr[:, 0], snr[:, 1]
    # log1p of the relative difference keeps every digit when a is close to b, where
    # log10(a / b) keeps only those of the rounded a / b past 1
    return (10.0 / math.log(10.0)) * np.log1p((a - b) / b)


def improvement_stats(snr, baseline: str) -> DistributionStats:
    "Box-plot statistics of the dB improvement over ``baseline``."
    imp = np.sort(improvements_db(snr, baseline))
    q1, med, q3 = (_linear_quantile(imp, q) for q in (0.25, 0.5, 0.75))
    iqr = q3 - q1
    return DistributionStats(
        median=med,
        lower_quartile=q1,
        upper_quartile=q3,
        lower_whisker=float(max(q1 - 1.5 * iqr, imp[0])),
        upper_whisker=float(min(q3 + 1.5 * iqr, imp[-1])),
        sample_count=int(imp.size),
    )


def _linear_quantile(ordered: np.ndarray, q: float) -> float:
    """Quantile ``q`` of the ascending ``ordered``, as ``np.quantile``'s default
    linear method gives it, bit for bit. ``ordered`` holds no NaN: its one
    caller sorts ``improvements_db``, which refuses non-finite and zero SNRs,
    and log1p of (a - b) / b, which is above -1, is never NaN.

    The index is (n - 1) q; from below, fraction t of the way to the next
    entry, the value is a + (b - a) t for t < 0.5 and b - (b - a)(1 - t)
    otherwise. numpy takes an index at or past the last entry as the last
    entry both ways, with t = index + 1. ``np.percentile`` itself would
    import ``numpy.ma`` (through ``np.unique``) on first use: 1.2 MiB, 10 ms.
    """
    last = ordered.size - 1
    at = last * q
    if at >= last:
        a = b = float(ordered[last])
        t = at + 1.0
    else:
        i = math.floor(at)
        a, b, t = float(ordered[i]), float(ordered[i + 1]), at - i
    d = b - a
    return a + d * t if t < 0.5 else b - d * (1.0 - t)


def ergodic_rate(snr, bandwidth: float) -> tuple[float, float, float]:
    """Mean achievable rate B*log2(1+SNR) per architecture, in bits/second.

    Returns (rate_dpc, rate_dual, rate_switched), each averaged over the
    rows of the (m, 3) SNR array with equal weight.
    """
    snr = _snr_rows(snr)
    if not _positive_finite(bandwidth):
        raise ValueError("bandwidth must be positive and finite")
    # log1p keeps the rate of an SNR below the spacing of floats near 1
    rates = bandwidth * (np.log1p(snr) / math.log(2.0)).mean(axis=0)
    return float(rates[0]), float(rates[1]), float(rates[2])
