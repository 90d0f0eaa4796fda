"""Orientation and distance sweeps, improvement statistics, achievable rates.

A sweep fixes the RX center, walks the receive dipole over an orientation
grid, and records the three architecture SNRs per orientation. Distributions
of the DPC advantage (in dB over a benchmark) are then summarized with
box-plot statistics, and rates follow from averaging B*log2(1+SNR).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .beamforming import LinkBudget, SnrTriple, orientation_snr, thermal_noise_power
from .channel import ChannelGeometry
from .geometry import SPEED_OF_LIGHT, ArrayLayout, orientation_grid, rx_position

NARROWBAND_MARGIN = 0.1
"Delay spread must stay below this fraction of the symbol time 1/B."

DEFAULT_ALPHAS_DEG = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0)
DEFAULT_DISTANCES_M = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def _positive_finite(value: float) -> bool:
    return math.isfinite(value) and value > 0


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
        object.__setattr__(self, "alpha_values", tuple(float(a) for a in self.alpha_values))
        object.__setattr__(
            self, "distance_values", tuple(float(d) for d in self.distance_values)
        )
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


@dataclass
class SweepRecord:
    "SNR triple for one receive-dipole orientation at one RX placement."

    alpha: float
    distance: float
    orientation_index: int
    snr: SnrTriple


@dataclass
class DistributionStats:
    """Box-plot summary of a dB-improvement distribution.

    Quartiles use linear interpolation; whiskers sit 1.5 IQR beyond the
    quartiles, clamped to the observed extremes.
    """

    median: float
    lower_quartile: float
    upper_quartile: float
    lower_whisker: float
    upper_whisker: float
    sample_count: int


def narrowband_check(
    distance: float, radius: float, bandwidth: float, margin: float = NARROWBAND_MARGIN
) -> tuple[float, bool]:
    """Boresight delay spread across the aperture and a narrowband verdict.

    The spread is (sqrt(d^2 + R^2) - d) / c, the extra flight time from the
    aperture rim relative to its center. ``valid`` means the spread stays
    under ``margin`` symbol times (1/bandwidth).
    """
    if distance <= 0 or radius < 0 or bandwidth <= 0:
        raise ValueError("distance and bandwidth must be positive, radius non-negative")
    delay = (math.hypot(distance, radius) - distance) / SPEED_OF_LIGHT
    return delay, delay < margin / bandwidth


def orientation_sweep(
    layout: ArrayLayout,
    alpha: float,
    distance: float,
    budget: LinkBudget,
    *,
    grid: np.ndarray | None = None,
    bandwidth: float | None = None,
) -> list[SweepRecord]:
    """One SNR triple per receive-dipole orientation at a fixed RX center.

    The position-dependent channel factors are computed once, and every
    orientation's SNRs come from one batched magnitude pass
    (``orientation_snr``). When ``bandwidth`` is given, a failing narrowband
    check issues a warning but the sweep still runs.
    """
    if grid is None:
        grid = orientation_grid()
    if bandwidth is not None:
        delay, ok = narrowband_check(distance, layout.radius, bandwidth)
        if not ok:
            warnings.warn(
                f"delay spread {delay:.3e} s is not small against the symbol time "
                f"{1.0 / bandwidth:.3e} s; narrowband results are questionable",
                RuntimeWarning,
                stacklevel=2,
            )
    geom = ChannelGeometry(layout, rx_position(distance, alpha))
    snr = orientation_snr(geom, grid, budget)
    return [
        SweepRecord(
            alpha=alpha,
            distance=distance,
            orientation_index=i,
            snr=SnrTriple(snr_dpc=dpc, snr_dual=dual, snr_switched=switched),
        )
        for i, (dpc, dual, switched) in enumerate(snr.tolist())
    ]


def improvements_db(records: list[SweepRecord], baseline: str) -> np.ndarray:
    "Per-record DPC SNR advantage over ``baseline`` (switched or dual), in dB."
    if baseline == "switched":
        base = np.array([r.snr.snr_switched for r in records])
    elif baseline == "dual":
        base = np.array([r.snr.snr_dual for r in records])
    else:
        raise ValueError(f"unknown baseline {baseline!r}; expected 'switched' or 'dual'")
    dpc = np.array([r.snr.snr_dpc for r in records])
    return 10.0 * np.log10(dpc / base)


def improvement_stats(records: list[SweepRecord], baseline: str) -> DistributionStats:
    "Box-plot statistics of the dB improvement over ``baseline``."
    if not records:
        raise ValueError("no records to summarize")
    imp = improvements_db(records, baseline)
    q1, med, q3 = np.percentile(imp, [25.0, 50.0, 75.0])
    iqr = q3 - q1
    return DistributionStats(
        median=float(med),
        lower_quartile=float(q1),
        upper_quartile=float(q3),
        lower_whisker=float(max(q1 - 1.5 * iqr, imp.min())),
        upper_whisker=float(min(q3 + 1.5 * iqr, imp.max())),
        sample_count=int(imp.size),
    )


@dataclass
class DistanceResult:
    "Orientation-sweep summary at one transceiver distance."

    distance: float
    vs_switched: DistributionStats
    vs_dual: DistributionStats
    records: list[SweepRecord]


def distance_sweep(
    layout: ArrayLayout,
    alpha: float,
    distances,
    budget: LinkBudget,
    *,
    grid: np.ndarray | None = None,
    bandwidth: float | None = None,
) -> list[DistanceResult]:
    "Orientation sweep at each distance (ascending), both baselines summarized."
    distances = [float(d) for d in distances]
    if not distances:
        raise ValueError("distances must be non-empty")
    if any(b <= a for a, b in zip(distances, distances[1:])):
        raise ValueError("distances must be strictly ascending")
    if grid is None:
        grid = orientation_grid()
    results = []
    for d in distances:
        records = orientation_sweep(layout, alpha, d, budget, grid=grid, bandwidth=bandwidth)
        results.append(
            DistanceResult(
                distance=d,
                vs_switched=improvement_stats(records, "switched"),
                vs_dual=improvement_stats(records, "dual"),
                records=records,
            )
        )
    return results


def median_improvement_sequence(results: list[DistanceResult], baseline: str) -> np.ndarray:
    "Median dB improvement against ``baseline`` at each swept distance."
    if baseline == "switched":
        return np.array([r.vs_switched.median for r in results])
    if baseline == "dual":
        return np.array([r.vs_dual.median for r in results])
    raise ValueError(f"unknown baseline {baseline!r}; expected 'switched' or 'dual'")


def ergodic_rate(records: list[SweepRecord], bandwidth: float) -> tuple[float, float, float]:
    """Mean achievable rate B*log2(1+SNR) per architecture, in bits/second.

    Returns (rate_dpc, rate_dual, rate_switched), each averaged over the
    given records with equal weight.
    """
    if not records:
        raise ValueError("no records to average")
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    snr = np.array(
        [[r.snr.snr_dpc, r.snr.snr_dual, r.snr.snr_switched] for r in records]
    )
    rates = bandwidth * np.log2(1.0 + snr).mean(axis=0)
    return float(rates[0]), float(rates[1]), float(rates[2])
