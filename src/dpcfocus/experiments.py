"""Orientation sweeps, improvement statistics, achievable rates.

A sweep fixes the RX center, walks the receive dipole over an orientation
grid, and returns the three architecture SNRs per orientation as one (m, 3)
float64 view with columns (DPC, dual, switched). Distributions of the DPC
advantage (in dB over a benchmark) are then summarized with box-plot
statistics, and rates follow from averaging B*log2(1+SNR). Both take rows
with a multiplicity each, so the SNRs of a fold's direction classes stand
for every member; the compiled kernel forms their elementwise terms.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import NamedTuple

from .beamforming import (
    LinkBudget,
    _address,
    _tile_kernel,
    fold_placements,
    folded_snrs,
    link_snrs,
    thermal_noise_power,
)
from .geometry import (
    SPEED_OF_LIGHT,
    ArrayLayout,
    _even_divisions,
    _positive_finite,
    _row_array,
    _rows,
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
    grid=None,
):
    """Iterator over the SNRs of every receive-dipole orientation, per (alpha, distance).

    Each item is an (m, 3) float64 view whose row i holds the (DPC, dual,
    switched) SNRs for row i of ``grid`` (default ``orientation_grid()``)
    with the RX center at ``rx_position(distance, alpha)``. The views come in
    placement order, each as soon as it is ready, from one ``folded_snrs``
    stream: the antenna blocks of all placements share one set of worker
    threads, and each view is bit-identical to the one a call with its
    placement alone yields. A bad placement, RX center or grid is refused at
    the call, before any kernel work.

    The CLI does not call this: it folds its placements in ``plan_run``,
    before its refusals, its statistics read the budget-free gains of
    ``folded_snrs``, where this yields SNRs, and it warns of each placement
    that fails ``narrowband_check``, which this leaves to the caller.
    """
    if grid is None:
        grid = orientation_grid()
    rx_centers = [rx_position(distance, alpha) for alpha, distance in placements]
    folded = fold_placements(layout, rx_centers, grid)  # refuses bad input at the call
    gains = folded_snrs(layout, folded)
    return (_expanded(link_snrs(g, budget, layout.wavelength, r0), fold.inverse)
            for (_, r0, fold), g in zip(folded, gains))


def _expanded(snr, inverse) -> memoryview:
    "The (m, 3) rows of class SNRs ``snr`` repeated per direction: row i is class ``inverse[i]``'s."
    rows = snr.tolist()
    return _rows(array("d", [x for c in inverse for x in rows[c]]))


def _refuse(code: int) -> None:
    "Raise the refusal that a compiled ``db_terms`` or ``rate_terms`` returned ``code`` for."
    # NaN fails both tests; a zero SNR is allowed, with rate 0
    if code == 1:
        raise ValueError("SNRs must be finite and non-negative")
    if code == 2:
        raise ValueError("SNRs must be positive: a zero SNR has no dB improvement")


def improvements_db(snr, baseline: str) -> list[float]:
    "Per-row DPC SNR advantage over ``baseline`` (switched or dual), in dB, of (m, 3) rows."
    if baseline not in BASELINE_COLUMNS:
        raise ValueError(f"unknown baseline {baseline!r}; expected 'switched' or 'dual'")
    rows = _row_array(snr, "snr")
    out = array("d", bytes(len(rows) // 3 * 8))
    # log1p of the relative difference keeps every digit when a is close to b, where
    # log10(a / b) keeps only those of the rounded a / b past 1
    _refuse(_tile_kernel().db_terms(_address(rows), len(out), BASELINE_COLUMNS[baseline],
                                    10.0 / math.log(10.0), _address(out)))
    return out.tolist()


def improvement_stats(snr, baseline: str, counts=None) -> DistributionStats:
    """Box-plot statistics of the dB improvement over ``baseline``.

    Row i of the (m, 3) ``snr`` stands for ``counts[i]`` samples (default 1
    each), so the statistics are those of the rows repeated that often, bit
    for bit, taken from one sort of the m rows.
    """
    imp = improvements_db(snr, baseline)
    counts = _multiplicities(counts, len(imp))
    order = sorted(range(len(imp)), key=imp.__getitem__)
    ends = list(accumulate([counts[i] for i in order]))  # samples up to each row's last

    def sample(i: int) -> float:
        return imp[order[bisect_right(ends, i)]]

    q1, med, q3 = (_linear_quantile(sample, ends[-1], q) for q in (0.25, 0.5, 0.75))
    iqr = q3 - q1
    return DistributionStats(
        median=med,
        lower_quartile=q1,
        upper_quartile=q3,
        lower_whisker=max(q1 - 1.5 * iqr, imp[order[0]]),
        upper_whisker=min(q3 + 1.5 * iqr, imp[order[-1]]),
        sample_count=ends[-1],
    )


def _multiplicities(counts, m: int) -> array:
    "``counts``, one positive int per row of m, or 1 for each row when None, as int64."
    counts = array("q", [1]) * m if counts is None else array("q", counts)
    if len(counts) != m or min(counts) < 1:
        raise ValueError("counts must hold one positive integer per row")
    return counts


def _linear_quantile(sample, size: int, q: float) -> float:
    """Quantile ``q`` of ``size`` ascending samples, ``sample(i)`` the i-th, as
    ``np.quantile``'s default linear method gives it, bit for bit. No sample is
    NaN: its one caller sorts ``improvements_db``, which refuses non-finite and
    zero SNRs, and log1p of (a - b) / b, which is above -1, is never NaN.

    The index is (n - 1) q; from below, fraction t of the way to the next
    entry, the value is a + (b - a) t for t < 0.5 and b - (b - a)(1 - t)
    otherwise. numpy takes an index at or past the last entry as the last
    entry both ways, with t = index + 1.
    """
    last = size - 1
    at = last * q
    if at >= last:
        a = b = sample(last)
        t = at + 1.0
    else:
        i = math.floor(at)
        a, b, t = sample(i), sample(i + 1), at - i
    d = b - a
    return a + d * t if t < 0.5 else b - d * (1.0 - t)


def ergodic_rate(snr, bandwidth: float, counts=None) -> tuple[float, float, float]:
    """Mean achievable rate B*log2(1+SNR) per architecture, in bits/second.

    Returns (rate_dpc, rate_dual, rate_switched), each averaged over the
    rows of the (m, 3) SNR array, row i weighted by ``counts[i]`` (default
    1 each).
    """
    rows = _row_array(snr, "snr")
    m = len(rows) // 3
    counts = _multiplicities(counts, m)
    terms = array("d", bytes(len(rows) * 8))
    # log1p keeps the rate of an SNR below the spacing of floats near 1
    _refuse(_tile_kernel().rate_terms(_address(rows), m, _address(counts), math.log(2.0),
                                      _address(terms)))
    if not _positive_finite(bandwidth):
        raise ValueError("bandwidth must be positive and finite")
    total = sum(counts)
    dpc, dual, switched = (bandwidth * (math.fsum(terms[k::3]) / total) for k in range(3))
    return dpc, dual, switched
