"""Orientation sweeps, improvement statistics, achievable rates.

A sweep fixes the RX center, walks the receive dipole over an orientation
grid, and returns the three architecture SNRs per orientation as one (m, 3)
float64 view with columns (DPC, dual, switched). Distributions of the DPC
advantage (in dB over a benchmark) are then summarized with box-plot
statistics, and rates follow from averaging B*log2(1+SNR). Both take rows
with a multiplicity each, so the SNRs of a fold's direction classes stand
for every member; the compiled kernel takes both, sort and sums included.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
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


REFUSALS = {
    1: "SNRs must be finite and non-negative",
    2: "SNRs must be positive: a zero SNR has no dB improvement",
}
"""The refusal of each nonzero code the compiled ``db_terms``, ``box_stats``,
``mean_rates`` and ``placement_row`` return. NaN fails both tests; a zero SNR is
allowed in the rates, with rate 0."""


def _refuse(code: int) -> None:
    "Raise the refusal that a compiled statistics or rate function returned ``code`` for."
    if code:
        raise ValueError(REFUSALS[code])


def improvements_db(snr, baseline: str) -> list[float]:
    "Per-row DPC SNR advantage over ``baseline`` (switched or dual), in dB, of (m, 3) rows."
    column = _column(baseline)
    rows = _row_array(snr, "snr")
    out = array("d", bytes(len(rows) // 3 * 8))
    _refuse(_tile_kernel().db_terms(_address(rows), len(out), column, _address(out)))
    return out.tolist()


def _column(baseline: str) -> int:
    "The column of ``baseline`` in (m, 3) SNR rows (``BASELINE_COLUMNS``), or ``ValueError``."
    if baseline not in BASELINE_COLUMNS:
        raise ValueError(f"unknown baseline {baseline!r}; expected 'switched' or 'dual'")
    return BASELINE_COLUMNS[baseline]


def improvement_stats(snr, baseline: str, counts=None) -> DistributionStats:
    """Box-plot statistics of the dB improvement over ``baseline``.

    Row i of the (m, 3) ``snr`` stands for ``counts[i]`` samples (default 1
    each), so the statistics are those of the rows repeated that often, bit
    for bit, taken by the compiled ``box_stats`` from one sort of the m rows:
    numpy's linear quartiles, with whiskers clamped as Python's ``max`` and
    ``min`` clamp. ``tests/oracles.py`` holds the same steps in Python.
    """
    column = _column(baseline)
    rows = _row_array(snr, "snr")
    m = len(rows) // 3
    counts = _multiplicities(counts, m)
    work, out = array("d", bytes(32 * m)), array("d", bytes(40))
    _refuse(_tile_kernel().box_stats(_address(rows), m, column, _address(counts),
                                     _address(work), _address(out)))
    return DistributionStats(*out, sample_count=sum(counts))


def _multiplicities(counts, m: int) -> array:
    """``counts``, one positive int per row of m, or 1 for each row when None, as int64,
    refused unless their total fits int64 too: the compiled statistics add them up."""
    try:
        counts = array("q", [1]) * m if counts is None else array("q", counts)
    except OverflowError:  # a count beyond int64
        counts = array("q")
    if len(counts) != m or min(counts) < 1 or sum(counts) >= 2**63:
        raise ValueError("counts must hold one positive integer per row, totalling below 2**63")
    return counts


def ergodic_rate(snr, bandwidth: float, counts=None) -> tuple[float, float, float]:
    """Mean achievable rate B*log2(1+SNR) per architecture, in bits/second.

    Returns (rate_dpc, rate_dual, rate_switched), each averaged over the
    rows of the (m, 3) SNR array, row i weighted by ``counts[i]`` (default
    1 each): the compiled ``mean_rates`` sums each column's weighted terms
    correctly rounded, as ``math.fsum`` does in ``tests/oracles.py``.
    """
    rows = _row_array(snr, "snr")
    m = len(rows) // 3
    counts = _multiplicities(counts, m)
    work, means = array("d", bytes(8 * m)), array("d", bytes(24))
    # the rows are SNRs already, and a link factor and bandwidth of 1 leave them and
    # their mean rates in bits per symbol as they are
    _refuse(_tile_kernel().mean_rates(_address(rows), m, _address(counts), 1.0, 1.0,
                                      _address(work), _address(means)))
    if not _positive_finite(bandwidth):
        raise ValueError("bandwidth must be positive and finite")
    dpc, dual, switched = (bandwidth * mean for mean in means)
    return dpc, dual, switched
