import math
import statistics

import numpy as np
import pytest

from dpcfocus.beamforming import LinkBudget, SnrTriple, thermal_noise_power
from dpcfocus.experiments import (
    DistributionStats,
    SweepConfig,
    SweepRecord,
    distance_sweep,
    ergodic_rate,
    improvement_stats,
    improvements_db,
    median_improvement_sequence,
    narrowband_check,
    orientation_sweep,
)
from dpcfocus.geometry import SPEED_OF_LIGHT, build_circular_array, orientation_grid

BUDGET = LinkBudget(transmit_power=1e-3, noise_power=thermal_noise_power(100e6))
WAVELENGTH = SPEED_OF_LIGHT / 300e9


@pytest.fixture(scope="module")
def small_layout():
    # reduced aperture keeps sweeps fast while preserving the physics
    return build_circular_array(radius=0.01, wavelength=WAVELENGTH)


@pytest.fixture(scope="module")
def coarse_grid():
    return orientation_grid(math.radians(30.0), math.radians(30.0))


def records_from_ratios(ratios, base=1.0):
    "Records whose DPC/baseline SNR ratio is prescribed (both baselines equal)."
    return [
        SweepRecord(
            alpha=0.0,
            distance=0.1,
            orientation_index=i,
            snr=SnrTriple(snr_dpc=base * r, snr_dual=base, snr_switched=base),
        )
        for i, r in enumerate(ratios)
    ]


def test_orientation_sweep_shape_and_ordering(small_layout):
    records = orientation_sweep(small_layout, math.radians(30.0), 0.1, BUDGET)
    assert len(records) == 648
    assert [r.orientation_index for r in records] == list(range(648))
    assert all(r.alpha == math.radians(30.0) and r.distance == 0.1 for r in records)


def test_orientation_sweep_hierarchy_per_record(small_layout, coarse_grid):
    records = orientation_sweep(
        small_layout, math.radians(20.0), 0.15, BUDGET, grid=coarse_grid
    )
    for r in records:
        assert r.snr.snr_dpc >= r.snr.snr_dual * (1.0 - 1e-12)
        assert r.snr.snr_dual >= r.snr.snr_switched * (1.0 - 1e-12)


def test_orientation_sweep_duplicate_pole_orientations(small_layout):
    records = orientation_sweep(small_layout, math.radians(30.0), 0.1, BUDGET)
    # elevation 0 repeats the +z dipole for every azimuth
    first = records[0].snr
    for r in records[1:36]:
        assert r.snr == first


def test_orientation_sweep_warns_when_narrowband_fails(small_layout, coarse_grid):
    with pytest.warns(RuntimeWarning):
        orientation_sweep(
            small_layout, 0.0, 0.1, BUDGET, grid=coarse_grid, bandwidth=1e12
        )


def test_improvement_stats_constant_distributions():
    stats = improvement_stats(records_from_ratios([1.0] * 10), "switched")
    for field in ("median", "lower_quartile", "upper_quartile", "lower_whisker", "upper_whisker"):
        assert getattr(stats, field) == 0.0
    assert stats.sample_count == 10

    stats2 = improvement_stats(records_from_ratios([2.0, 2.0, 2.0]), "dual")
    assert math.isclose(stats2.median, 3.010299956639812, rel_tol=1e-12)
    assert math.isclose(stats2.lower_quartile, stats2.upper_quartile, rel_tol=1e-12)


def test_improvement_stats_quartiles_match_inclusive_convention():
    rng = np.random.default_rng(4)
    ratios = 10.0 ** (rng.uniform(0.0, 0.5, size=101) / 10.0)
    records = records_from_ratios(list(ratios))
    stats = improvement_stats(records, "switched")
    imp = improvements_db(records, "switched")
    q1, q2, q3 = statistics.quantiles(imp.tolist(), n=4, method="inclusive")
    assert math.isclose(stats.lower_quartile, q1, rel_tol=1e-12)
    assert math.isclose(stats.median, q2, rel_tol=1e-12)
    assert math.isclose(stats.upper_quartile, q3, rel_tol=1e-12)
    assert (
        stats.lower_whisker
        <= stats.lower_quartile
        <= stats.median
        <= stats.upper_quartile
        <= stats.upper_whisker
    )


def test_improvement_stats_whiskers_clamp_to_extremes():
    imp_db = [0.0, 1.0, 2.0, 3.0, 100.0]
    records = records_from_ratios([10.0 ** (x / 10.0) for x in imp_db])
    stats = improvement_stats(records, "switched")
    assert math.isclose(stats.lower_quartile, 1.0, rel_tol=1e-12)
    assert math.isclose(stats.upper_quartile, 3.0, rel_tol=1e-12)
    # lower fence would sit at -2 dB but the data floor is 0
    assert math.isclose(stats.lower_whisker, 0.0, abs_tol=1e-12)
    # upper fence 1.5*IQR above q3 cuts off the outlier at 100
    assert math.isclose(stats.upper_whisker, 6.0, rel_tol=1e-12)


def test_improvement_stats_rejects_bad_input():
    with pytest.raises(ValueError):
        improvement_stats([], "switched")
    with pytest.raises(ValueError):
        improvement_stats(records_from_ratios([1.0]), "best")


def test_improvements_are_nonnegative_for_model_channels(small_layout, coarse_grid):
    records = orientation_sweep(
        small_layout, math.radians(40.0), 0.12, BUDGET, grid=coarse_grid
    )
    assert np.all(improvements_db(records, "switched") >= -1e-12)
    assert np.all(improvements_db(records, "dual") >= -1e-12)


def test_distance_sweep_single_point_matches_direct_call(small_layout, coarse_grid):
    results = distance_sweep(
        small_layout, math.radians(30.0), [0.2], BUDGET, grid=coarse_grid
    )
    assert len(results) == 1
    records = orientation_sweep(
        small_layout, math.radians(30.0), 0.2, BUDGET, grid=coarse_grid
    )
    assert results[0].vs_switched == improvement_stats(records, "switched")
    assert results[0].vs_dual == improvement_stats(records, "dual")


def test_distance_sweep_requires_ascending_distances(small_layout):
    with pytest.raises(ValueError):
        distance_sweep(small_layout, 0.0, [0.3, 0.2], BUDGET)
    with pytest.raises(ValueError):
        distance_sweep(small_layout, 0.0, [], BUDGET)


def test_distance_sweep_dual_advantage_fades_with_range(small_layout, coarse_grid):
    results = distance_sweep(
        small_layout, math.radians(30.0), [0.1, 1.0], BUDGET, grid=coarse_grid
    )
    medians = median_improvement_sequence(results, "dual")
    assert medians[-1] < medians[0]
    assert np.all(median_improvement_sequence(results, "switched") >= 0.0)


def test_ergodic_rate_reference_point():
    records = [
        SweepRecord(0.0, 0.1, 0, SnrTriple(snr_dpc=1.0, snr_dual=1.0, snr_switched=1.0))
    ]
    rate_dpc, rate_dual, rate_sw = ergodic_rate(records, bandwidth=1e8)
    assert math.isclose(rate_dpc, 1e8, rel_tol=1e-12)
    assert math.isclose(rate_dual, 1e8, rel_tol=1e-12)
    assert math.isclose(rate_sw, 1e8, rel_tol=1e-12)


def test_ergodic_rate_preserves_hierarchy(small_layout, coarse_grid):
    records = orientation_sweep(
        small_layout, math.radians(10.0), 0.1, BUDGET, grid=coarse_grid
    )
    rate_dpc, rate_dual, rate_sw = ergodic_rate(records, bandwidth=100e6)
    assert rate_dpc >= rate_dual >= rate_sw
    assert rate_sw > 0.0


def test_ergodic_rate_rejects_bad_input():
    with pytest.raises(ValueError):
        ergodic_rate([], bandwidth=1e8)
    with pytest.raises(ValueError):
        ergodic_rate(records_from_ratios([1.0]), bandwidth=0.0)


def test_narrowband_check_reference_values():
    delay, valid = narrowband_check(0.10, 0.15, 100e6)
    assert math.isclose(delay, 2.677771292471923e-10, rel_tol=1e-12)
    assert round(delay * 1e9, 2) == 0.27  # truncates to the 0.26 ns figure
    assert math.floor(delay * 1e11) / 100.0 == 0.26
    assert valid

    delay_far, valid_far = narrowband_check(1.0, 0.15, 100e6)
    assert math.isclose(delay_far, 3.7317218993661916e-11, rel_tol=1e-12)
    assert valid_far

    delay_zero, _ = narrowband_check(0.5, 0.0, 100e6)
    assert delay_zero == 0.0


def test_narrowband_check_monotonicity_and_threshold():
    delays_d = [narrowband_check(d, 0.15, 1e8)[0] for d in (0.1, 0.2, 0.5, 1.0)]
    assert all(a > b for a, b in zip(delays_d, delays_d[1:]))
    delays_r = [narrowband_check(0.1, r, 1e8)[0] for r in (0.0, 0.05, 0.15, 0.3)]
    assert all(a < b for a, b in zip(delays_r, delays_r[1:]))
    # verdict flips once the spread reaches a tenth of the symbol time
    _, ok = narrowband_check(0.10, 0.15, 3e8)
    assert ok
    _, bad = narrowband_check(0.10, 0.15, 4e8)
    assert not bad


def test_improvements_invariant_under_joint_power_scaling(small_layout, coarse_grid):
    base = orientation_sweep(small_layout, 0.2, 0.15, BUDGET, grid=coarse_grid)
    scaled_budget = LinkBudget(
        transmit_power=BUDGET.transmit_power * 7.0, noise_power=BUDGET.noise_power * 7.0
    )
    scaled = orientation_sweep(small_layout, 0.2, 0.15, scaled_budget, grid=coarse_grid)
    for a, b in zip(base, scaled):
        da = improvements_db([a], "switched")[0]
        db = improvements_db([b], "switched")[0]
        assert abs(da - db) <= 1e-12


def test_sweep_config_defaults_and_validation():
    config = SweepConfig()
    assert math.isclose(config.noise_power, 4.0038821e-13, rel_tol=1e-12)
    assert math.isclose(config.wavelength, WAVELENGTH, rel_tol=1e-15)
    assert len(config.alpha_values) == 7
    assert len(config.distance_values) == 10
    assert config.budget().transmit_power == 1e-3

    scaled = config.scaled(0.1)
    assert math.isclose(scaled.radius, 0.015, rel_tol=1e-15)
    assert scaled.carrier_frequency == config.carrier_frequency

    with pytest.raises(ValueError):
        SweepConfig(radius=-0.1)
    with pytest.raises(ValueError):
        SweepConfig(distance_values=())
    with pytest.raises(ValueError):
        SweepConfig(alpha_values=())
    with pytest.raises(ValueError):
        config.scaled(0.0)


def test_distribution_stats_sample_count_matches_grid(small_layout, coarse_grid):
    records = orientation_sweep(small_layout, 0.1, 0.3, BUDGET, grid=coarse_grid)
    stats = improvement_stats(records, "dual")
    assert stats.sample_count == coarse_grid.shape[0]
    assert isinstance(stats, DistributionStats)
