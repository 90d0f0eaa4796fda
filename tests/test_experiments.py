import math
import statistics
import struct
import sys
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpcfocus.beamforming import (
    LinkBudget,
    _address,
    _tile_kernel,
    fold_placements,
    folded_snrs,
    thermal_noise_power,
)
from dpcfocus.channel import ChannelGeometry
from dpcfocus.experiments import (
    REFUSALS,
    DistributionStats,
    SweepConfig,
    ergodic_rate,
    improvement_stats,
    improvements_db,
    narrowband_check,
    placement_sweeps,
)
from dpcfocus.geometry import (
    SPEED_OF_LIGHT,
    build_circular_array,
    orientation_grid,
    rx_position,
)
from conftest import kernel_snr
from oracles import python_ergodic_rate, python_improvement_stats

BUDGET = LinkBudget(transmit_power=1e-3, noise_power=thermal_noise_power(100e6))
WAVELENGTH = SPEED_OF_LIGHT / 300e9


@pytest.fixture(scope="module")
def small_layout():
    # reduced aperture keeps sweeps fast while preserving the physics
    return build_circular_array(radius=0.01, wavelength=WAVELENGTH)


@pytest.fixture(scope="module")
def coarse_grid():
    return np.asarray(orientation_grid(math.radians(30.0), math.radians(30.0)))


def sweeps(layout, placements, budget, grid=None):
    "``placement_sweeps`` as a list of (m, 3) arrays."
    return [np.asarray(snr) for snr in placement_sweeps(layout, placements, budget, grid=grid)]


def snr_from_ratios(ratios, base=1.0):
    "(m, 3) SNR rows whose DPC/baseline ratio is prescribed (both baselines equal)."
    dpc = base * np.asarray(ratios, dtype=float)
    return np.column_stack((dpc, np.full_like(dpc, base), np.full_like(dpc, base)))


def test_orientation_sweep_shape_and_ordering(small_layout):
    alpha = math.radians(30.0)
    (view,) = placement_sweeps(small_layout, [(alpha, 0.1)], BUDGET)
    assert view.shape == (648, 3) and view.format == "d"
    rx = rx_position(0.1, alpha)
    assert np.array_equal(view, kernel_snr(small_layout, rx, orientation_grid(), BUDGET))


def test_orientation_sweep_never_builds_channel_geometry(small_layout, coarse_grid, monkeypatch):
    (expected,) = sweeps(small_layout, [(0.4, 0.2)], BUDGET, grid=coarse_grid)

    def refuse(*args, **kwargs):
        raise AssertionError("the sweep path built a ChannelGeometry")

    monkeypatch.setattr(ChannelGeometry, "__init__", refuse)
    (got,) = sweeps(small_layout, [(0.4, 0.2)], BUDGET, grid=coarse_grid)
    assert np.array_equal(got, expected)


def test_orientation_sweep_hierarchy_per_record(small_layout, coarse_grid):
    (snr,) = sweeps(small_layout, [(math.radians(20.0), 0.15)], BUDGET, grid=coarse_grid)
    assert np.all(snr[:, 0] >= snr[:, 1] * (1.0 - 1e-12))
    assert np.all(snr[:, 1] >= snr[:, 2] * (1.0 - 1e-12))


def test_orientation_sweep_duplicate_pole_orientations(small_layout):
    (snr,) = sweeps(small_layout, [(math.radians(30.0), 0.1)], BUDGET)
    # elevation 0 repeats the +z dipole for every azimuth
    assert np.array_equal(snr[1:36], np.broadcast_to(snr[0], (35, 3)))


def test_placement_sweeps_match_one_placement_sweeps(small_layout, coarse_grid):
    placements = [(0.0, 0.1), (math.radians(30.0), 0.3), (math.radians(60.0), 1.0)]
    streamed = sweeps(small_layout, placements, BUDGET, grid=coarse_grid)
    for (alpha, d), snr in zip(placements, streamed, strict=True):
        (expected,) = sweeps(small_layout, [(alpha, d)], BUDGET, grid=coarse_grid)
        assert np.array_equal(snr, expected)


@pytest.mark.parametrize("bad", [
    {"placements": [(0.0, -0.1)]},
    {"placements": [(math.nan, 0.1)]},
    {"grid": np.empty((0, 3))},
    {"grid": np.full((2, 3), 2.0)},
], ids=["distance", "alpha", "empty-grid", "not-unit"])
def test_placement_sweeps_refuse_bad_input_at_the_call(small_layout, coarse_grid, bad):
    args = {"placements": [(0.0, 0.1)], "grid": coarse_grid, **bad}
    with pytest.raises(ValueError):
        placement_sweeps(small_layout, args["placements"], BUDGET, grid=args["grid"])


def test_improvement_stats_constant_distributions():
    stats = improvement_stats(snr_from_ratios([1.0] * 10), "switched")
    for field in ("median", "lower_quartile", "upper_quartile", "lower_whisker", "upper_whisker"):
        assert getattr(stats, field) == 0.0
    assert stats.sample_count == 10

    stats2 = improvement_stats(snr_from_ratios([2.0, 2.0, 2.0]), "dual")
    assert math.isclose(stats2.median, 3.010299956639812, rel_tol=1e-12)
    assert math.isclose(stats2.lower_quartile, stats2.upper_quartile, rel_tol=1e-12)


def test_improvement_stats_quartiles_match_inclusive_convention():
    rng = np.random.default_rng(4)
    ratios = 10.0 ** (rng.uniform(0.0, 0.5, size=101) / 10.0)
    snr = snr_from_ratios(ratios)
    stats = improvement_stats(snr, "switched")
    imp = improvements_db(snr, "switched")
    q1, q2, q3 = statistics.quantiles(imp, n=4, method="inclusive")
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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 700),
    distinct=st.integers(1, 700),
    spread_db=st.sampled_from([1e-9, 0.5, 6.0, 40.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_improvement_stats_are_numpys_quartiles_bit_for_bit(n, distinct, spread_db, seed):
    # each column draws its dB levels from a pool of `distinct` values of both signs, so
    # small pools tie; np.percentile's linear quartiles and min / max are the oracle
    rng = np.random.default_rng(seed)
    pool = 10.0 ** (rng.uniform(-spread_db, spread_db, size=(3, distinct)) / 10.0)
    snr = np.column_stack([rng.choice(levels, size=n) for levels in pool])
    for baseline in ("switched", "dual"):
        imp = np.array(improvements_db(snr, baseline))
        q1, med, q3 = np.percentile(imp, [25.0, 50.0, 75.0])
        iqr = q3 - q1
        expected = [med, q1, q3, max(q1 - 1.5 * iqr, imp.min()), min(q3 + 1.5 * iqr, imp.max())]
        stats = improvement_stats(snr, baseline)
        got = [stats.median, stats.lower_quartile, stats.upper_quartile,
               stats.lower_whisker, stats.upper_whisker]
        assert np.array(got).tobytes() == np.array(expected, dtype=float).tobytes()
        assert stats.sample_count == n


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    m=st.integers(1, 200),
    distinct=st.integers(1, 200),
    most=st.sampled_from([1, 2, 8, 100]),
    spread_db=st.sampled_from([1e-9, 0.5, 6.0, 40.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_weighted_rows_give_the_statistics_of_the_repeated_rows(m, distinct, most, spread_db,
                                                                seed):
    # row i stands for counts[i] samples, as a direction class stands for its members:
    # numpy on the rows repeated that often is the oracle, bit for bit for the order
    # statistics of the same dB values, and to 1e-14 for the rates' weighted means
    rng = np.random.default_rng(seed)
    pool = 10.0 ** (rng.uniform(-spread_db, spread_db, size=(3, distinct)) / 10.0)
    snr = np.column_stack([rng.choice(levels, size=m) for levels in pool])
    counts = rng.integers(1, most + 1, size=m).tolist()
    expanded = np.repeat(snr, counts, axis=0)
    for baseline in ("switched", "dual"):
        imp = np.repeat(improvements_db(snr, baseline), counts)
        q1, med, q3 = np.percentile(imp, [25.0, 50.0, 75.0])
        iqr = q3 - q1
        expected = [med, q1, q3, max(q1 - 1.5 * iqr, imp.min()), min(q3 + 1.5 * iqr, imp.max())]
        stats = improvement_stats(snr, baseline, counts)
        assert np.array(stats[:5]).tobytes() == np.array(expected, dtype=float).tobytes()
        assert stats.sample_count == sum(counts)
    # numpy's terms, summed correctly rounded: np.mean's own rounding passed 1e-14 on a
    # few hundred equal rows
    want = np.array([1e8 * (math.fsum(column) / len(column))
                     for column in (np.log1p(expanded.T) / math.log(2.0)).tolist()])
    got = ergodic_rate(snr, 1e8, counts)
    assert np.all(np.abs(np.array(got) - want) <= 1e-14 * want)


def outcome(call) -> list | str:
    "The float results of ``call()`` as their bits, or its ValueError's message."
    try:
        values = call()
    except ValueError as exc:
        return str(exc)
    return [struct.pack("<d", x) for x in values]


# SNRs log-uniform over 1e-300 .. 1e300, as their exponents
magnitudes = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


@st.composite
def weighted_rows(draw):
    """(m, 3) SNR rows and their counts. Rows draw their values from a small pool, so
    dB values tie, some with DPC equal to a benchmark (0.0 dB); SNRs of 0 and -0.0
    reach the rates, and counts run up to 2**63, one past int64, so some totals are
    refused."""
    m = draw(st.integers(1, 40))
    pool = draw(st.lists(magnitudes, min_size=1, max_size=6))
    value = st.sampled_from(pool)
    rows = []
    for _ in range(m):
        a, b, c = draw(value), draw(value), draw(value)
        if draw(st.booleans()):
            b = a
        rows.append([a, b, c])
    if draw(st.integers(0, 9)) == 0:
        rows[draw(st.integers(0, m - 1))][draw(st.integers(0, 2))] = draw(st.sampled_from(
            [0.0, -0.0]))
    big = draw(st.sampled_from([3, 2**40, 2**60, 2**62, 2**63]))
    counts = draw(st.lists(st.integers(1, big), min_size=m, max_size=m))
    return rows, counts


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(weighted_rows(), st.floats(1e-300, 1e300), st.sampled_from([1e8, 3.5e9]))
def test_compiled_statistics_and_rates_are_the_python_reference_bit_for_bit(drawn, link,
                                                                          bandwidth):
    # the compiled sort, quantiles, whiskers and correctly rounded sums against the
    # Python of tests/oracles.py, results and refusals alike; a dB value is never -0.0:
    # (a - b) / b is +0.0 at a == b and at least 2**-53 in size otherwise
    rows, counts = drawn
    if sum(counts) >= 2**63:
        # refused before the rows are read, where the Python refuses a zero SNR first
        for call in (lambda: improvement_stats(rows, "dual", counts),
                     lambda: ergodic_rate(rows, bandwidth, counts)):
            with pytest.raises(ValueError, match="totalling below"):
                call()
        return
    for baseline in ("switched", "dual"):
        assert outcome(lambda: improvement_stats(rows, baseline, counts)) == outcome(
            lambda: python_improvement_stats(rows, baseline, counts))
    assert outcome(lambda: ergodic_rate(rows, bandwidth, counts)) == outcome(
        lambda: python_ergodic_rate(rows, bandwidth, counts))
    # the dB formula in Python: 10 / ln 10 * log1p((a - b) / b), where C's log1p(-1) is
    # -inf and Python's raises
    if all(x > 0.0 for row in rows for x in row):
        for baseline, column in (("switched", 2), ("dual", 1)):
            ratios = [(row[0] - row[column]) / row[column] for row in rows]
            want = [-math.inf if x == -1.0 else 10.0 / math.log(10.0) * math.log1p(x)
                    for x in ratios]
            assert outcome(lambda: improvements_db(rows, baseline)) == outcome(lambda: want)
    # the CLI's one call per placement: both statistics of the gains, then the rates of
    # the gains times the link factor twice
    snrs = [[x * link * link for x in row] for row in rows]

    def reference():
        switched = python_improvement_stats(rows, "switched", counts)
        dual = python_improvement_stats(rows, "dual", counts)
        return (*switched[:5], *dual[:5], *python_ergodic_rate(snrs, bandwidth, counts))

    def compiled():
        gains, weights = array("d", [x for row in rows for x in row]), array("q", counts)
        work, out = array("d", bytes(32 * len(rows))), array("d", bytes(8 * 13))
        code = _tile_kernel().placement_row(_address(gains), len(rows), _address(weights), link,
                                            bandwidth, _address(work), _address(out))
        if code:
            raise ValueError(REFUSALS[code])
        return out

    assert outcome(compiled) == outcome(reference)


def test_counts_may_total_up_to_the_largest_int64():
    # the compiled statistics add the counts up in int64, which carries this total
    snr = snr_from_ratios([2.0, 3.0])
    for counts in ([2**62, 2**62 - 1], [1, 2**63 - 2]):
        assert improvement_stats(snr, "dual", counts).sample_count == 2**63 - 1
        assert ergodic_rate(snr, 1e8, counts) == python_ergodic_rate(snr, 1e8, counts)


@pytest.mark.parametrize("counts", [[1, 1], [1, 2, 3, 4], [1, 0, 1], [2, -1, 2], [1.5, 1, 1],
                                    [2**62, 2**62, 1], [1, 2**63 - 1, 1], [1, 2**63, 1]])
def test_multiplicities_must_be_one_positive_integer_per_row(counts):
    snr = snr_from_ratios([2.0, 3.0, 4.0])
    with pytest.raises((ValueError, TypeError), match="integer"):
        improvement_stats(snr, "dual", counts)
    with pytest.raises((ValueError, TypeError), match="integer"):
        ergodic_rate(snr, 1e8, counts)


def test_improvement_stats_whiskers_clamp_to_extremes():
    imp_db = [0.0, 1.0, 2.0, 3.0, 100.0]
    snr = snr_from_ratios([10.0 ** (x / 10.0) for x in imp_db])
    stats = improvement_stats(snr, "switched")
    assert math.isclose(stats.lower_quartile, 1.0, rel_tol=1e-12)
    assert math.isclose(stats.upper_quartile, 3.0, rel_tol=1e-12)
    # lower fence would sit at -2 dB but the data floor is 0
    assert math.isclose(stats.lower_whisker, 0.0, abs_tol=1e-12)
    # upper fence 1.5*IQR above q3 cuts off the outlier at 100
    assert math.isclose(stats.upper_whisker, 6.0, rel_tol=1e-12)


@pytest.mark.parametrize(
    "column, refused", [(0, {"switched", "dual"}), (1, {"dual"}), (2, {"switched"})]
)
def test_improvements_db_refuses_a_zero_snr(column, refused):
    snr = snr_from_ratios([2.0, 3.0])
    snr[1, column] = 0.0
    for baseline in ("switched", "dual"):
        if baseline in refused:
            with pytest.raises(ValueError, match="positive"):
                improvements_db(snr, baseline)
        else:
            assert np.all(np.isfinite(improvements_db(snr, baseline)))


@pytest.mark.parametrize("baseline", ["switched", "dual"])
def test_improvements_db_keeps_its_digits_for_close_snrs(baseline):
    # DPC 1e-9 above the baseline: 10 log10(a / b) of the rounded a / b keeps about 7
    # significant digits; compared with the exact value of the binary inputs
    from decimal import Decimal, localcontext

    b = 0.7
    snr = np.array([[b * (1.0 + 1e-9), b, b], [b * (1.0 + 3e-12), b, b]])
    got = improvements_db(snr, baseline)
    for (a, b, _), value in zip(snr, got):
        with localcontext() as ctx:
            ctx.prec = 50
            want = 10 * (Decimal(a) / Decimal(b)).ln() / Decimal(10).ln()
        assert abs(Decimal(value) - want) <= Decimal(4e-16) * abs(want)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -2.0])
@pytest.mark.parametrize("column", [0, 1, 2])
def test_snr_rows_refuse_non_finite_and_negative_snrs(bad, column):
    # these got through as a NaN or negative rate, or as NaN and inf quartiles
    snr = snr_from_ratios([2.0, 3.0, 4.0])
    snr[1, column] = bad
    with pytest.raises(ValueError, match="finite and non-negative"):
        ergodic_rate(snr, bandwidth=1e8)
    for baseline in ("switched", "dual"):
        with pytest.raises(ValueError, match="finite and non-negative"):
            improvement_stats(snr, baseline)


def test_a_zero_snr_has_rate_zero():
    rates = ergodic_rate(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]]), bandwidth=1e8)
    assert rates == (5e7, 5e7, 0.0)


@pytest.mark.parametrize("convert", [
    lambda snr: snr.tolist(),
    lambda snr: [tuple(row) for row in snr.tolist()],
    lambda snr: snr.astype(np.float32),
    lambda snr: snr.astype(np.int64),
], ids=["lists", "tuples", "float32", "int64"])
def test_statistics_take_any_rows_of_real_numbers(convert):
    snr = np.array([[3.0, 1.0, 2.0], [8.0, 2.0, 4.0], [5.0, 5.0, 1.0], [9.0, 3.0, 3.0]])
    rows = convert(snr)
    want = np.asarray(rows, dtype=float)
    assert improvements_db(rows, "dual") == improvements_db(want, "dual")
    assert improvement_stats(rows, "switched") == improvement_stats(want, "switched")
    assert ergodic_rate(rows, 1e8) == ergodic_rate(want, 1e8)


def test_improvement_stats_rejects_bad_input():
    with pytest.raises(ValueError):
        improvement_stats(np.empty((0, 3)), "switched")
    with pytest.raises(ValueError):
        improvement_stats(np.ones((4, 2)), "dual")
    with pytest.raises(ValueError):
        improvement_stats(snr_from_ratios([1.0]), "best")


def test_improvements_are_nonnegative_for_model_channels(small_layout, coarse_grid):
    (snr,) = sweeps(small_layout, [(math.radians(40.0), 0.12)], BUDGET, grid=coarse_grid)
    assert min(improvements_db(snr, "switched")) >= -1e-12
    assert min(improvements_db(snr, "dual")) >= -1e-12


def test_distance_sweep_dual_advantage_fades_with_range(small_layout, coarse_grid):
    placements = [(math.radians(30.0), d) for d in (0.1, 1.0)]
    near, far = sweeps(small_layout, placements, BUDGET, grid=coarse_grid)
    assert improvement_stats(far, "dual").median < improvement_stats(near, "dual").median
    assert improvement_stats(near, "switched").median >= 0.0
    assert improvement_stats(far, "switched").median >= 0.0


def test_ergodic_rate_reference_point():
    rate_dpc, rate_dual, rate_sw = ergodic_rate(np.ones((1, 3)), bandwidth=1e8)
    assert math.isclose(rate_dpc, 1e8, rel_tol=1e-12)
    assert math.isclose(rate_dual, 1e8, rel_tol=1e-12)
    assert math.isclose(rate_sw, 1e8, rel_tol=1e-12)


def test_ergodic_rate_keeps_the_rate_of_a_tiny_snr():
    # 1 + 1e-17 rounds to 1, so log2(1 + SNR) gave 0; the rate is B SNR / ln 2
    rates = ergodic_rate(np.full((4, 3), 1e-17), bandwidth=1e8)
    for rate in rates:
        assert math.isclose(rate, 1e8 * 1e-17 / math.log(2.0), rel_tol=1e-12)


def test_ergodic_rate_preserves_hierarchy(small_layout, coarse_grid):
    (snr,) = sweeps(small_layout, [(math.radians(10.0), 0.1)], BUDGET, grid=coarse_grid)
    rate_dpc, rate_dual, rate_sw = ergodic_rate(snr, bandwidth=100e6)
    assert rate_dpc >= rate_dual >= rate_sw
    assert rate_sw > 0.0


def test_ergodic_rate_rejects_bad_input():
    with pytest.raises(ValueError):
        ergodic_rate(np.empty((0, 3)), bandwidth=1e8)
    with pytest.raises(ValueError):
        ergodic_rate(np.ones(3), bandwidth=1e8)
    with pytest.raises(ValueError):
        ergodic_rate(snr_from_ratios([1.0]), bandwidth=0.0)


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
    (base,) = sweeps(small_layout, [(0.2, 0.15)], BUDGET, grid=coarse_grid)
    scaled_budget = LinkBudget(
        transmit_power=BUDGET.transmit_power * 7.0, noise_power=BUDGET.noise_power * 7.0
    )
    (scaled,) = sweeps(small_layout, [(0.2, 0.15)], scaled_budget, grid=coarse_grid)
    da = np.array(improvements_db(base, "switched"))
    db = np.array(improvements_db(scaled, "switched"))
    assert np.all(np.abs(da - db) <= 1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda bad: build_circular_array(bad, 1e-3),
        lambda bad: build_circular_array(0.01, bad),
        lambda bad: thermal_noise_power(bad),
        lambda bad: ergodic_rate(np.ones((2, 3)), bad),
        lambda bad: rx_position(bad, 0.1),
        lambda bad: rx_position(0.1, bad),
        lambda bad: narrowband_check(bad, 0.15, 1e8),
        lambda bad: narrowband_check(0.1, bad, 1e8),
        lambda bad: narrowband_check(0.1, 0.15, bad),
    ],
    ids=["array-radius", "array-wavelength",
         "bandwidth", "rate-bandwidth", "rx-distance", "rx-alpha",
         "narrowband-distance", "narrowband-radius", "narrowband-bandwidth"],
)
def test_library_inputs_must_be_positive_and_finite(call, bad):
    with pytest.raises(ValueError, match="positive and finite"):
        call(bad)


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
    with pytest.raises(ValueError, match="azimuth_step"):
        SweepConfig(azimuth_step=math.radians(7.0))
    with pytest.raises(ValueError, match="elevation_step"):
        SweepConfig(elevation_step=math.radians(7.0))
    with pytest.raises(ValueError, match="noise_power"):
        SweepConfig(transmit_power=1e300)
    with pytest.raises(ValueError):
        config.scaled(0.0)


def test_sweep_config_refuses_a_single_element_lattice():
    half_wave = WAVELENGTH / 2.0
    with pytest.raises(ValueError, match="half a wavelength"):
        SweepConfig(radius=0.0001)
    with pytest.raises(ValueError, match="half a wavelength"):
        SweepConfig(radius=half_wave * (1.0 - 1e-12))
    assert SweepConfig(radius=half_wave).radius == half_wave
    assert build_circular_array(half_wave, WAVELENGTH).n_tx == 5
    with pytest.raises(ValueError, match="half a wavelength"):
        SweepConfig().scaled(1e-4)


def test_sweep_config_accepts_any_finite_distance():
    # the improvements are ratios of budget-free gains, so no distance is refused for
    # what P/N * (lambda / (4 pi (d + R)))^2, the rim link's old floor, would do
    config = SweepConfig()
    root = math.sqrt(config.transmit_power / config.noise_power)
    floor = math.sqrt(sys.float_info.min)
    limit = root * config.wavelength / (4.0 * math.pi * floor) - config.radius
    for far in (limit * (1.0 + 1e-9), 1e200, sys.float_info.max):
        assert SweepConfig(distance_values=(0.1, far)).distance_values == (0.1, far)


def test_gains_next_to_an_antenna_give_finite_improvements(small_layout, coarse_grid):
    # 1e-300 m above the centre antenna, r0 = 1e-300 m keeps every amplitude r0 / r at
    # most 1, where the aperture radius made the centre antenna's 1e298 and its square
    # overflowed. At v = +-z the centre antenna sits at the RX dipole's axial null and
    # the other antennas' terms underflow to 0, so those directions are left out
    grid = coarse_grid[np.abs(coarse_grid[:, 2]) < 1.0]
    placements = fold_placements(small_layout, [rx_position(1e-300, 0.0)], grid)
    (gains,) = folded_snrs(small_layout, placements)
    for baseline in ("switched", "dual"):
        assert np.all(np.isfinite(improvements_db(gains, baseline)))


def test_distribution_stats_sample_count_matches_grid(small_layout, coarse_grid):
    (snr,) = sweeps(small_layout, [(0.1, 0.3)], BUDGET, grid=coarse_grid)
    stats = improvement_stats(snr, "dual")
    assert stats.sample_count == coarse_grid.shape[0]
    assert isinstance(stats, DistributionStats)
