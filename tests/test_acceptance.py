"""Acceptance suite: full-size reproduction runs checked against their
stated targets, one printed PASS/FAIL line per criterion.

Run with ``pytest -v -s tests/test_acceptance.py``. The full-aperture sweeps
(about 283 000 antennas times 648 orientations per placement) dominate the
runtime; expect a few minutes in total.
"""

import math
import time

import numpy as np
import pytest

from dpcfocus.beamforming import LinkBudget, polarization_angles, thermal_noise_power
from dpcfocus.channel import Z_HAT, ChannelGeometry, PolarizedChannel
from dpcfocus.cli import main
from dpcfocus.experiments import (
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
from conftest import random_channel
from oracles import dpc_beamformer, evaluate_snr, grid_search_gain

RADIUS_M = 0.15
CARRIER_HZ = 300e9
BANDWIDTH_HZ = 100e6
WAVELENGTH_M = SPEED_OF_LIGHT / CARRIER_HZ
ALPHA_GRID = [math.radians(a) for a in (0, 10, 20, 30, 40, 50, 60)]
DISTANCE_GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
BUDGET = LinkBudget(transmit_power=1e-3, noise_power=thermal_noise_power(BANDWIDTH_HZ))


def report(num, ok, detail):
    print(f"acceptance criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def full_layout():
    return build_circular_array(RADIUS_M, WAVELENGTH_M)


@pytest.fixture(scope="module")
def alpha_sweep_snr(full_layout):
    "(648, 3) SNR array per angle in the alpha grid, RX at 10 cm."
    placements = [(alpha, 0.10) for alpha in ALPHA_GRID]
    sweeps = placement_sweeps(full_layout, placements, BUDGET, grid=orientation_grid())
    return dict(zip(ALPHA_GRID, sweeps, strict=True))


@pytest.fixture(scope="module")
def range_sweep_snr(full_layout):
    "(648, 3) SNR array per distance on the 10..100 cm grid, 30 degrees off axis."
    placements = [(math.radians(30.0), d) for d in DISTANCE_GRID]
    sweeps = placement_sweeps(full_layout, placements, BUDGET, grid=orientation_grid())
    return dict(zip(DISTANCE_GRID, sweeps, strict=True))


def test_criterion_1_median_improvements(alpha_sweep_snr):
    pooled = np.concatenate(list(alpha_sweep_snr.values()))
    med_sw = float(np.median(improvements_db(pooled, "switched")))
    med_dual = float(np.median(improvements_db(pooled, "dual")))
    ok = abs(med_sw - 1.9) <= 0.3 and abs(med_dual - 0.4) <= 0.2
    report(
        1, ok,
        f"pooled median improvement {med_sw:.3f} dB over switched "
        f"(target 1.9 +- 0.3), {med_dual:.3f} dB over dual (target 0.4 +- 0.2), "
        f"{len(pooled)} samples",
    )
    assert abs(med_sw - 1.9) <= 0.3
    assert abs(med_dual - 0.4) <= 0.2


def test_criterion_2_far_field_fade(range_sweep_snr):
    assert list(range_sweep_snr) == DISTANCE_GRID
    medians = [improvement_stats(snr, "dual").median for snr in range_sweep_snr.values()]
    near = medians[0]  # 10 cm
    far = medians[-1]  # 100 cm
    # decreasing trend with at most 0.05 dB of non-monotonic jitter per step
    jitter_ok = all(b <= a + 0.05 for a, b in zip(medians, medians[1:]))
    ok = far < near and far < 0.1 and jitter_ok
    report(
        2, ok,
        f"median over dual {near:.4f} dB at 10 cm vs "
        f"{far:.4f} dB at 100 cm (must shrink and end below 0.1 dB); "
        f"trend monotone within 0.05 dB: {jitter_ok}",
    )
    assert far < near
    assert far < 0.1
    assert jitter_ok


def test_criterion_3_polarization_spread_contrast(full_layout):
    # the map the CLI writes to fig3.csv; DPC weights over the kernel's real factors
    # are linearly polarized by construction
    stds = {}
    well_defined = True
    for d in (0.15, 1.0):
        angles = polarization_angles(full_layout, rx_position(d, math.radians(30.0)))
        well_defined &= bool(np.all(np.isfinite(angles)))
        stds[d] = float(np.std(angles))
    ratio = stds[0.15] / stds[1.0]
    ok = well_defined and ratio >= 3.0
    report(
        3, ok,
        f"polarization-angle spread {math.degrees(stds[0.15]):.2f} deg at 15 cm vs "
        f"{math.degrees(stds[1.0]):.2f} deg at 100 cm, ratio {ratio:.1f} (threshold 3)",
    )
    assert well_defined
    assert ratio >= 3.0


def test_criterion_4_rate_hierarchy_and_agreement(range_sweep_snr):
    worst_gap = 0.0
    hierarchy_ok = True
    for distance, snr in range_sweep_snr.items():
        rate_dpc, rate_dual, rate_sw = ergodic_rate(snr, BANDWIDTH_HZ)
        hierarchy_ok &= rate_dpc >= rate_dual * (1.0 - 1e-12)
        hierarchy_ok &= rate_dual >= rate_sw * (1.0 - 1e-12)
        if distance >= 0.5:
            worst_gap = max(worst_gap, abs(rate_dpc - rate_dual) / rate_dual)
    ok = hierarchy_ok and worst_gap <= 0.02
    report(
        4, ok,
        f"rate hierarchy at every distance: {hierarchy_ok}; worst dpc/dual gap "
        f"beyond 50 cm is {100.0 * worst_gap:.3f}% (limit 2%)",
    )
    assert hierarchy_ok
    assert worst_gap <= 0.02


def test_criterion_5_delay_spread_value():
    # The 0.2676 ns target was worked out with c = 3.0e8 m/s, while the library
    # divides the rim-to-centre path difference by the exact SI speed of light.
    # Convert the library's delay to the target's convention before comparing
    # it, and pin the SI delay itself so the conversion cannot hide a change of c.
    target_c = 3.0e8  # m/s
    delay, valid = narrowband_check(0.10, RADIUS_M, BANDWIDTH_HZ)
    si_delay = (math.hypot(0.10, 0.15) - 0.10) / 299792458.0
    si_ok = math.isclose(delay, si_delay, rel_tol=1e-12, abs_tol=0.0)
    delay_ns = delay * 1e9
    target_c_delay_ns = delay * SPEED_OF_LIGHT / target_c * 1e9
    ok = valid and si_ok and abs(target_c_delay_ns - 0.2676) <= 1e-4
    report(
        5, ok,
        f"boresight delay spread {delay_ns:.5f} ns (SI c), {target_c_delay_ns:.5f} ns "
        f"at c = 3.0e8 m/s vs target 0.2676 +- 0.0001 ns (narrowband verdict: {valid})",
    )
    assert valid
    assert si_ok
    assert abs(target_c_delay_ns - 0.2676) <= 1e-4


def test_criterion_6_optimality_against_grid_search():
    rng = np.random.default_rng(2024)
    worst = 0.0
    never_beaten = True
    for _ in range(100):
        n = int(rng.integers(1, 4))
        ch = random_channel(rng, n)
        bf = dpc_beamformer(ch)
        closed = abs(np.dot(ch.h_x, bf.f_x) + np.dot(ch.h_y, bf.f_y))
        brute = grid_search_gain(ch.h_x, ch.h_y)
        never_beaten &= brute <= closed * (1.0 + 1e-9)
        worst = max(worst, (closed - brute) / closed)
    ok = never_beaten and worst <= 1e-3
    report(
        6, ok,
        f"closed-form beamformer vs 1-degree/1e-3 grid search on 100 random "
        f"channels: never beaten: {never_beaten}, worst shortfall {worst:.2e} "
        f"(limit 1e-3)",
    )
    assert never_beaten
    assert worst <= 1e-3


def test_criterion_7_invariant_suite(
    full_layout, alpha_sweep_snr, range_sweep_snr, tmp_path
):
    rng = np.random.default_rng(55)
    failures = []

    # SNR hierarchy on 1e4 random channels
    bad = 0
    for _ in range(10_000):
        ch = random_channel(rng, int(rng.integers(1, 9)))
        t = evaluate_snr(ch, BUDGET)
        if not (
            t.snr_dpc >= t.snr_dual * (1.0 - 1e-12)
            and t.snr_dual >= t.snr_switched * (1.0 - 1e-12)
        ):
            bad += 1
    if bad:
        failures.append(f"hierarchy broken on {bad}/10000 random channels")

    # hierarchy on every experiment channel from the reproduction sweeps
    experiment_snr = np.concatenate(
        list(alpha_sweep_snr.values()) + list(range_sweep_snr.values())
    )
    bad = int(np.count_nonzero(
        (experiment_snr[:, 0] < experiment_snr[:, 1] * (1.0 - 1e-12))
        | (experiment_snr[:, 1] < experiment_snr[:, 2] * (1.0 - 1e-12))
    ))
    if bad:
        failures.append(f"hierarchy broken on {bad}/{len(experiment_snr)} sweep orientations")

    # closed-form gain identity and exact per-antenna power, incl. a full-size channel
    geom = ChannelGeometry(full_layout, rx_position(0.10, math.radians(30.0)))
    sample_channels = [random_channel(rng, int(rng.integers(1, 50))) for _ in range(200)]
    sample_channels.append(geom.channel_for(np.array([0.6, 0.0, 0.8])))
    for ch in sample_channels:
        bf = dpc_beamformer(ch)
        direct = abs(np.dot(ch.h_x, bf.f_x) + np.dot(ch.h_y, bf.f_y))
        closed = float(
            np.sum(np.sqrt(np.abs(ch.h_x) ** 2 + np.abs(ch.h_y) ** 2))
            / math.sqrt(ch.n_tx)
        )
        if not math.isclose(direct, closed, rel_tol=1e-9):
            failures.append(f"gain identity off: {direct!r} vs {closed!r}")
            break
        power = np.abs(bf.f_x) ** 2 + np.abs(bf.f_y) ** 2
        if not np.allclose(power, 1.0 / ch.n_tx, rtol=1e-12, atol=0.0):
            failures.append("per-antenna power constraint violated")
            break

    # x/y channel ratio stays real for the physical model
    ch = geom.channel_for(Z_HAT)
    both = (np.abs(ch.h_x) > 1e-18) & (np.abs(ch.h_y) > 1e-18)
    cross = ch.h_x[both] * np.conj(ch.h_y[both])
    ratio_imag = float(np.max(np.abs(cross.imag) / np.abs(cross)))
    if ratio_imag >= 1e-9:
        failures.append(f"x/y ratio not real: relative imag {ratio_imag:.2e}")

    # global-phase invariance
    for _ in range(100):
        base = random_channel(rng, int(rng.integers(1, 20)))
        t0 = evaluate_snr(base, BUDGET)
        phase = complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
        spun = PolarizedChannel(h_x=base.h_x * phase, h_y=base.h_y * phase)
        t1 = evaluate_snr(spun, BUDGET)
        if not (
            math.isclose(t0.snr_dpc, t1.snr_dpc, rel_tol=1e-9)
            and math.isclose(t0.snr_dual, t1.snr_dual, rel_tol=1e-9)
            and math.isclose(t0.snr_switched, t1.snr_switched, rel_tol=1e-9)
        ):
            failures.append("global-phase invariance violated")
            break

    # sweep determinism: byte-identical CSV bodies across reruns
    outs = [tmp_path / name for name in ("run1", "run2", "run3")]
    for out in outs:
        code = main(["fig6", "--out", str(out), "--scale", "0.1"])
        if code != 0:
            failures.append(f"fig6 smoke run exited {code}")
    bodies = [(out / "fig6.csv").read_bytes() for out in outs]
    if not bodies[0] == bodies[1] == bodies[2]:
        failures.append("sweep CSVs differ across reruns")

    report(
        7,
        not failures,
        "; ".join(failures)
        if failures
        else "hierarchy (1e4 random + all sweep orientations), gain identity, "
        "per-antenna power, real x/y ratio, phase invariance, deterministic CSVs",
    )
    assert not failures


def test_criterion_8_desk_scale_smoke_run(tmp_path):
    out = tmp_path / "smoke"
    started = time.perf_counter()
    codes = [
        main([scenario, "--out", str(out), "--scale", "0.1"])
        for scenario in ("fig5", "fig6", "fig7")
    ]
    elapsed = time.perf_counter() - started

    failures = []
    if any(code != 0 for code in codes):
        failures.append(f"scenario exit codes {codes}")

    fig6 = np.genfromtxt(out / "fig6.csv", delimiter=",", names=True)
    dual_median = fig6["dual_median_db"]
    if not dual_median[-1] < dual_median[0]:  # criterion 2(a) at reduced scale
        failures.append("dual-baseline median does not fade with distance")

    fig7 = np.genfromtxt(out / "fig7.csv", delimiter=",", names=True)
    for row in fig7:
        if not (
            row["rate_dpc_bps"] >= row["rate_dual_bps"] * (1.0 - 1e-12)
            and row["rate_dual_bps"] >= row["rate_switched_bps"] * (1.0 - 1e-12)
        ):
            failures.append(f"rate hierarchy broken at d={row['distance_m']}")
        if row["distance_m"] >= 0.5:
            gap = abs(row["rate_dpc_bps"] - row["rate_dual_bps"]) / row["rate_dual_bps"]
            if gap > 0.02:
                failures.append(f"dpc/dual rate gap {gap:.3f} at d={row['distance_m']}")

    if elapsed >= 30.0:
        failures.append(f"pipeline took {elapsed:.1f} s")
    report(
        8,
        not failures,
        "; ".join(failures)
        if failures
        else f"fig5+fig6+fig7 at scale 0.1 finished in {elapsed:.1f} s (limit 30 s), "
        "with far-field fade and rate hierarchy intact at reduced scale",
    )
    assert not failures
