"""The compiled SNR kernel: its build, its cache and its source."""

import math
import os
import re
import shutil
import subprocess
import tempfile
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dpcfocus import beamforming
from dpcfocus.beamforming import (
    HALF_WAVE_SERIES,
    KERNEL_FLAGS,
    KERNEL_SOURCE,
    KernelBuildError,
    LinkBudget,
    polarization_angles,
)
from dpcfocus.geometry import (
    SPEED_OF_LIGHT,
    build_circular_array,
    orientation_grid,
    rx_position,
)
from conftest import kernel_snr, kernel_snrs
from oracles import explicit_layout

SOURCE = Path(beamforming.__file__).with_name(KERNEL_SOURCE)
LAYOUT = build_circular_array(radius=0.004, wavelength=SPEED_OF_LIGHT / 300e9)
GRID = np.asarray(orientation_grid(math.radians(30.0), math.radians(30.0)))
BUDGET = LinkBudget(transmit_power=1e-3, noise_power=1e-12)
RX = rx_position(0.05, math.radians(30.0))


def tile_sums(*args):
    "``beamforming._tile_sums`` of ``args`` with the loaded kernel, as a (3, m) array."
    return np.asarray(beamforming._tile_sums(beamforming._tile_kernel(), *args)).reshape(3, -1)


def snr_with(monkeypatch, kernel):
    "The kernel's SNRs at ``RX`` with ``kernel`` as the loaded SNR kernel."
    with monkeypatch.context() as patch:
        patch.setattr(beamforming, "_kernel", kernel)
        return kernel_snr(LAYOUT, RX, GRID, BUDGET)


def refuse_to_compile(*args):
    raise AssertionError("the compiler ran")


def copy_of(library):
    "A stand-in for ``_compile`` that writes the bytes of ``library`` to its target."
    def compile_copy(source, target):
        shutil.copyfile(library, target)

    return compile_copy


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """One build through ``_load_kernel`` into an empty cache, for the tests that
    need only a built library: its cache, its path and the loaded library."""
    cache = tmp_path_factory.mktemp("built") / "cache"
    kernel = beamforming._load_kernel(str(cache))
    (library,) = cache.iterdir()
    return SimpleNamespace(cache=cache, library=library, kernel=kernel)


def test_the_source_compiles_without_warnings(tmp_path, monkeypatch):
    strict = KERNEL_FLAGS + ("-Wall", "-Wextra", "-Werror")
    monkeypatch.setattr(beamforming, "KERNEL_FLAGS", strict)
    beamforming._compile(str(SOURCE), str(tmp_path / "kernel.so"))


def gcc_on_x86_64() -> bool:
    "Whether ``cc`` is GCC targeting x86-64, so that the kernel has an AVX-512 clone."
    try:
        done = subprocess.run(["cc", "-dM", "-E", "-x", "c", os.devnull],
                              capture_output=True, text=True)
    except FileNotFoundError:
        return False
    macros = {line.split()[1] for line in done.stdout.splitlines() if line.startswith("#define")}
    return {"__GNUC__", "__x86_64__"} <= macros and "__clang__" not in macros


@pytest.mark.skipif(not gcc_on_x86_64(), reason="reads GCC's x86-64 clones of the loop")
def test_the_avx512_clone_keeps_the_register_tile_in_vector_registers(tmp_path):
    # the J-wide locals are meant to live in zmm registers. GCC 12.2 compiles the loop to
    # 71 scalar and 242 packed arithmetic instructions; an earlier loop that kept
    # c = p . v J-wide and formed w beside the sqrt gave 199 and 226, passed every bit
    # and oracle test, and ran nearly twice as slow
    target = tmp_path / "kernel.s"
    subprocess.run(["cc", *KERNEL_FLAGS, "-S", "-o", str(target), str(SOURCE)], check=True)
    text = target.read_text()
    start = text.index("tile_sums.arch_x86_64_v4:")
    clone = text[start:text.index(".size\ttile_sums.arch_x86_64_v4", start)]
    scalar = len(re.findall(r"\bv(?:mul|sub|add|div|sqrt)sd\b", clone))
    packed = len(re.findall(r"\bv(?:mul|sub|add|div|sqrt)pd\b[^\n]*%zmm", clone))
    assert scalar < 0.5 * packed, (scalar, packed)


def test_every_instruction_set_gives_the_same_bits(tmp_path, monkeypatch):
    # without contraction the clone this CPU runs rounds each step as the baseline does
    target = tmp_path / "baseline.so"
    with monkeypatch.context() as patch:
        patch.setattr(beamforming, "KERNEL_FLAGS", KERNEL_FLAGS + ("-DCLONES=",))
        beamforming._compile(str(SOURCE), str(target))
    baseline = beamforming._open(str(target))
    layout = build_circular_array(radius=0.01, wavelength=SPEED_OF_LIGHT / 300e9)
    rxs = [rx_position(d, math.radians(a)) for a in (0.0, 30.0) for d in (0.02, 1.0)]
    runs, maps = [], []
    for kernel in (baseline, beamforming._tile_kernel()):
        with monkeypatch.context() as patch:
            patch.setattr(beamforming, "_kernel", kernel)
            runs.append(list(kernel_snrs(layout, rxs, orientation_grid(), BUDGET)))
            # fig3's angles: field_angles is built for the baseline set in both, until it is
            # cloned
            maps.append(b"".join(polarization_angles(layout, rx).tobytes() for rx in rxs))
    assert all(np.array_equal(a, b) for a, b in zip(*runs, strict=True))
    assert maps[0] == maps[1]


@pytest.mark.parametrize(
    "antennas, rx, v",
    [
        (range(LAYOUT.n_tx + 1), RX, GRID),
        (range(0), RX, GRID),
        (range(0, LAYOUT.n_tx, 2), RX, GRID),
        (range(LAYOUT.n_tx), RX[:2], GRID),
        (range(LAYOUT.n_tx), RX, GRID[:, :2]),
    ],
    ids=["past-n-tx", "empty", "step-2", "rx-of-two", "directions-of-two"],
)
def test_tile_sums_refuses_operands_the_loop_would_read_past(antennas, rx, v):
    # the compiled loop reads its operands through raw pointers: this check keeps it
    # inside the row table, the RX and the directions
    with pytest.raises(ValueError, match=r"mismatched shapes|non-empty \(m, 3\)"):
        tile_sums(LAYOUT, antennas, rx, 0.05, v)


@pytest.mark.parametrize("m", [1, 15, 16, 17, 33, 163, 300])
def test_each_direction_sums_as_it_would_alone(m):
    # the loop takes 16 directions at a time and pads the last register tile with a real
    # one; the block splits into 64-antenna groups, and the last group is partial
    antennas = range(LAYOUT.n_tx)
    assert LAYOUT.n_tx % 64
    v = np.random.default_rng(m).normal(size=(m, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    together = tile_sums(LAYOUT, antennas, RX, 0.05, v)
    assert together.shape == (3, m)
    for j in range(m):
        alone = tile_sums(LAYOUT, antennas, RX, 0.05, v[j:j + 1])
        assert np.array_equal(together[:, j], alone[:, 0])


def exact_sums(position, rx, r0, v, coeffs):
    """``_tile_sums``' (sqrt(a_x^2 + a_y^2), a_x, a_y) for one antenna and direction,
    exact from the same float inputs, each rounded once to float.

    With d = rx - position, r = |d| and p = d / r, w = v - (p . v) p is exact in
    rationals, and so is each a_u^2 = (r0 / r)^2 h(p_u^2)^2 w_u^2 h(c^2)^2 |w|^2 with
    c = p . v. Only the last square root is taken, in 40-digit decimals.
    """
    d = [Fraction(a) - Fraction(b) for a, b in zip(rx, position)]
    v = [Fraction(x) for x in v]
    r2 = sum(x * x for x in d)
    dv = sum(a * b for a, b in zip(d, v))

    def h(x):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + Fraction(c)
        return acc

    def root(q):
        with localcontext() as ctx:
            ctx.prec = 40
            return float((Decimal(q.numerator) / Decimal(q.denominator)).sqrt())

    w = [a - dv * b / r2 for a, b in zip(v, d)]
    common = Fraction(r0) ** 2 * h(dv * dv / r2) ** 2 * sum(x * x for x in w) / r2
    a2 = [common * h(d[u] * d[u] / r2) ** 2 * w[u] ** 2 for u in (0, 1)]
    return [root(a2[0] + a2[1]), root(a2[0]), root(a2[1])]


@pytest.mark.parametrize("theta", [s * 10.0**-e for e in range(3, 13) for s in (1, -1)])
def test_magnitudes_stay_exact_next_to_the_axial_null(theta):
    # an RX dipole theta from the antenna's ray sees |h_u| <= peak theta^2, and the
    # error of the sine enters multiplied by |w_u| <= theta; a sine taken as
    # sqrt((1 - c)(1 + c)) is about 1e-16 off whatever theta, and fails here
    position, rx, r0 = np.array([[0.003, -0.002, 0.0]]), np.array([0.011, 0.023, 0.047]), 0.05
    coeffs = np.array(HALF_WAVE_SERIES)
    d = rx - position[0]
    p = d / np.linalg.norm(d)
    across = np.cross(p, (0.3, 0.5, 0.8))
    v = math.cos(theta) * p + math.sin(theta) * across / np.linalg.norm(across)
    v /= np.linalg.norm(v)
    # a bound on this antenna's magnitudes: |w| <= 1 and h(0) = 1 is the RX pattern's peak
    peak = r0 / np.linalg.norm(d) * math.hypot(*np.polyval(coeffs[::-1], p[:2] ** 2))
    layout = explicit_layout(position, wavelength=1.0)
    got = tile_sums(layout, range(1), rx, r0, v[None])
    want = exact_sums(position[0].tolist(), rx.tolist(), r0, v.tolist(), coeffs.tolist())
    assert np.all(np.abs(got[:, 0] - want) <= 1e-15 * abs(theta) * peak)


def test_a_cached_kernel_loads_without_the_compiler(built, monkeypatch):
    # one library under its keyed name, and no partial file beside it
    (library,) = built.cache.iterdir()
    assert library.name.startswith("tile_sums-") and library.suffix == ".so"
    monkeypatch.setattr(beamforming, "_compile", refuse_to_compile)
    cached = beamforming._load_kernel(str(built.cache))
    expected = snr_with(monkeypatch, beamforming._tile_kernel())
    assert np.array_equal(snr_with(monkeypatch, built.kernel), expected)
    assert np.array_equal(snr_with(monkeypatch, cached), expected)


def test_changed_flags_are_built_again(tmp_path, monkeypatch, built):
    # the new build replaces the superseded one; a concurrent build's partial file stays
    monkeypatch.setattr(beamforming, "_compile", copy_of(built.library))
    cache = tmp_path / "cache"
    beamforming._load_kernel(str(cache))
    (first,) = cache.iterdir()
    partial = cache / "tmpabc123.so"
    partial.write_bytes(b"")
    monkeypatch.setattr(beamforming, "KERNEL_FLAGS", KERNEL_FLAGS + ("-DEDITED",))
    beamforming._load_kernel(str(cache))
    (library,) = set(cache.iterdir()) - {partial}
    assert library.name.startswith("tile_sums-") and library.name != first.name
    assert partial.exists()


def test_an_unwritable_cache_builds_in_a_private_directory(tmp_path, monkeypatch, built):
    # a cache under a plain file cannot be made, whoever runs the test
    monkeypatch.setattr(beamforming, "_compile", copy_of(built.library))
    blocker = tmp_path / "file"
    blocker.write_text("")
    private = tmp_path / "tmp"
    private.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(private))
    kernel = beamforming._load_kernel(str(blocker / "cache"))
    assert list(private.iterdir()) == []  # the private build is removed once loaded
    assert np.array_equal(snr_with(monkeypatch, kernel),
                          snr_with(monkeypatch, beamforming._tile_kernel()))


def test_a_missing_compiler_is_a_build_error(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path))
    with pytest.raises(KernelBuildError, match="no C compiler 'cc'"):
        beamforming._load_kernel(str(tmp_path / "cache"))
    assert list((tmp_path / "cache").iterdir()) == []


def test_a_library_that_does_not_load_is_a_build_error(tmp_path, built):
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / built.library.name).write_bytes(b"not a shared library")
    with pytest.raises(KernelBuildError, match="cannot load"):
        beamforming._load_kernel(str(broken))
