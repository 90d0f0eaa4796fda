"""The compiled tile kernel: its build, its cache and its source."""

import math
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dpcfocus import beamforming
from dpcfocus.beamforming import (
    KERNEL_FLAGS,
    KERNEL_SOURCE,
    KernelBuildError,
    LinkBudget,
    polarization_angles,
)
from dpcfocus.channel import pattern_series
from dpcfocus.geometry import SPEED_OF_LIGHT, build_circular_array, orientation_grid, rx_position
from conftest import kernel_snr, kernel_snrs

SOURCE = Path(beamforming.__file__).with_name(KERNEL_SOURCE)
LAYOUT = build_circular_array(radius=0.004, wavelength=SPEED_OF_LIGHT / 300e9)
GRID = orientation_grid(math.radians(30.0), math.radians(30.0))
BUDGET = LinkBudget(transmit_power=1e-3, noise_power=1e-12)
RX = rx_position(0.05, math.radians(30.0))


def snr_with(monkeypatch, kernel):
    "The kernel's SNRs at ``RX`` with ``kernel`` as the loaded tile kernel."
    with monkeypatch.context() as patch:
        patch.setattr(beamforming, "_kernel", kernel)
        return kernel_snr(LAYOUT, RX, GRID, BUDGET)


def refuse_to_compile(*args):
    raise AssertionError("the compiler ran")


def test_the_source_compiles_without_warnings(tmp_path):
    beamforming._compile(str(SOURCE), str(tmp_path / "kernel.so"), "-Wall", "-Wextra", "-Werror")


def test_every_instruction_set_gives_the_same_bits(tmp_path, monkeypatch):
    # without contraction the clone this CPU runs rounds each step as the baseline does
    target = tmp_path / "baseline.so"
    beamforming._compile(str(SOURCE), str(target), "-DCLONES=")
    baseline = beamforming._open(str(target))
    layout = build_circular_array(radius=0.01, wavelength=SPEED_OF_LIGHT / 300e9)
    rxs = [rx_position(d, math.radians(a)) for a in (0.0, 30.0) for d in (0.02, 1.0)]
    runs, maps = [], []
    for kernel in (baseline, beamforming._tile_kernel()):
        with monkeypatch.context() as patch:
            patch.setattr(beamforming, "_kernel", kernel)
            runs.append(list(kernel_snrs(layout, rxs, orientation_grid(), BUDGET)))
            # fig3's angles: field_z is built for the baseline set in both, until it is cloned
            maps.append(b"".join(polarization_angles(layout, rx).tobytes() for rx in rxs))
    assert all(np.array_equal(a, b) for a, b in zip(*runs, strict=True))
    assert maps[0] == maps[1]


@pytest.mark.parametrize("m", [1, 15, 16, 17, 33, 163, 300])
def test_each_direction_sums_as_it_would_alone(m):
    # the loop takes 16 directions at a time and pads the last tile with a real one;
    # 100-antenna tiles split into 64-antenna groups, and the last tile is partial
    kernel = beamforming._tile_kernel()
    positions = build_circular_array(radius=0.004, wavelength=SPEED_OF_LIGHT / 300e9).positions
    v = np.random.default_rng(m).normal(size=(m, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    coeffs = np.array(pattern_series(0.5))
    together = beamforming._tile_sums(kernel, positions, RX, 0.05, v, coeffs, 100)
    assert together.shape == (-(-positions.shape[0] // 100), 3, m)
    for j in range(m):
        alone = beamforming._tile_sums(kernel, positions, RX, 0.05, v[j:j + 1], coeffs, 100)
        assert np.array_equal(together[:, :, j], alone[:, :, 0])


def test_a_cached_kernel_loads_without_the_compiler(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    built = beamforming._load_kernel(str(cache))
    # one library under its keyed name, and no partial file beside it
    (library,) = cache.iterdir()
    assert library.name.startswith("tile_sums-") and library.suffix == ".so"
    monkeypatch.setattr(beamforming, "_compile", refuse_to_compile)
    cached = beamforming._load_kernel(str(cache))
    expected = snr_with(monkeypatch, beamforming._tile_kernel())
    assert np.array_equal(snr_with(monkeypatch, built), expected)
    assert np.array_equal(snr_with(monkeypatch, cached), expected)


def test_changed_flags_are_built_again(tmp_path, monkeypatch):
    # the new build replaces the superseded one; a concurrent build's partial file stays
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


def test_an_unwritable_cache_builds_in_a_private_directory(tmp_path, monkeypatch):
    # a cache under a plain file cannot be made, whoever runs the test
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


def test_a_library_that_does_not_load_is_a_build_error(tmp_path):
    built = tmp_path / "built"
    beamforming._load_kernel(str(built))
    (library,) = built.iterdir()
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / library.name).write_bytes(b"not a shared library")
    with pytest.raises(KernelBuildError, match="cannot load"):
        beamforming._load_kernel(str(broken))


def test_the_caller_sees_the_loops_floating_point_exceptions(monkeypatch):
    # every bit the loop may return is raised again under the caller's errstate
    real = beamforming._tile_kernel()
    for bit, name, message in ((1, "over", "overflow"), (2, "invalid", "invalid value"),
                               (4, "divide", "divide by zero"), (8, "under", "underflow")):
        def tile_sums(*args, bit=bit):
            assert real.tile_sums(*args) == 0
            return bit

        kernel = SimpleNamespace(tile_sums=tile_sums)
        with np.errstate(**{name: "raise"}), pytest.raises(FloatingPointError, match=message):
            snr_with(monkeypatch, kernel)
        with np.errstate(all="ignore"):
            snr_with(monkeypatch, kernel)
