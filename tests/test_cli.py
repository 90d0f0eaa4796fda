import csv
import errno
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpcfocus import beamforming, cli, experiments, geometry
from dpcfocus.beamforming import LinkBudget, folded_snrs, link_snrs
from dpcfocus.channel import ChannelGeometry
from dpcfocus.cli import (
    EXIT_BUILD_ERROR,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_OUTPUT_ERROR,
    LIST_KEYS,
    OPTIONAL_KEYS,
    REQUIRED_KEYS,
    ConfigError,
    _write_csv,
    config_to_mapping,
    load_config,
    main,
    parse_config_text,
    plan_run,
    scenario_placements,
)
from dpcfocus.experiments import SweepConfig
from dpcfocus.geometry import (
    SPEED_OF_LIGHT,
    build_circular_array,
    orientation_classes,
    orientation_grid,
    rx_position,
)
from conftest import kernel_snr
from oracles import evaluate_snr


def mapping_to_config_text(mapping: dict) -> str:
    "Render a config echo back into the flat file format."
    lines = []
    for key, value in mapping.items():
        if isinstance(value, list):
            lines.append(f"{key} = {', '.join(repr(float(v)) for v in value)}")
        else:
            lines.append(f"{key} = {float(value)!r}")
    return "\n".join(lines) + "\n"


TINY_CONFIG = """\
# reduced-size run for fast tests
radius_m = 0.008
carrier_frequency_hz = 300e9
bandwidth_hz = 100e6
transmit_power_w = 1e-3
alpha_deg = 0, 30
distance_m = 0.1, 0.3
azimuth_step_deg = 30
elevation_step_deg = 30
"""


@pytest.fixture
def tiny_config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(TINY_CONFIG)
    return path


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def test_parse_config_text_full_roundtrip():
    config = parse_config_text(TINY_CONFIG)
    assert math.isclose(config.radius, 0.008, rel_tol=1e-15)
    assert config.alpha_values == (0.0, math.radians(30.0))
    assert config.distance_values == (0.1, 0.3)
    assert math.isclose(config.noise_power, 4.0038821e-13, rel_tol=1e-12)
    echoed = parse_config_text(mapping_to_config_text(config_to_mapping(config)))
    assert math.isclose(echoed.radius, config.radius, rel_tol=1e-12)
    assert np.allclose(echoed.alpha_values, config.alpha_values, rtol=1e-12, atol=1e-15)
    assert echoed.distance_values == config.distance_values
    assert math.isclose(echoed.noise_power, config.noise_power, rel_tol=1e-12)


def test_parse_config_rejects_bad_input():
    with pytest.raises(ConfigError):
        parse_config_text("")  # empty file misses every required key
    with pytest.raises(ConfigError):
        parse_config_text(TINY_CONFIG + "spacing_m = 1.0\n")
    with pytest.raises(ConfigError):
        parse_config_text(TINY_CONFIG + "radius_m = 0.1\n")
    with pytest.raises(ConfigError):
        parse_config_text(TINY_CONFIG.replace("0.008", "eight"))
    with pytest.raises(ConfigError):
        parse_config_text(TINY_CONFIG.replace("radius_m = 0.008", "radius_m = -1"))
    with pytest.raises(ConfigError):
        parse_config_text("radius_m\n")


def test_a_key_without_a_value_is_refused_naming_its_line(tmp_path, capsys):
    text = TINY_CONFIG.replace("radius_m = 0.008", "radius_m =")
    message = "line 2: empty value for 'radius_m'"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config_text(text)
    path = tmp_path / "empty-value.cfg"
    path.write_text(text)
    code = main(["check", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"dpcfocus: config error: {message}\n"


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")
    # a file that is not UTF-8 is refused the same way, naming the file
    utf16 = tmp_path / "utf16.cfg"
    utf16.write_bytes(TINY_CONFIG.encode("utf-16"))
    with pytest.raises(ConfigError, match=f"cannot read config file {re.escape(str(utf16))}: "
                                          "'utf-8' codec can't decode byte 0xff"):
        load_config(utf16)


@pytest.mark.parametrize("scenario", ["fig5", "sweep"])
def test_a_byte_order_mark_is_read_past(tmp_path, tiny_config_path, scenario):
    # Windows Notepad saves UTF-8 with a BOM, which is no part of the first key
    bom = tmp_path / "bom.cfg"
    bom.write_bytes(TINY_CONFIG.encode("utf-8-sig"))
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_config(bom) == load_config(tiny_config_path)
    bodies = []
    for path in (tiny_config_path, bom):
        out = tmp_path / path.stem
        assert main([scenario, "--config", str(path), "--out", str(out)]) == EXIT_OK
        bodies.append((out / f"{scenario}.csv").read_bytes())
    assert bodies[0] == bodies[1]


def test_an_angle_of_minus_zero_is_written_as_zero(tmp_path, tiny_config_path):
    # -0 degrees is the placement 0 degrees is, and is echoed as 0.0
    minus = tmp_path / "minus.cfg"
    minus.write_text(TINY_CONFIG.replace("alpha_deg = 0, 30", "alpha_deg = -0, 30"))
    config = load_config(minus)
    assert config == load_config(tiny_config_path)
    assert math.copysign(1.0, config.alpha_values[0]) == 1.0
    for scenario in ("fig5", "sweep"):
        outputs = []
        for path in (tiny_config_path, minus):
            out = tmp_path / path.stem / scenario
            assert main([scenario, "--config", str(path), "--out", str(out)]) == EXIT_OK
            manifest = json.loads((out / "manifest.json").read_text())
            outputs.append(((out / f"{scenario}.csv").read_bytes(), manifest["config"]))
        assert outputs[0] == outputs[1]
        assert b"-0.0" not in outputs[1][0]
        assert outputs[1][1]["alpha_deg"] == [0.0, 30.0]
        assert math.copysign(1.0, outputs[1][1]["alpha_deg"][0]) == 1.0


def test_main_config_error_exit_code(tmp_path):
    code = main(["check", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG_ERROR
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    code = main(["check", "--config", str(empty), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG_ERROR
    assert not (tmp_path / "o" / "check.csv").exists()


def test_main_unwritable_output_exit_code(tmp_path, tiny_config_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    code = main(
        ["check", "--config", str(tiny_config_path), "--out", str(blocker / "sub")]
    )
    assert code == EXIT_OUTPUT_ERROR


def test_a_probe_removed_by_a_concurrent_run_is_no_output_error(
    tmp_path, tiny_config_path, monkeypatch
):
    # two runs sharing --out share its write probe: the other run removes it first here
    real = Path.touch

    def touch_then_lose(path, *args, **kwargs):
        real(path, *args, **kwargs)
        path.unlink()

    monkeypatch.setattr(Path, "touch", touch_then_lose)
    out = tmp_path / "out"
    assert main(["check", "--config", str(tiny_config_path), "--out", str(out)]) == EXIT_OK
    assert sorted(path.name for path in out.iterdir()) == ["check.csv", "manifest.json"]


@pytest.mark.parametrize(
    "scenario, name",
    [("check", "check.csv"), ("check", "manifest.json"), ("fig3", "fig3.csv"),
     ("fig5", "fig5.csv")],
)
def test_an_output_file_that_cannot_be_opened_is_an_output_error(
    tmp_path, tiny_config_path, capsys, scenario, name
):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    code = main([scenario, "--config", str(tiny_config_path), "--out", str(out)])
    assert code == EXIT_OUTPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("dpcfocus: cannot write output: ") and name in err
    assert len(err.splitlines()) == 1


def outputs_of(out):
    "Each file in ``out`` by name, with its bytes."
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


FILE_SIZE_LIMITED = """\
import resource, signal, sys
from dpcfocus.cli import main
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[1]),) * 2)
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("scenario, limit", [("fig3", 50_000), ("fig5", 500)])
def test_a_write_past_the_file_size_limit_leaves_the_last_run_whole(
    tmp_path, tiny_config_path, scenario, limit
):
    # fig3 streams its rows and fig5 writes them at once; either run stops at the limit,
    # in a child process, and leaves the files of the run before it as they were
    out = tmp_path / "out"
    args = [scenario, "--config", str(tiny_config_path), "--out", str(out)]
    assert main(args + ["--scale", "0.5"]) == EXIT_OK
    before = outputs_of(out)
    done = fresh_python("-c", FILE_SIZE_LIMITED, str(limit), *args)
    assert done.returncode == EXIT_OUTPUT_ERROR
    assert done.stderr.startswith("dpcfocus: cannot write output: [Errno 27] File too large")
    assert one_line(done.stderr)
    assert outputs_of(out) == before


def test_a_csv_write_that_fails_midway_leaves_the_last_run_whole(
    tmp_path, tiny_config_path, capsys, monkeypatch
):
    out = tmp_path / "out"
    args = ["fig5", "--config", str(tiny_config_path), "--out", str(out)]
    assert main(args + ["--scale", "0.5"]) == EXIT_OK
    before = outputs_of(out)
    real = csv.writer

    class HalfWriter:
        "Writes the header and one row, then fails as a full disk would."

        def __init__(self, handle, **kwargs):
            self.handle, self.writer = handle, real(handle, **kwargs)
            self.writerow = self.writer.writerow

        def writerows(self, rows):
            self.writer.writerows(list(rows)[:1])
            self.handle.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli.csv, "writer", HalfWriter)
    assert main(args) == EXIT_OUTPUT_ERROR
    err = capsys.readouterr().err
    assert err == "dpcfocus: cannot write output: [Errno 28] No space left on device\n"
    assert outputs_of(out) == before


def test_a_failed_manifest_pairs_no_manifest_with_the_new_outputs(
    tmp_path, tiny_config_path, monkeypatch
):
    out = tmp_path / "out"
    assert main(["fig6", "--config", str(tiny_config_path), "--out", str(out)]) == EXIT_OK
    fresh = tmp_path / "fresh"
    assert main(["fig5", "--config", str(tiny_config_path), "--out", str(fresh)]) == EXIT_OK
    before = outputs_of(out)

    def half_dump(obj, handle, **kwargs):
        handle.write("{")
        handle.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli.json, "dump", half_dump)
    code = main(["fig5", "--config", str(tiny_config_path), "--out", str(out)])
    assert code == EXIT_OUTPUT_ERROR
    # fig6's manifest went before fig5.csv came in, and no manifest came after it
    assert outputs_of(out) == {
        "fig5.csv": (fresh / "fig5.csv").read_bytes(), "fig6.csv": before["fig6.csv"]
    }


@pytest.fixture
def unbuilt_kernel(tmp_path, monkeypatch):
    "No tile kernel loaded, and an empty cache: the next kernel call builds it."
    monkeypatch.setattr(beamforming, "_kernel", None)
    monkeypatch.setattr(beamforming, "KERNEL_CACHE", str(tmp_path / "cache"))


@pytest.mark.parametrize("scenario", ["fig5", "fig3"])
@pytest.mark.parametrize("compiler", ["missing", "failing"])
def test_a_kernel_that_cannot_be_built_is_a_one_line_build_error(
    tmp_path, tiny_config_path, capsys, monkeypatch, unbuilt_kernel, compiler, scenario
):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    if compiler == "failing":
        cc = bin_dir / "cc"
        cc.write_text("#!/bin/sh\necho 'cc: error: out of luck' >&2\necho more >&2\nexit 1\n")
        cc.chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    out = tmp_path / "out"
    code = main([scenario, "--config", str(tiny_config_path), "--out", str(out)])
    assert code == EXIT_BUILD_ERROR
    err = capsys.readouterr().err
    assert one_line(err) and err.startswith("dpcfocus: cannot build the SNR kernel: ")
    assert ("out of luck" in err) == (compiler == "failing")
    assert not (out / f"{scenario}.csv").exists() and not (out / "manifest.json").exists()


def test_check_never_builds_the_kernel(tmp_path, tiny_config_path, monkeypatch, unbuilt_kernel):
    monkeypatch.setattr(beamforming, "_load_kernel", lambda cache: pytest.fail("built"))
    out = tmp_path / "out"
    assert main(["check", "--config", str(tiny_config_path), "--out", str(out)]) == EXIT_OK
    assert beamforming._kernel is None


@pytest.mark.parametrize("scenario", ["fig3", "fig5", "fig6", "fig7", "sweep", "check"])
def test_the_plan_loads_the_kernel_its_run_needs(tiny_config_path, monkeypatch, unbuilt_kernel,
                                                 scenario):
    # a build or a load is part of the run's set-up, not of its first placement
    library = object()
    monkeypatch.setattr(beamforming, "_load_kernel", lambda cache: library)
    plan_run(load_config(tiny_config_path), scenario)
    assert beamforming._kernel is (None if scenario == "check" else library)


def test_main_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["does-not-exist"])
    assert exc.value.code == 2


def test_check_scenario_outputs(tmp_path, tiny_config_path):
    out = tmp_path / "out"
    code = main(["check", "--config", str(tiny_config_path), "--out", str(out)])
    assert code == EXIT_OK
    header, rows = read_csv(out / "check.csv")
    assert header[0] == "distance_m"
    assert len(rows) == 2
    delay = float(rows[0][header.index("delay_spread_s")])
    assert math.isclose(
        delay, (math.hypot(0.1, 0.008) - 0.1) / 299792458.0, rel_tol=1e-12
    )
    assert rows[0][header.index("narrowband_valid")] == "1"

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"] == "check"
    assert manifest["outputs"] == ["check.csv"]
    layout = build_circular_array(0.008, 299792458.0 / 300e9)
    assert manifest["derived"]["n_tx"] == layout.n_tx
    assert manifest["derived"]["orientation_count"] == 72
    # 12 x 6 grid: the pole, two elevation ring pairs of 7 classes, an equator of 4
    assert manifest["derived"]["orientation_classes"] == 19
    assert manifest["derived"]["placements"] == 0  # check evaluates no RX placement
    assert manifest["derived"]["directions_evaluated"] == 0
    assert manifest["derived"]["antenna_direction_pairs"] == 0
    assert manifest["host"] == {
        "cpus": beamforming.available_cpus(),
        "kernel_workers": 0,
        "numpy": np.__version__,
    }
    assert isinstance(manifest["peak_rss_bytes"], int) and manifest["peak_rss_bytes"] > 2**20


def test_refused_csv_value_leaves_no_file(tmp_path):
    # rows are formatted as they are written: the partial file goes, and an older copy
    # stays whole
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError):
        _write_csv(path, ["a"], [(1.0,), (math.nan,)])
    assert list(tmp_path.iterdir()) == []
    _write_csv(path, ["a"], [(2.0,)])
    with pytest.raises(ValueError):
        _write_csv(path, ["a"], [(1.0,), (math.inf,)])
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text() == "a\n2.0\n"


def test_manifest_config_echo_roundtrips(tmp_path, tiny_config_path):
    out = tmp_path / "out"
    assert main(["check", "--config", str(tiny_config_path), "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    echoed = parse_config_text(mapping_to_config_text(manifest["config"]))
    original = load_config(tiny_config_path)
    assert math.isclose(echoed.radius, original.radius, rel_tol=1e-12)
    assert math.isclose(echoed.bandwidth, original.bandwidth, rel_tol=1e-12)
    assert np.allclose(echoed.alpha_values, original.alpha_values, rtol=1e-12, atol=1e-15)
    assert echoed.distance_values == original.distance_values


def test_scale_flag_shrinks_radius_and_is_recorded(tmp_path, tiny_config_path):
    out = tmp_path / "out"
    code = main(
        ["check", "--config", str(tiny_config_path), "--out", str(out), "--scale", "0.5"]
    )
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scale"] == 0.5
    assert math.isclose(manifest["config"]["radius_m"], 0.004, rel_tol=1e-12)


def test_fig5_runs_are_byte_identical(tmp_path, tiny_config_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    out3 = tmp_path / "c"
    assert main(["fig5", "--config", str(tiny_config_path), "--out", str(out1)]) == EXIT_OK
    assert main(["fig5", "--config", str(tiny_config_path), "--out", str(out2)]) == EXIT_OK
    assert main(["fig5", "--config", str(tiny_config_path), "--out", str(out3)]) == EXIT_OK
    body1 = (out1 / "fig5.csv").read_bytes()
    assert body1 == (out2 / "fig5.csv").read_bytes()
    assert body1 == (out3 / "fig5.csv").read_bytes()

    header, rows = read_csv(out1 / "fig5.csv")
    assert [row[0] for row in rows] == ["0.0", "30.0"]
    assert all(row[1] == "72" for row in rows)  # 12 x 6 coarse orientation grid


def test_manifest_counts_placements(tmp_path, tiny_config_path):
    # TINY_CONFIG's lattice is one antenna block, so each placement is one kernel task
    # on the 72-direction grid an RX on the z axis (alpha = 0) evaluates the 7 classes of
    # the square's symmetries, and one at alpha = 30 degrees the 19 of the mirror's
    grid = orientation_grid(math.radians(30.0), math.radians(30.0))
    assert orientation_classes(grid, True, True)[0].size == 7
    assert orientation_classes(grid, True)[0].size == 19
    cpus = beamforming.available_cpus()
    for scenario, placements, workers, evaluated in (
        ("fig5", 2, min(cpus, 2), 7 + 19),
        ("sweep", 4, min(cpus, 4), 2 * (7 + 19)),
        ("fig3", 2, 0, 0),
    ):
        out = tmp_path / scenario
        assert main([scenario, "--config", str(tiny_config_path), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["derived"]["placements"] == placements
        assert manifest["derived"]["directions_evaluated"] == evaluated
        # every evaluated direction of a placement is summed over the whole lattice
        plan = plan_run(load_config(tiny_config_path), scenario)
        assert manifest["derived"]["antenna_direction_pairs"] == manifest["derived"]["n_tx"] * sum(
            fold.directions.shape[0] for _, _, fold in plan.kernel
        )
        assert manifest["host"]["cpus"] == beamforming.available_cpus()
        assert manifest["host"]["kernel_workers"] == workers
        assert manifest["host"]["numpy"] == np.__version__
        assert manifest["peak_rss_bytes"] > 2**20
        assert manifest["warnings"] == []  # every TINY_CONFIG placement is narrowband
    config = SweepConfig()
    assert len(scenario_placements("fig5", config)) == 7
    assert len(scenario_placements("fig6", config)) == 10
    assert len(scenario_placements("sweep", config)) == 70


def test_preflight_charges_fig3_for_its_maps_and_writer(monkeypatch):
    config = SweepConfig()
    # fig3 holds its maps and each antenna's 'index,x,y,' text, which outweigh a map's a_x,
    # a_y and atan2 temporaries; its writer holds one lattice run's rows at a time
    fig3 = plan_run(config, "fig3").estimated_bytes
    assert fig3 == 51983407.449771166
    # the sweep kernel holds the row table and, per worker, column sums; the workers are
    # pinned to two CPUs' worth
    monkeypatch.setattr(beamforming, "MAX_WORKERS", 2)
    for scenario in ("fig5", "fig6", "fig7", "sweep", "check"):
        assert plan_run(config, scenario).estimated_bytes < 0.4 * fig3


def test_preflight_charges_each_kernel_worker(monkeypatch):
    # per worker: three blocks' column sums, each 3 m float64 for the m directions of
    # the grid; the compiled loop builds the geometry on its stack. On 2-degree grids,
    # 16 200 directions, the kernel outweighs the lattice build's temporaries from one
    # worker on
    two_degrees = {"azimuth_step": math.radians(2.0), "elevation_step": math.radians(2.0)}
    # about 70 000 antennas, 18 blocks
    half = replace(SweepConfig().scaled(0.5), **two_degrees)
    # one block per placement, four placements: a worker per placement up to the CPUs
    tiny = replace(parse_config_text(TINY_CONFIG), **two_degrees)
    estimates = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(beamforming, "MAX_WORKERS", workers)
        plans = plan_run(half, "fig5"), plan_run(tiny, "sweep")
        assert [plan.kernel_workers for plan in plans] == [workers, workers]
        estimates.append([plan.estimated_bytes for plan in plans])
    # to a byte: the estimate is a float sum of about 2e7, and no block's size enters it
    for column, plan in enumerate(plans):
        column_sums = 3 * 8 * 3 * plan.grid.shape[0]
        charged = [e[column] - estimates[0][column] for e in estimates]
        assert charged == pytest.approx([0, column_sums, 2 * column_sums], rel=0, abs=1.0)


def test_preflight_covers_the_kernel_on_a_one_degree_grid(monkeypatch):
    # about 16 200 classes: each block's column sums are 3 x 16 200 float64
    text = TINY_CONFIG.replace("step_deg = 30", "step_deg = 1")
    config = parse_config_text(text)
    monkeypatch.setattr(beamforming, "MAX_WORKERS", 2)
    layout = build_circular_array(config.radius, config.wavelength)
    grid = orientation_grid(config.azimuth_step, config.elevation_step)
    budget = LinkBudget(config.transmit_power, config.noise_power)
    plan = plan_run(config, "fig5")
    assert plan.kernel_workers == 2
    tracemalloc.start()
    try:
        kernel_snr(layout, rx_position(0.1, math.radians(30.0)), grid, budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= plan.estimated_bytes


def test_preflight_covers_the_lattice_build():
    # the build holds its row table and one chunk of rows; it held 6.5 MiB of positions
    # beside them, and before that the hypot of every point of the bounding square and
    # its mask, 17.3 MiB
    config = SweepConfig()
    tracemalloc.start()
    try:
        layout = build_circular_array(config.radius, config.wavelength)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert layout.n_tx == 283177
    # a check run holds only the lattice beside the grid
    assert peak <= plan_run(config, "check").estimated_bytes
    # a chunk's temporaries, at most 40 bytes a point, outweigh the table's 601 coordinates
    assert peak <= 40 * geometry.LATTICE_CHUNK
    assert sum(a.nbytes for a in layout.rows) < 0.1 * peak


def test_a_full_size_fig5_run_holds_no_per_antenna_array(tmp_path):
    # the kernel reads the lattice's row table, O(sqrt n); the (n, 3) positions took
    # 6.5 MiB, and 7.1 MiB was traced in all
    out = tmp_path / "out"
    assert main(["fig5", "--out", str(out)]) == EXIT_OK  # builds the kernel, if need be
    tracemalloc.start()
    try:
        assert main(["fig5", "--out", str(out)]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert json.loads((out / "manifest.json").read_text())["derived"]["n_tx"] == 283177
    assert peak < 2**20


def test_preflight_covers_a_fig3_run(tmp_path):
    # fig3 must not hold its rows: as tuples and then lists of strings they took about
    # 1.2 kB per antenna, four times the estimate
    path = tmp_path / "fig3.cfg"
    path.write_text(TINY_CONFIG.replace("radius_m = 0.008", "radius_m = 0.03"))
    config = load_config(path)
    layout = build_circular_array(config.radius, config.wavelength)
    assert layout.n_tx > 10_000
    tracemalloc.start()
    try:
        assert main(["fig3", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= plan_run(config, "fig3").estimated_bytes


def test_a_fig5_run_derives_each_quantity_once(tmp_path, tiny_config_path, monkeypatch):
    # the plan builds the lattice and works out the placements, the grid and one fold per
    # symmetry used (the square's at alpha = 0, the mirror's at 30 degrees); the kernel,
    # the pre-flight and the manifest all read them from it
    calls = {"scenario_placements": 0, "build_circular_array": 0, "kernel_workers": 0,
             "orientation_grid": 0, "orientation_classes": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("scenario_placements", "kernel_workers"):
        counted(cli, name)
    for module in (geometry, cli):
        counted(module, "build_circular_array")
    for module in (geometry, experiments, cli):
        counted(module, "orientation_grid")
    for module in (geometry, beamforming):
        counted(module, "orientation_classes")
    out = tmp_path / "out"
    assert main(["fig5", "--config", str(tiny_config_path), "--out", str(out)]) == EXIT_OK
    assert calls == {"scenario_placements": 1, "build_circular_array": 1, "kernel_workers": 1,
                     "orientation_grid": 1, "orientation_classes": 2}
    assert not hasattr(beamforming, "kernel_plan")


# a 5525-antenna lattice, two antenna blocks, whose one fig5 placement on the z axis
# evaluates the 13 classes of the square's fold
EDGE_CONFIG = (
    TINY_CONFIG.replace("radius_m = 0.008", "radius_m = 0.021")
    .replace("carrier_frequency_hz = 300e9", "carrier_frequency_hz = 299792458000.0")
    .replace("alpha_deg = 0, 30", "alpha_deg = 0")
    .replace("distance_m = 0.1, 0.3", "distance_m = 0.1")
    .replace("elevation_step_deg = 30", "elevation_step_deg = 15")
)


@pytest.mark.parametrize(
    "text, scale", [(TINY_CONFIG, 1.0), (EDGE_CONFIG, 1.0), (None, 0.1)],
    ids=["tiny", "edge", "default-0.1"],
)
def test_the_preflight_charges_the_kernel_workers_the_run_starts(
    tmp_path, monkeypatch, text, scale
):
    monkeypatch.setattr(beamforming, "MAX_WORKERS", 2)
    args = ["--scale", repr(scale)]
    config = SweepConfig().scaled(scale)
    if text is not None:
        path = tmp_path / "run.cfg"
        path.write_text(text)
        args += ["--config", str(path)]
        config = load_config(path)
    for scenario in cli.SCENARIOS:
        plan = plan_run(config, scenario)
        out = tmp_path / scenario
        assert main([scenario, "--out", str(out), *args]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert plan.layout.n_tx == manifest["derived"]["n_tx"]
        assert plan.kernel_workers == manifest["host"]["kernel_workers"]
        if text is EDGE_CONFIG and scenario == "fig5":
            assert manifest["derived"]["n_tx"] == 5525
            assert manifest["derived"]["directions_evaluated"] == 13
            assert manifest["host"]["kernel_workers"] == 2


@pytest.mark.parametrize("scenario", ["fig5", "sweep"])
def test_csvs_do_not_depend_on_the_worker_count(tmp_path, tiny_config_path, monkeypatch, scenario):
    bodies = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(beamforming, "MAX_WORKERS", workers)
        out = tmp_path / str(workers)
        assert main([scenario, "--config", str(tiny_config_path), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["host"]["kernel_workers"] == min(workers, manifest["derived"]["placements"])
        bodies.append((out / f"{scenario}.csv").read_bytes())
    assert bodies == [bodies[0]] * 3


def fresh_python(*args, **env):
    """Run a fresh interpreter on this test run's import path, with ``env`` added to the
    environment; returns the completed process. ``OPENBLAS_NUM_THREADS`` comes only from
    ``env``: this process holds the value that importing ``dpcfocus.cli`` set."""
    inherited = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env = dict(inherited, PYTHONPATH=os.pathsep.join(sys.path), **env)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize("scenario", ["fig5", "sweep"])
def test_csvs_do_not_depend_on_the_blas_thread_count(tmp_path, tiny_config_path, scenario):
    # BLAS may split what numpy gives it across its own threads; no CSV cell may
    # depend on that
    bodies = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        done = fresh_python(
            "-m", "dpcfocus", scenario, "--config", str(tiny_config_path), "--out", str(out),
            OPENBLAS_NUM_THREADS=threads,
        )
        assert done.returncode == EXIT_OK, done.stderr
        bodies.append((out / f"{scenario}.csv").read_bytes())
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("filters", ["", "error", "ignore", "always"],
                         ids=["unset", "error", "ignore", "always"])
def test_manifest_records_the_narrowband_warnings(tmp_path, filters):
    # at 1 THz the 1.07 ps delay spread at 0.1 m and 0.36 ps at 0.3 m both fail the
    # 0.1 ps margin at both angles; each distinct warning is shown once on stderr, on one
    # line, and neither the notes nor the exit code depend on the interpreter's warning
    # filters
    path = tmp_path / "wide.cfg"
    path.write_text(TINY_CONFIG.replace("bandwidth_hz = 100e6", "bandwidth_hz = 1e12"))
    delays = [(math.hypot(d, 0.008) - d) / SPEED_OF_LIGHT for d in (0.1, 0.3)]
    bodies = []
    for run in ("a", "b"):
        out = tmp_path / run
        done = fresh_python("-m", "dpcfocus", "sweep", "--config", str(path), "--out", str(out),
                            PYTHONWARNINGS=filters)
        assert done.returncode == EXIT_OK, done.stderr
        recorded = json.loads((out / "manifest.json").read_text())["warnings"]
        assert recorded == [
            f"RuntimeWarning: delay spread {delay:.3e} s is not small against the symbol "
            "time 1.000e-12 s; narrowband results are questionable"
            for delay in delays
        ]
        assert done.stderr.splitlines() == [f"dpcfocus: warning: {note}" for note in recorded]
        bodies.append((out / "sweep.csv").read_bytes())
    assert bodies[0] == bodies[1]


def test_the_notes_follow_the_error_line_of_a_failed_scenario(tmp_path, capsys):
    # at 1 THz the 0.1 m placements fail the narrowband check, and at 1e200 m the v = z
    # gains underflow to 0 once the kernel has run: exit 3, and the notes still follow
    path = tmp_path / "far.cfg"
    path.write_text(TINY_CONFIG.replace("bandwidth_hz = 100e6", "bandwidth_hz = 1e12")
                    .replace("distance_m = 0.1, 0.3", "distance_m = 0.1, 1e200"))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
    error, *notes = capsys.readouterr().err.splitlines()
    assert error.startswith("dpcfocus: config error: distance 1e+200 m at alpha 0.0 deg: ")
    delay = (math.hypot(0.1, 0.008) - 0.1) / SPEED_OF_LIGHT
    assert notes == [
        f"dpcfocus: warning: RuntimeWarning: delay spread {delay:.3e} s is not small against "
        "the symbol time 1.000e-12 s; narrowband results are questionable"
    ]
    assert not (tmp_path / "sweep.csv").exists()


def test_importing_the_cli_defers_threads_and_no_run_loads_decimal(tmp_path, tiny_config_path):
    # threads are imported on first use, so a run's set-up does not pay for them, and the
    # pattern series is a constant of the kernel, so no run loads decimal at all
    code = (
        "import sys, dpcfocus.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'decimal') if m in sys.modules))"
    )
    done = fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    # the quartiles come from one sort: np.percentile would import numpy.ma; and the
    # complex channel, the tests' reference route, is no module any run needs
    for scenario in ("fig3", "fig5", "sweep", "check"):
        args = [scenario, "--config", str(tiny_config_path), "--out", str(tmp_path / scenario)]
        code = (
            f"import sys, dpcfocus.cli; assert dpcfocus.cli.main({args!r}) == 0; "
            "print(sorted(m for m in ('decimal', 'numpy.ma', 'dpcfocus.channel') "
            "if m in sys.modules))"
        )
        done = fresh_python("-c", code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


def test_a_threaded_run_imports_no_executor_or_logging(tmp_path):
    # the kernel's pool is threading and queue alone: concurrent.futures would import
    # logging, traceback and string at the start of every stream
    args = ["sweep", "--scale", "0.1", "--out", str(tmp_path)]
    code = (
        f"import sys, dpcfocus.cli; assert dpcfocus.cli.main({args!r}) == 0; "
        "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))"
    )
    done = fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    workers = json.loads((tmp_path / "manifest.json").read_text())["host"]["kernel_workers"]
    assert workers == min(beamforming.available_cpus(), 70)  # one block per placement


def test_importing_the_package_loads_no_numpy():
    # its names load on first use, so dpcfocus.cli can set BLAS defaults before numpy loads
    done = fresh_python("-c", "import sys, dpcfocus; print('numpy' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_the_package_exports_its_modules_objects():
    code = (
        "import dpcfocus\n"
        "from dpcfocus import beamforming, channel, experiments, geometry\n"
        "modules = (beamforming, channel, experiments, geometry)\n"
        "assert set(dpcfocus.__all__) <= set(dir(dpcfocus))\n"
        "for name in dpcfocus.__all__:\n"
        "    homes = [getattr(m, name) for m in modules if hasattr(m, name)]\n"
        "    assert homes and all(obj is getattr(dpcfocus, name) for obj in homes), name\n"
        "assert getattr(dpcfocus, 'no_such_name', None) is None\n"
        "print(len(dpcfocus.__all__))"
    )
    done = fresh_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "19"
    done = fresh_python("-m", "dpcfocus", "--version")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"dpcfocus {cli.__version__}"


@pytest.mark.parametrize("preset", [None, "2"])
def test_the_cli_defaults_blas_to_one_thread(preset):
    # no CLI path calls BLAS, and an idle OpenBLAS worker spins for about 0.1 s of CPU;
    # a value the caller set wins
    code = (
        "import os, dpcfocus.cli\n"
        "tasks = '/proc/self/task'\n"
        "threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else 0\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], threads)"
    )
    env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    done = fresh_python("-c", code, **env)
    assert done.returncode == 0, done.stderr
    value, threads = done.stdout.split()
    assert value == (preset or "1")
    if threads == "0":
        pytest.skip("no /proc/self/task to count threads in")
    if preset is None:
        assert int(threads) == 1
    elif beamforming.available_cpus() >= 2:
        # the same probe sees OpenBLAS's worker, so the count above is not vacuous
        assert int(threads) >= 2


def test_fig3_output_schema(tmp_path, tiny_config_path):
    out = tmp_path / "out"
    assert main(["fig3", "--config", str(tiny_config_path), "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out / "fig3.csv")
    assert header == ["distance_m", "antenna_index", "x_m", "y_m", "pol_angle_deg", "nonlinear"]
    layout = build_circular_array(0.008, 299792458.0 / 300e9)
    assert len(rows) == 2 * layout.n_tx
    distances = {row[0] for row in rows}
    assert distances == {"0.15", "1.0"}
    angles = np.array([float(row[4]) for row in rows])
    assert np.all(np.isfinite(angles))
    assert np.all(np.abs(angles) <= 90.0)
    assert all(row[5] == "0" for row in rows)


def test_fig6_fig7_and_sweep_outputs(tmp_path, tiny_config_path):
    out = tmp_path / "out"
    assert main(["fig6", "--config", str(tiny_config_path), "--out", str(out)]) == EXIT_OK
    header6, rows6 = read_csv(out / "fig6.csv")
    assert [row[0] for row in rows6] == ["0.1", "0.3"]
    med = header6.index("dual_median_db")
    assert float(rows6[1][med]) < float(rows6[0][med])

    assert main(["fig7", "--config", str(tiny_config_path), "--out", str(out)]) == EXIT_OK
    header7, rows7 = read_csv(out / "fig7.csv")
    for row in rows7:
        dpc = float(row[header7.index("rate_dpc_bps")])
        dual = float(row[header7.index("rate_dual_bps")])
        switched = float(row[header7.index("rate_switched_bps")])
        assert dpc >= dual >= switched > 0.0

    assert main(["sweep", "--config", str(tiny_config_path), "--out", str(out)]) == EXIT_OK
    header_s, rows_s = read_csv(out / "sweep.csv")
    assert len(rows_s) == 4  # two alphas times two distances
    for row in rows_s:
        for name, value in zip(header_s, row):
            assert math.isfinite(float(value))


def test_all_csv_fields_finite_fig5(tmp_path, tiny_config_path):
    out = tmp_path / "out"
    assert main(["fig5", "--config", str(tiny_config_path), "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out / "fig5.csv")
    for row in rows:
        for value in row:
            assert math.isfinite(float(value))


def test_default_config_used_when_no_file_given(tmp_path):
    # default config at desk scale: shrink hard so the run stays quick
    out = tmp_path / "out"
    code = main(["check", "--out", str(out), "--scale", "0.1"])
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert math.isclose(manifest["config"]["radius_m"], 0.015, rel_tol=1e-12)
    assert manifest["config"]["alpha_deg"] == [0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
    defaults = SweepConfig()
    assert math.isclose(
        manifest["derived"]["noise_power_w"], defaults.noise_power, rel_tol=1e-12
    )


def one_line(text):
    return len(text.splitlines()) == 1 and text.endswith("\n")


@pytest.mark.parametrize("scale", ["nan", "inf", "0"])
def test_bad_scale_is_a_one_line_usage_error(tmp_path, capsys, scale):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--out", str(tmp_path / "out"), "--scale", scale])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert one_line(err) and "--scale" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "scenario, old, new",
    [
        ("fig5", "alpha_deg = 0, 30", "alpha_deg = 0, nan"),
        ("fig5", "alpha_deg = 0, 30", "alpha_deg = 0, 90"),
        ("fig5", "alpha_deg = 0, 30", "alpha_deg = -10, 30"),
        ("fig5", "bandwidth_hz = 100e6", "bandwidth_hz = inf"),
        ("fig5", "radius_m = 0.008", "radius_m = nan"),
        ("fig6", "distance_m = 0.1, 0.3", "distance_m = 0.2, 0.1"),
        ("fig7", "distance_m = 0.1, 0.3", "distance_m = 0.3, 0.3"),
        ("check", "azimuth_step_deg = 30", "azimuth_step_deg = 7"),
        ("check", "azimuth_step_deg = 30", "azimuth_step_deg = 1e-320"),
        ("fig5", "elevation_step_deg = 30", "elevation_step_deg = 7"),
        ("fig5", "transmit_power_w = 1e-3", "transmit_power_w = 1e300"),
        ("fig5", "transmit_power_w = 1e-3", "transmit_power_w = 1e-3\nnoise_power_w = 1e-320"),
        ("check", "carrier_frequency_hz = 300e9", "carrier_frequency_hz = 5e-324"),
        ("check", "bandwidth_hz = 100e6", "bandwidth_hz = 5e-324\nnoise_power_w = 1e-13"),
        # one lattice element, which sits at the v = z axial null when alpha = 0
        ("sweep", "radius_m = 0.008", "radius_m = 0.0001"),
        # valid, but this far out an RX on the z axis sees v = z gains fall as (R/d)^4,
        # to float64's 0, which has no dB value
        ("sweep", "distance_m = 0.1, 0.3", "distance_m = 0.1, 1e200"),
        ("sweep", "distance_m = 0.1, 0.3", "distance_m = 0.1, 1e150"),
        # and this close in, as (d / pitch)^2
        ("sweep", "distance_m = 0.1, 0.3", "distance_m = 1e-100, 0.3"),
        # the rate bound, from an antenna at least d cos(alpha) away, would overflow
        ("fig6", "distance_m = 0.1, 0.3", "distance_m = 1e-300, 0.3"),
        # d cos(alpha) underflows to 0: the RX lies on the array plane
        ("sweep", "alpha_deg = 0, 30\ndistance_m = 0.1, 0.3",
         "alpha_deg = 70\ndistance_m = 5e-324, 0.3"),
        ("fig6", "distance_m = 0.1, 0.3", "distance_m = 1e-160, 0.3"),
        ("sweep", "distance_m = 0.1, 0.3", "distance_m = 1e-300, 0.3"),
        ("fig7", "distance_m = 0.1, 0.3", "distance_m = 5e-324, 0.3"),
        # and so would B log2(1 + SNR) at any distance
        ("fig7", "bandwidth_hz = 100e6", "bandwidth_hz = 1e306\nnoise_power_w = 1e-300"),
        # terabyte-sized runs, refused by the memory estimate before anything allocates
        ("check", "radius_m = 0.008", "radius_m = 1000"),
        ("check", "azimuth_step_deg = 30", "azimuth_step_deg = 1e-7"),
    ],
)
def test_bad_config_value_is_a_one_line_config_error(tmp_path, capsys, scenario, old, new):
    assert old in TINY_CONFIG
    path = tmp_path / "bad.cfg"
    path.write_text(TINY_CONFIG.replace(old, new))
    out = tmp_path / "out"
    code = main([scenario, "--config", str(path), "--out", str(out)])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert one_line(err) and err.startswith("dpcfocus: config error:")
    # a gain that underflows to 0 is refused at its placement, and the message names it
    assert "zero SNR" not in err or err.startswith("dpcfocus: config error: distance ")
    assert not (out / f"{scenario}.csv").exists()


HUGE_RATE = TINY_CONFIG.replace("bandwidth_hz = 100e6",
                                "bandwidth_hz = 1e306\nnoise_power_w = 1e-300")
ON_PLANE = TINY_CONFIG.replace("alpha_deg = 0, 30\ndistance_m = 0.1, 0.3",
                               "alpha_deg = 70\ndistance_m = 5e-324, 0.3")


@pytest.mark.parametrize(
    "scenario, text, placement",
    [
        ("fig7", HUGE_RATE, "distance 0.1 m at alpha 30.0 deg"),
        ("sweep", HUGE_RATE, "distance 0.1 m at alpha 0.0 deg"),
        # d cos(alpha) is 0.0: the bound, checked first, names the placement on the plane
        ("sweep", ON_PLANE, "distance 5e-324 m at alpha 70.0 deg"),
    ],
    ids=["fig7-huge-rate", "sweep-huge-rate", "sweep-on-plane"],
)
def test_the_rate_bound_refuses_its_placement(tmp_path, capsys, scenario, text, placement):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    assert main([scenario, "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == (
        f"dpcfocus: config error: {placement}: the rate bound "
        "B * log2(1 + P/N * n * (lambda / (4 pi d cos alpha))^2) overflows\n"
    )


def test_fig3_is_not_refused_for_a_rate_it_never_computes(tmp_path, tiny_config_path):
    # fig3.csv reads neither B nor P/N, and fig3 runs no kernel placement
    path = tmp_path / "huge.cfg"
    path.write_text(HUGE_RATE)
    for name, config in (("tiny", tiny_config_path), ("huge", path)):
        assert main(["fig3", "--config", str(config), "--out", str(tmp_path / name)]) == EXIT_OK
    assert (tmp_path / "huge" / "fig3.csv").read_bytes() == (
        tmp_path / "tiny" / "fig3.csv"
    ).read_bytes()


def test_the_plan_folds_as_placement_sweeps_does(tiny_config_path):
    # the CLI's kernel table and the library's sweeps give the same SNRs, bit for bit
    config = load_config(tiny_config_path)
    plan = plan_run(config, "sweep")
    budget = config.budget()
    gains = folded_snrs(plan.layout, plan.kernel)
    via_plan = [link_snrs(g, budget, config.wavelength, r0)
                for (_, r0, _), g in zip(plan.kernel, gains, strict=True)]
    layout = build_circular_array(config.radius, config.wavelength)
    grid = orientation_grid(config.azimuth_step, config.elevation_step)
    via_sweeps = list(experiments.placement_sweeps(layout, plan.placements, budget, grid=grid))
    assert len(via_plan) == len(via_sweeps) == 4
    for a, b in zip(via_plan, via_sweeps):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


ONCE_REFUSED = [
    # 1e150 m and 1e200 m out, off the z axis: every gain is representable
    ("sweep", "alpha_deg = 0, 30\ndistance_m = 0.1, 0.3",
     "alpha_deg = 30\ndistance_m = 0.1, 1e150"),
    ("fig6", "distance_m = 0.1, 0.3", "distance_m = 0.1, 1e150"),
    ("fig7", "distance_m = 0.1, 0.3", "distance_m = 0.1, 1e150"),
    ("sweep", "alpha_deg = 0, 30\ndistance_m = 0.1, 0.3",
     "alpha_deg = 30\ndistance_m = 0.1, 1e200"),
    # P/N * n * (lambda / (4 pi d cos alpha))^2 stays finite at this small P/N
    ("fig6", "transmit_power_w = 1e-3\nalpha_deg = 0, 30\ndistance_m = 0.1, 0.3",
     "transmit_power_w = 1e-20\nalpha_deg = 0, 30\ndistance_m = 1e-160, 0.3"),
]


@pytest.mark.parametrize("scenario, old, new", ONCE_REFUSED)
def test_far_and_low_budget_placements_are_run(tmp_path, scenario, old, new):
    assert old in TINY_CONFIG

    def run(text, out):
        path = tmp_path / f"{out}.cfg"
        path.write_text(TINY_CONFIG.replace(old, text))
        assert main([scenario, "--config", str(path), "--out", str(tmp_path / out)]) == EXIT_OK
        header, rows = read_csv(tmp_path / out / f"{scenario}.csv")
        return header, [[float(v) for v in row] for row in rows]

    header, rows = run(new, "extreme")
    stats = [i for i, c in enumerate(header) if c in cli.STATS_COLUMNS]
    rates = [i for i, c in enumerate(header) if c in cli.RATE_COLUMNS]
    assert rows and all(math.isfinite(v) for row in rows for v in row)
    assert all(row[i] >= 0.0 for row in rows for i in rates)
    if "1e150" in new:  # far beyond the aperture the improvements no longer change
        _, near = run(new.replace("1e150", "1e100"), "near")
        for got, want in zip(rows, near, strict=True):
            for i in stats:
                assert abs(got[i] - want[i]) <= 1e-12 * max(abs(want[i]), 1.0), header[i]


@pytest.mark.parametrize(
    "budget", ["transmit_power_w = 2.3e-308", "transmit_power_w = 5e-324\nnoise_power_w = 1.0"],
    ids=["5.7e-296", "subnormal"],
)
def test_fig5_does_not_depend_on_the_link_budget(tmp_path, budget):
    # the statistics are ratios of budget-free gains, even at a P/N of 5.7e-296 or of
    # 5e-324; only the rates read P/N, and they stay finite
    bodies = []
    for name, text in (("1mW", "transmit_power_w = 1e-3"), ("low", budget)):
        path = tmp_path / f"{name}.cfg"
        path.write_text(TINY_CONFIG.replace("transmit_power_w = 1e-3", text))
        out = tmp_path / name
        for scenario in ("fig5", "fig7"):
            assert main([scenario, "--config", str(path), "--out", str(out)]) == EXIT_OK
        bodies.append((out / "fig5.csv").read_bytes())
        _, rows = read_csv(out / "fig7.csv")
        assert all(math.isfinite(float(v)) and float(v) >= 0.0 for row in rows for v in row[2:])
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize(
    "args", [["--config", "TINY"], ["--scale", "0.1"]], ids=["tiny", "default-scale-0.1"]
)
def test_figure_rows_are_columns_of_sweep_rows(tmp_path, tiny_config_path, args):
    # fresh runs of TINY_CONFIG and of the default config at --scale 0.1
    args = [str(tiny_config_path) if a == "TINY" else a for a in args]
    config = load_config(tiny_config_path) if "--config" in args else SweepConfig()
    out = tmp_path / "out"
    for scenario in ("sweep", "fig5", "fig6", "fig7"):
        assert main([scenario, *args, "--out", str(out)]) == EXIT_OK
    sweep_header, sweep_rows = read_csv(out / "sweep.csv")
    sweep = {(row[0], row[1]): dict(zip(sweep_header, row)) for row in sweep_rows}
    # fig5 sits at 10 cm, fig6 and fig7 at 30 degrees: both lie on either config's grid
    figures = {
        "fig5": lambda row: (row["alpha_deg"], "0.1"),
        "fig6": lambda row: ("30.0", row["distance_m"]),
        "fig7": lambda row: ("30.0", row["distance_m"]),
    }
    for scenario, placement in figures.items():
        header, rows = read_csv(out / f"{scenario}.csv")
        assert len(rows) == len(scenario_placements(scenario, config))
        for row in rows:
            named = dict(zip(header, row))
            expected = sweep[placement(named)]
            assert named == {column: expected[column] for column in header}


def test_sweep_accepts_distances_in_any_order(tmp_path):
    path = tmp_path / "shuffled.cfg"
    path.write_text(TINY_CONFIG.replace("distance_m = 0.1, 0.3", "distance_m = 0.3, 0.1"))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_OK
    header, rows = read_csv(out / "sweep.csv")
    assert [row[1] for row in rows] == ["0.3", "0.1", "0.3", "0.1"]


# A fixed example sequence and no example database keep the Tier-1 gate deterministic.
PROPERTY_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)


def sweep_config(radius, carrier_frequency, **kwargs):
    "A SweepConfig whose radius is raised to one wavelength where it would hold one element."
    radius = max(radius, SPEED_OF_LIGHT / carrier_frequency)
    return SweepConfig(radius=radius, carrier_frequency=carrier_frequency, **kwargs)


configs = st.builds(
    sweep_config,
    radius=st.floats(1e-6, 10.0),
    carrier_frequency=st.floats(1e6, 1e15),
    alpha_values=st.lists(st.floats(0.0, math.radians(89.9)), min_size=1, max_size=4),
    distance_values=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=4),
    azimuth_step=st.integers(1, 360).map(lambda n: 2.0 * math.pi / n),
    elevation_step=st.integers(1, 180).map(lambda n: math.pi / n),
    bandwidth=st.floats(1e-3, 1e15),
    transmit_power=st.floats(1e-12, 1e6),
    noise_power=st.none() | st.floats(1e-30, 1.0),
)


@PROPERTY_SETTINGS
@given(configs)
def test_config_echo_roundtrips(config):
    mapping = config_to_mapping(config)
    assert config_to_mapping(parse_config_text(mapping_to_config_text(mapping))) == mapping


POSITIVE = st.floats(0.0, math.inf, exclude_min=True, allow_infinity=False)
# Memory bounds: the array holds about (2 * radius / wavelength)^2 antennas and the
# orientation grid (360 / az_step) * (180 / el_step) rows, and the pre-flight check
# refuses only runs larger than physical memory. radius <= 0.05 m at <= 300 GHz keeps
# the array under 32 000 antennas; steps of at least 1 degree keep the grid under
# 65 000 rows. The keys that size an allocation therefore take bad values only from
# BAD_TOKENS.
SIZING_KEYS = ("radius_m", "carrier_frequency_hz", "azimuth_step_deg", "elevation_step_deg")
VALID_VALUES = {
    "radius_m": st.floats(0.0, 0.05, exclude_min=True),
    "carrier_frequency_hz": st.floats(0.0, 300e9, exclude_min=True),
    "bandwidth_hz": POSITIVE,
    "transmit_power_w": POSITIVE,
    "noise_power_w": POSITIVE,
    "alpha_deg": st.floats(0.0, 90.0, exclude_max=True),
    "distance_m": POSITIVE,
    "azimuth_step_deg": st.integers(1, 360).map(lambda n: 360.0 / n),
    "elevation_step_deg": st.integers(1, 180).map(lambda n: 180.0 / n),
}
BAD_TOKENS = st.sampled_from(
    ["nan", "inf", "-inf", "-1", "0", "-0.0", "1e-320", "5e-324", "1e400", "abc", "1,", ""]
)
TEXT = st.characters(exclude_categories=["Cs"])  # lone surrogates cannot be written as UTF-8
BAD_VALUES = (
    BAD_TOKENS
    | st.floats(allow_nan=True, allow_infinity=True).map(repr)
    | st.text(TEXT, max_size=8)
)


@st.composite
def config_texts(draw):
    """Config files of in-range values, with up to three faults: a key dropped,
    repeated or given a bad value, or a junk line added."""
    lines = {}
    for key in REQUIRED_KEYS + OPTIONAL_KEYS:
        count = draw(st.integers(1, 3)) if key in LIST_KEYS else 1
        values = [repr(draw(VALID_VALUES[key])) for _ in range(count)]
        lines[key] = [f"{key} = {', '.join(values)}"]
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(lines)))
        fault = draw(st.sampled_from(["bad value", "drop", "repeat", "junk line"]))
        if fault == "bad value":
            lines[key] = [f"{key} = {draw(BAD_TOKENS if key in SIZING_KEYS else BAD_VALUES)}"]
        elif fault == "drop":
            lines[key] = []
        elif fault == "repeat":
            lines[key] = lines[key] * 2
        else:  # without "=", a junk line can never set a key
            lines[key].append(draw(st.text(TEXT.filter(lambda c: c != "="), max_size=20)))
    return "\n".join(draw(st.permutations([line for group in lines.values() for line in group])))


@PROPERTY_SETTINGS
@given(config_texts(), st.just("1") | st.sampled_from(["0.5", "0", "nan", "x"]))
def test_check_on_fuzzed_config_only_returns_exit_codes(text, scale):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_text(text)
        out = Path(tmp) / "out"
        try:
            code = main(["check", "--config", str(path), "--out", str(out), "--scale", scale])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        assert code in (0, 2, 3, 4)
        assert (out / "check.csv").exists() == (code == EXIT_OK)


@st.composite
def small_run_configs(draw):
    """A config of 13 to about 200 antennas at 300 GHz, at most 72 directions and up
    to three angles and three distances, as text for ``main``."""
    wavelength = SPEED_OF_LIGHT / 300e9
    alphas = draw(st.lists(st.sampled_from([0.0, 30.0]) | st.floats(0.0, 60.0),
                           min_size=1, max_size=3))
    distances = draw(st.lists(st.floats(0.02, 1.0), min_size=1, max_size=3))
    return "\n".join([
        f"radius_m = {draw(st.floats(1.0, 4.0)) * wavelength!r}",
        "carrier_frequency_hz = 300e9",
        "bandwidth_hz = 100e6",
        "transmit_power_w = 1e-3",
        f"alpha_deg = {', '.join(map(repr, alphas))}",
        f"distance_m = {', '.join(map(repr, distances))}",
        f"azimuth_step_deg = {draw(st.sampled_from([30, 45, 60, 90]))}",
        f"elevation_step_deg = {draw(st.sampled_from([30, 45, 90]))}",
    ]) + "\n"


def oracle_sweep_row(layout, grid, config, alpha, distance):
    """The full ``sweep.csv`` row of one placement, from the oracle's SNRs: quartiles by
    ``np.percentile`` and whiskers 1.5 IQR beyond them, clamped to the data extremes."""
    geom = ChannelGeometry(layout, rx_position(distance, alpha))
    snr = np.array([evaluate_snr(geom.channel_for(v), config.budget()) for v in grid])
    row = [math.degrees(alpha), distance, grid.shape[0]]
    for column in (2, 1):  # switched, then dual, as in STATS_COLUMNS
        improvement = 10.0 * np.log10(snr[:, 0] / snr[:, column])
        q1, median, q3 = np.percentile(improvement, [25.0, 50.0, 75.0])
        iqr = q3 - q1
        row += [median, q1, q3, max(q1 - 1.5 * iqr, improvement.min()),
                min(q3 + 1.5 * iqr, improvement.max())]
    return row + list(config.bandwidth * np.mean(np.log2(1.0 + snr), axis=0))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(small_run_configs())
def test_cli_rows_match_the_oracle_on_drawn_configs(text):
    # every row of fig5 and sweep, end to end through main, within the reference rule of
    # perfbench/rowcheck.py: 1e-9 relative or 1e-9 absolute
    config = parse_config_text(text)
    layout = build_circular_array(config.radius, config.wavelength)
    grid = orientation_grid(config.azimuth_step, config.elevation_step)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(text)
        for scenario in ("fig5", "sweep"):
            out = Path(tmp) / scenario
            assert main([scenario, "--config", str(path), "--out", str(out)]) == EXIT_OK
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["box_plot"] == {
                "quartiles": "linear interpolation",
                "whiskers": "1.5*IQR beyond the quartiles, clamped to data extremes",
            }
            header, rows = read_csv(out / f"{scenario}.csv")
            placements = scenario_placements(scenario, config)
            assert header == cli.PLACEMENT_COLUMNS[scenario] and len(rows) == len(placements)
            keep = [cli.SWEEP_COLUMNS.index(c) for c in header]
            for (alpha, distance), raw in zip(placements, rows):
                want = oracle_sweep_row(layout, grid, config, alpha, distance)
                for name, got, value in zip(header, map(float, raw), (want[i] for i in keep)):
                    assert abs(got - value) <= max(1e-9 * abs(value), 1e-9), name
