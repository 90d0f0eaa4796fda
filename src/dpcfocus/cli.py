"""Command-line front end: named scenario runs, CSV results, run manifest.

Scenarios
---------
fig3   polarization-angle map across the array at two RX distances
fig5   improvement statistics versus the RX angle at a fixed 10 cm range
fig6   improvement statistics versus the RX distance at a 30 degree angle
fig7   ergodic achievable rates versus the RX distance
sweep  improvement statistics and rates over the full angle x distance grid
check  narrowband-validity table over the configured distances

Each run writes one ``<scenario>.csv`` plus a ``manifest.json`` that echoes
the resolved configuration and derived quantities. CSV bodies are
deterministic: rerunning a scenario with the same configuration reproduces
them byte for byte (timestamps live only in the manifest). Every output
replaces its older copy whole, or not at all (``_replaced``).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import resource
import sys
import time
from array import array
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .beamforming import (
    KernelBuildError,
    _address,
    _tile_kernel,
    available_cpus,
    fold_placements,
    folded_snrs,
    kernel_workers,
    link_factor,
    polarization_angles,
)
from .experiments import (
    NARROWBAND_MARGIN,
    REFUSALS,
    SweepConfig,
    narrowband_check,
)
from .geometry import (
    ArrayLayout,
    _even_divisions,
    build_circular_array,
    orientation_classes,
    orientation_grid,
    rx_position,
)

EXIT_OK = 0
EXIT_CONFIG_ERROR = 3
EXIT_OUTPUT_ERROR = 4
EXIT_BUILD_ERROR = 5

FIG3_DISTANCES_M = (0.15, 1.0)
FIG3_ALPHA = math.radians(30.0)
FIG5_DISTANCE_M = 0.10
FIG6_ALPHA = math.radians(30.0)

CONFIG_KEYS = {
    "radius_m": "radius",
    "carrier_frequency_hz": "carrier_frequency",
    "bandwidth_hz": "bandwidth",
    "transmit_power_w": "transmit_power",
    "noise_power_w": "noise_power",
    "alpha_deg": "alpha_values",
    "distance_m": "distance_values",
    "azimuth_step_deg": "azimuth_step",
    "elevation_step_deg": "elevation_step",
}
"""Each config file key and the ``SweepConfig`` field it sets, in the order of
the manifest's echo. A key ending in ``_deg`` holds degrees, its field radians."""
LIST_KEYS = ("alpha_deg", "distance_m")
OPTIONAL_KEYS = ("noise_power_w",)
REQUIRED_KEYS = tuple(key for key in CONFIG_KEYS if key not in OPTIONAL_KEYS)
MANIFEST = "manifest.json"
ROW_BYTES = 256
"""Bytes ``plan_run`` charges per lattice row for the row table and its build: the
coordinate's float, its int offsets, their tuple entries and the table's bytes."""
DIRECTION_BYTES = 1024
"""Bytes ``plan_run`` charges per direction of the orientation grid: its rows, and the
lists, forms and class maps ``orientation_classes`` works them out with."""

class ConfigError(ValueError):
    "Raised when a run configuration file is missing, malformed or invalid."


def parse_config_text(text: str) -> SweepConfig:
    """Parse the flat ``key = value`` configuration format.

    Lines starting with ``#`` and blank lines are ignored. List values are
    comma separated. Angles are degrees at this interface and radians
    internally; lengths are meters, frequencies Hz, powers watts.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        raw[key] = value
    missing = [k for k in REQUIRED_KEYS if k not in raw]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    def value(key: str):
        listed = key in LIST_KEYS
        try:
            numbers = [float(part) for part in (raw[key].split(",") if listed else [raw[key]])]
        except ValueError:
            kind = "a comma-separated list" if listed else "a number"
            raise ConfigError(f"key {key!r}: {raw[key]!r} is not {kind}") from None
        numbers = [math.radians(x) for x in numbers] if key.endswith("_deg") else numbers
        return tuple(numbers) if listed else numbers[0]

    # the optional key is converted first, so its error is the one reported
    fields = {CONFIG_KEYS[key]: value(key) for key in OPTIONAL_KEYS + REQUIRED_KEYS if key in raw}
    try:
        return SweepConfig(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> SweepConfig:
    "Read and validate a UTF-8 configuration file, with or without a byte-order mark."
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text)


def _deg(angle_rad: float) -> float:
    # stabilize the radians->degrees round trip at far-below-physical precision
    return round(math.degrees(angle_rad), 12)


def config_to_mapping(config: SweepConfig) -> dict:
    "Config echo in file units; feeding it back to the parser is equivalent."
    mapping = {}
    for key, name in CONFIG_KEYS.items():
        unit = _deg if key.endswith("_deg") else float
        value = getattr(config, name)
        mapping[key] = [unit(x) for x in value] if key in LIST_KEYS else unit(value)
    return mapping


def _fmt(value) -> str:
    "A CSV cell of a row's float, int or bool; a bool is written as 0 or 1."
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("refusing to write a non-finite value to CSV")
        return repr(value)
    return str(int(value))


@contextmanager
def _replaced(path: Path):
    """A text handle on a file beside ``path`` that replaces it once closed, or is
    removed if anything fails. An older manifest goes before any output replaces
    its older copy, so no manifest ever describes outputs of another run."""
    partial = path.with_name(f".{path.name}.{os.getpid()}.partial")
    try:
        with open(partial, "w", newline="") as handle:
            yield handle
        (path.parent / MANIFEST).unlink(missing_ok=True)
        os.replace(partial, path)
    finally:  # a no-op once the file is in place
        partial.unlink(missing_ok=True)


def _write_csv(path: Path, header: list[str], rows) -> None:
    # rows, any iterable of them, are formatted as they are written: a value _fmt refuses,
    # or any error that ends the rows early, removes the partial file
    with _replaced(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


STATS_COLUMNS = [
    f"{baseline}_{stat}_db"
    for baseline in ("switched", "dual")
    for stat in ("median", "lower_quartile", "upper_quartile", "lower_whisker", "upper_whisker")
]
RATE_COLUMNS = ["rate_dpc_bps", "rate_dual_bps", "rate_switched_bps"]
SWEEP_COLUMNS = ["alpha_deg", "distance_m", "sample_count"] + STATS_COLUMNS + RATE_COLUMNS
PLACEMENT_COLUMNS = {
    "fig5": ["alpha_deg", "sample_count"] + STATS_COLUMNS,
    "fig6": ["distance_m", "sample_count"] + STATS_COLUMNS,
    "fig7": ["distance_m", "sample_count"] + RATE_COLUMNS,
    "sweep": SWEEP_COLUMNS,
}
"The CSV columns of each scenario whose placements run the SNR kernel."


def scenario_placements(name: str, config) -> list[tuple[float, float]]:
    "The (alpha, distance) RX placements scenario ``name`` evaluates, in order."
    if name == "fig3":
        return [(FIG3_ALPHA, d) for d in FIG3_DISTANCES_M]
    if name == "fig5":
        return [(alpha, FIG5_DISTANCE_M) for alpha in config.alpha_values]
    if name in ("fig6", "fig7"):
        return [(FIG6_ALPHA, d) for d in config.distance_values]
    if name == "sweep":
        return [(alpha, d) for alpha in config.alpha_values for d in config.distance_values]
    return []


def run_fig3(plan: RunPlan, out_dir: Path) -> list[Path]:
    """Write ``fig3.csv``: one row per antenna and distance.

    The maps of both distances, each a float64 array of angles in degrees,
    are worked out before the per-antenna text. Each antenna's ``index,x,y,``
    text is built once from the layout's rows, with every coordinate
    formatted once, and serves both distances; rows are then written one
    lattice run at a time, formatted as ``_write_csv`` formats them, and
    never held all at once.
    An antenna's two channel entries share one complex factor, so its DPC
    weights are in phase or opposed and the ``nonlinear`` column is 0.
    """
    header = ["distance_m", "antenna_index", "x_m", "y_m", "pol_angle_deg", "nonlinear"]
    maps = [(d, polarization_angles(plan.layout, rx_position(d, alpha)))
            for alpha, d in plan.placements]
    # lattice positions are finite by construction, and so is every angle: with r0 <= r,
    # a_x and a_y lie in [-1, 1], so atan2 never sees an inf
    rows = plan.layout.rows
    xs = [repr(x) for x in rows.x_table]
    firsts = rows.first_antenna
    prefixes = []
    for y, x0, a0, a1 in zip(map(repr, rows.y), rows.first_x, firsts, firsts[1:]):
        prefixes.extend(f"{a},{x},{y}," for a, x in zip(range(a0, a1), xs[x0:x0 + a1 - a0]))
    path = out_dir / "fig3.csv"
    with _replaced(path) as handle:
        handle.write(",".join(header) + "\n")
        for d, angles_deg in maps:
            lead = _fmt(d)
            for a0, a1 in zip(firsts, firsts[1:]):
                angles = angles_deg[a0:a1].tolist()
                handle.write("".join([f"{lead},{prefix}{angle!r},0\n"
                                      for prefix, angle in zip(prefixes[a0:a1], angles)]))
    return [path]


def run_placements(plan: RunPlan, out_dir: Path) -> list[Path]:
    """Write ``<scenario>.csv``: one row per placement of the plan, from its kernel folds.

    Each row is the placement's full ``sweep.csv`` row (``SWEEP_COLUMNS``)
    cut down to the scenario's ``PLACEMENT_COLUMNS``. One call of the
    compiled ``placement_row`` per placement forms its statistics from the
    kernel's budget-free gains and its rates from those gains under the
    link budget (``link_factor``), both from one row per direction class,
    weighted by its members: the numbers of ``improvement_stats`` and
    ``ergodic_rate``, bit for bit. Each row is formatted and written as its
    placement's gains arrive, while the kernel works on the next ones.
    """
    config, layout = plan.config, plan.layout
    columns = PLACEMENT_COLUMNS[plan.scenario]
    keep = [SWEEP_COLUMNS.index(c) for c in columns]
    budget = config.budget()
    kernel = _tile_kernel()
    m = max(len(fold.directions) for _, _, fold in plan.kernel)
    work, out = array("d", bytes(32 * m)), array("d", bytes(8 * 13))

    def rows():
        sweeps = folded_snrs(layout, plan.kernel)
        for (alpha, d), (_, r0, fold), gains in zip(plan.placements, plan.kernel, sweeps,
                                                    strict=True):
            link = link_factor(budget, layout.wavelength, r0)
            # gains.obj: the float64 array under the yielded (m, 3) view
            code = kernel.placement_row(_address(gains.obj), len(gains), _address(fold.counts),
                                        link, config.bandwidth, _address(work), _address(out))
            if code:  # a gain that underflows to 0 has no dB improvement
                raise ValueError(f"distance {d!r} m at alpha {_deg(alpha)!r} deg: "
                                 f"{REFUSALS[code]}")
            row = (_deg(alpha), d, len(fold.inverse), *out)
            yield [row[i] for i in keep]

    path = out_dir / f"{plan.scenario}.csv"
    _write_csv(path, columns, rows())
    return [path]


def run_check(plan: RunPlan, out_dir: Path) -> list[Path]:
    config = plan.config
    header = [
        "distance_m",
        "radius_m",
        "bandwidth_hz",
        "delay_spread_s",
        "max_delay_spread_s",
        "narrowband_valid",
    ]
    rows = []
    for d in config.distance_values:
        delay, valid = narrowband_check(d, config.radius, config.bandwidth)
        rows.append((d, config.radius, config.bandwidth,
                     delay, NARROWBAND_MARGIN / config.bandwidth, valid))
    path = out_dir / "check.csv"
    _write_csv(path, header, rows)
    return [path]


SCENARIOS = {"fig3": run_fig3, **dict.fromkeys(PLACEMENT_COLUMNS, run_placements),
             "check": run_check}


class RunPlan(NamedTuple):
    """What ``plan_run`` works out for a run, once, before any output is written.

    ``kernel`` holds the ``fold_placements`` on ``layout`` of the placements the
    SNR kernel runs, none for fig3 and check; ``orientation_classes`` counts
    the classes of a placement on the xz plane off the z axis;
    ``kernel_workers`` is ``beamforming.kernel_workers`` of it. ``notes`` holds
    the warning of each kernel placement that fails ``narrowband_check``,
    each distinct text once, in placement order.
    """

    config: SweepConfig
    scenario: str
    placements: tuple
    layout: ArrayLayout
    grid: memoryview
    kernel: tuple
    orientation_classes: int
    kernel_workers: int
    estimated_bytes: float
    notes: tuple


def plan_run(config: SweepConfig, scenario: str) -> RunPlan:
    """The ``RunPlan`` of ``scenario`` under ``config``, or ``ConfigError``.

    Refuses fig6 and fig7 distances that do not ascend strictly, a lattice
    bound n = (2 R / pitch + 1)^2 whose float64 positions would exceed
    physical memory, a run whose estimated peak memory exceeds it, and a
    kernel placement whose rate bound is not finite. No run builds the
    positions, but their bound caps the lattice: its build tests every point
    of the bounding square and the kernel visits every antenna, so a larger
    lattice would not end in useful time. The lattice is built once the
    charge without the kernel fits. Sizes are taken in float arithmetic, so
    that an absurd configuration gives a huge or infinite estimate, never an
    overflow. The charge is the lattice's row table with what builds it
    (``ROW_BYTES`` per lattice row) and the orientation grid with its folds
    (``DIRECTION_BYTES`` per direction), held throughout, plus the larger of
    these phases:

    * fig3: every distance's map (a float64 angle per lattice point) and
      beside them what writes them: each antenna's ``index,x,y,`` text and
      one write's rows, one lattice run of at most 2 R / pitch + 1 antennas;
    * the sweep kernel: each of its workers holds at most three blocks'
      column sums (two in flight per worker, one being added by the
      caller), each 3 m float64 for m directions; the compiled loop builds
      each antenna's position and geometry on its own stack.

    Every TX element lies on z = 0, so |rx_z| = d cos(alpha) bounds each
    TX-RX distance from below: P/N * n * (lambda / (4 pi d cos alpha))^2
    bounds the SNRs of a placement, and B log2(1 + that bound) its rates.

    Once every refusal has passed, every scenario but check loads the SNR
    kernel, building it first if it is not built, so that the build is part
    of a run's set-up; ``KernelBuildError`` if it cannot be built.
    """
    if scenario in ("fig6", "fig7"):
        d = config.distance_values
        if any(b <= a for a, b in zip(d, d[1:])):
            raise ConfigError(f"{scenario} needs distance_m strictly ascending")
    placements = tuple(scenario_placements(scenario, config))
    side = 2.0 * (config.radius / (config.wavelength / 2.0)) + 1.0
    points = side * side
    _refuse_beyond_memory(points * 3 * 8, f"a lattice bound of {points:.3g} antennas would take "
                                          "as float64 positions")
    n_az = _even_divisions(2.0 * math.pi, config.azimuth_step, "azimuth_step")
    n_el = _even_divisions(math.pi, config.elevation_step, "elevation_step")
    grid_bytes = float(n_az) * n_el * DIRECTION_BYTES
    table = side * ROW_BYTES
    phase = 0.0
    if scenario == "fig3":
        # the writer holds each antenna's text, a str of at most 19 + 2 * 24 + 3 characters
        # beside a 49-byte header and its list entry, and per row of a write (one lattice
        # run, at most `side` rows) an angle (a float and its list entry) and a line of at
        # most 24 + 1 + text + 24 + 3 characters, in join's list and joined
        text = 19 + 2 * 24 + 3
        line = 24 + 1 + text + 24 + 3
        writer = points * (8 + 49 + text) + side * (8 + 24 + 8 + 49 + 2 * line)
        phase = points * 8 * len(FIG3_DISTANCES_M) + writer
    _refuse_beyond_memory(table + phase + grid_bytes)
    layout = build_circular_array(config.radius, config.wavelength)

    grid = orientation_grid(config.azimuth_step, config.elevation_step)
    kernel_run = scenario in PLACEMENT_COLUMNS
    rx_centers = [rx_position(d, alpha) for alpha, d in placements] if kernel_run else []
    root = math.sqrt(config.transmit_power / config.noise_power)
    notes = {}  # each warning text once, in first-seen order
    # ahead of fold_placements, whose refusal of an RX on the array plane names no placement
    for (alpha, d), rx in zip(placements, rx_centers):
        near = abs(rx[2])
        amp = root * (config.wavelength / (4.0 * math.pi * near)) if near > 0.0 else math.inf
        rate = config.bandwidth * math.log1p(amp * amp * layout.n_tx) / math.log(2.0)
        if not math.isfinite(rate):
            raise ConfigError(
                f"distance {d!r} m at alpha {_deg(alpha)!r} deg: the rate bound "
                "B * log2(1 + P/N * n * (lambda / (4 pi d cos alpha))^2) overflows"
            )
        delay, ok = narrowband_check(d, config.radius, config.bandwidth)
        if not ok:
            notes.setdefault(f"RuntimeWarning: delay spread {delay:.3e} s is not small against "
                             f"the symbol time {1.0 / config.bandwidth:.3e} s; narrowband results "
                             "are questionable")
    kernel = tuple(fold_placements(layout, rx_centers, grid))
    workers = kernel_workers(layout.n_tx, kernel)
    kernel_bytes = workers * float(3 * 3 * 8 * len(grid))
    need = table + max(phase, kernel_bytes) + grid_bytes
    _refuse_beyond_memory(need)
    # every RX sits on the xz plane: an off-axis one has the mirror fold the count reads
    mirrored = [fold.directions for rx, _, fold in kernel if rx[0] != 0.0]
    classes = len(mirrored[0] if mirrored else orientation_classes(grid, mirror=True)[0])
    if scenario == "fig3" or kernel_run:
        _tile_kernel()
    return RunPlan(config, scenario, placements, layout, grid, kernel, classes, workers, need,
                   tuple(notes))


def _refuse_beyond_memory(need: float, what: str = "the run needs an estimated") -> None:
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > physical:
        raise ConfigError(
            f"{what} {need:.3g} bytes, more than the {physical:.3g} bytes of physical memory"
        )


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("must be positive and finite")
    return value


class _Parser(argparse.ArgumentParser):
    "Usage errors end with one stderr line and exit code 2."

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dpcfocus",
        description="Near-field polarized link simulator: scenario runs and sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SCENARIOS:
        sp = sub.add_parser(name, help=f"run the {name} scenario")
        sp.add_argument("--config", default=None, help="path to a key=value config file")
        sp.add_argument("--out", default="out", help="output directory (default: ./out)")
        sp.add_argument(
            "--scale", type=_positive_float, default=1.0,
            help="multiply the array radius by this factor for reduced-size runs",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else SweepConfig()
        if args.scale != 1.0:
            config = config.scaled(args.scale)
        plan = plan_run(config, args.command)
    except ValueError as exc:
        print(f"dpcfocus: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except KernelBuildError as exc:
        print(f"dpcfocus: cannot build the SNR kernel: {exc}", file=sys.stderr)
        return EXIT_BUILD_ERROR

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write-probe"
        probe.touch()
        probe.unlink(missing_ok=True)  # a concurrent run sharing the directory may remove it first
    except OSError as exc:
        print(f"dpcfocus: cannot write to output directory {out_dir}: {exc}", file=sys.stderr)
        return EXIT_OUTPUT_ERROR

    started = time.perf_counter()
    try:
        outputs = SCENARIOS[args.command](plan, out_dir)
    except ValueError as exc:  # a value the plan admits but float64 cannot carry through
        print(f"dpcfocus: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OSError as exc:  # the scenarios read no files: an output cannot be written
        return _output_error(exc)
    finally:  # the plan's notes, after any error line, whether or not the scenario finished
        for note in plan.notes:
            print(f"dpcfocus: warning: {note}", file=sys.stderr)
    elapsed = time.perf_counter() - started

    # ru_maxrss is in KiB on Linux and in bytes on macOS
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_rss *= 1 if sys.platform == "darwin" else 1024
    evaluated = sum(len(fold.directions) for _, _, fold in plan.kernel)
    manifest = {
        "tool": "dpcfocus",
        "tool_version": __version__,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "scenario": args.command,
        "scale": args.scale,
        "runtime_s": elapsed,
        "config": config_to_mapping(config),
        "derived": {
            "n_tx": plan.layout.n_tx,
            "placements": len(plan.placements),
            "wavelength_m": config.wavelength,
            "noise_power_w": config.noise_power,
            "orientation_count": len(plan.grid),
            "orientation_classes": plan.orientation_classes,
            "directions_evaluated": evaluated,
            # the kernel's work: runtime_s / antenna_direction_pairs bounds the time per pair
            "antenna_direction_pairs": plan.layout.n_tx * evaluated,
        },
        "host": {
            "cpus": available_cpus(),
            "kernel_workers": plan.kernel_workers,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
        "peak_rss_bytes": peak_rss,
        "box_plot": {
            "quartiles": "linear interpolation",
            "whiskers": "1.5*IQR beyond the quartiles, clamped to data extremes",
        },
        "outputs": [p.name for p in outputs],
        "warnings": list(plan.notes),
    }
    try:
        with _replaced(out_dir / MANIFEST) as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        return _output_error(exc)
    return EXIT_OK


def _output_error(exc: OSError) -> int:
    print(f"dpcfocus: cannot write output: {exc}", file=sys.stderr)
    return EXIT_OUTPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
