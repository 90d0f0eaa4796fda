"""The benchmark's correctness gate and the committed scenario outputs.

The rows ``perfbench/run.py`` checks on every benchmark run are checked here
too, with the benchmark's own reference values and row comparison
(``perfbench/reference.json`` and ``perfbench/rowcheck``, at that module's
1e-9 tolerance), so a kernel that drifts fails here first. The perfbench
files are only read. ``tests/reference`` holds whole CSVs of the other
scenarios, compared by the same rule.
"""

import csv
import json
import sys
from pathlib import Path

import pytest

from dpcfocus.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.append(str(PERFBENCH))

from rowcheck import (  # noqa: E402
    ABS_TOL,
    REL_TOL,
    check_fig3,
    check_table,
    close,
    parse_row,
    read_table,
    row_matches,
)
from workloads import make_workload  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())
CSV_REFERENCES = Path(__file__).resolve().parent / "reference"


def run_workload(workload, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(workload.config_text())
    out = tmp_path / "out"
    assert main(workload.argv(config, out)) == EXIT_OK
    return out / f"{workload.scenario}.csv", json.loads((out / "manifest.json").read_text())


def test_reference_tolerance_is_the_benchmarks():
    assert REL_TOL == 1e-9


def test_fig5_full_aperture_matches_the_reference(tmp_path):
    # one fig5 placement at scale 1, the benchmark's placement_full workload
    workload = make_workload("placement_full", 3)
    table = REFERENCE["fig5_scale1"]
    expected = [r for r in table["rows"] if close(r[0], workload.alphas_deg[0])]
    assert len(expected) == 1
    path, manifest = run_workload(workload, tmp_path)
    assert manifest["derived"]["n_tx"] == table["n_tx"]
    assert manifest["derived"]["placements"] == 1
    tally = check_table(path, table["header"], expected, ["alpha_deg"])
    assert (tally.attempted, tally.failed) == (1, 0)


def test_sweep_at_scale_one_tenth_matches_the_reference(tmp_path):
    workload = make_workload("sweep_small", 1)
    table = REFERENCE["sweep_scale0.1"]
    path, manifest = run_workload(workload, tmp_path)
    assert manifest["derived"]["n_tx"] == table["n_tx"]
    assert manifest["derived"]["placements"] == 70
    tally = check_table(path, table["header"], table["rows"], ["alpha_deg", "distance_m"])
    assert (tally.attempted, tally.failed) == (70, 0)


def test_fig3_at_full_size_matches_the_reference(tmp_path):
    # both distances' maps over the whole 283 177-antenna lattice
    workload = make_workload("fig3_map", 1)
    reference = REFERENCE["fig3_scale1"]
    path, manifest = run_workload(workload, tmp_path)
    assert manifest["derived"]["n_tx"] == reference["n_tx"]
    tally = check_fig3(path, reference)
    assert (tally.attempted, tally.failed) == (2 * reference["n_tx"], 0)


def cells_match(header, got, want) -> bool:
    """``rowcheck``'s rule, and each nonzero cell within its absolute floor to 1e-9 of itself.

    check.csv's delay columns, 1e-12 s to 1e-9 s, would otherwise pass
    whatever they held.
    """
    return row_matches(header, got, want) and all(
        abs(w) > ABS_TOL or w == 0.0 or close(g / w, 1.0) for g, w in zip(got, want)
    )


def assert_run_matches_committed_csv(tmp_path, scenario, scale):
    "Every cell of a default-config ``--scale`` run against ``tests/reference``."
    out = tmp_path / "out"
    assert main([scenario, "--scale", scale, "--out", str(out)]) == EXIT_OK
    header, rows = read_table(out / f"{scenario}.csv")
    want_header, want_rows = read_table(CSV_REFERENCES / f"{scenario}_scale{scale}.csv")
    assert header == want_header
    assert len(rows) == len(want_rows)
    for got, want in zip(rows, want_rows):
        got, want = parse_row(header, got), parse_row(header, want)
        assert cells_match(header, got, want), (got, want)


@pytest.mark.parametrize("scenario", ["fig5", "fig6", "fig7", "check"])
def test_a_scale_one_tenth_run_matches_its_committed_csv(tmp_path, scenario):
    """A reference CSV may be regenerated only in a change whose CHANGES.md
    entry says which cells moved and why."""
    assert_run_matches_committed_csv(tmp_path, scenario, "0.1")


@pytest.mark.parametrize("scenario", ["fig6", "fig7", "sweep"])
def test_a_full_size_run_matches_its_committed_csv(tmp_path, scenario):
    # 283 177 antennas; fig5 at full size is the reference.json row above
    assert_run_matches_committed_csv(tmp_path, scenario, "1")


def results_tables() -> list[list[list[str]]]:
    "Each table of README's Results, in order: the cells of its rows, below the header."
    section = README.read_text().split("## Results\n", 1)[1].split("\n## ", 1)[0]
    blocks = [block.splitlines() for block in section.split("\n\n") if block.startswith("|")]
    return [[[cell.strip() for cell in line.strip("|").split("|")] for line in block[2:]]
            for block in blocks]


def assert_printed(text: str, value: float, where) -> None:
    "``text`` is ``value`` rounded to the digits it prints."
    half_unit = 0.5 * 10.0 ** -len(text.partition(".")[2])
    assert abs(float(text) - value) <= half_unit, where


def test_the_readme_results_are_the_committed_sweep_at_the_printed_precision():
    # each table row: alpha, d, switched and dual median gains in dB, three rates in Gbit/s
    table = results_tables()[0]
    with open(CSV_REFERENCES / "sweep_scale1.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    sweep = {(float(r["alpha_deg"]), float(r["distance_m"])): r for r in rows}
    columns = [("switched_median_db", 1.0), ("dual_median_db", 1.0), ("rate_dpc_bps", 1e9),
               ("rate_dual_bps", 1e9), ("rate_switched_bps", 1e9)]
    assert len(table) == 14  # seven angles at 10 cm and at 1 m
    for alpha, distance, *printed in table:
        row = sweep[float(alpha), float(distance)]
        for text, (column, unit) in zip(printed, columns, strict=True):
            assert_printed(text, float(row[column]) / unit, (alpha, column))


def test_the_readme_fig3_table_is_the_full_size_map_at_the_printed_precision():
    # each table row: d, then the least, the greatest and the standard deviation of the
    # angles in degrees
    (table,) = results_tables()[1:]
    distances = REFERENCE["fig3_scale1"]["distances"]
    assert len(table) == len(distances)
    for (distance, *printed), want in zip(table, distances):
        assert float(distance) == want["distance_m"]
        for text, key in zip(printed, ("min", "max", "std"), strict=True):
            assert_printed(text, want[key], (distance, key))
