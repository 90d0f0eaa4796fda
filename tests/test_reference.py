"""The benchmark's correctness gate, run as part of the unit tests.

The rows ``perfbench/run.py`` checks on every benchmark run are checked here
too, with the benchmark's own reference values and row comparison
(``perfbench/reference.json`` and ``perfbench/rowcheck.check_table``, at
that module's 1e-9 tolerance), so a kernel that drifts fails here first.
The perfbench files are only read.
"""

import json
import sys
from pathlib import Path

from dpcfocus.cli import EXIT_OK, main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.append(str(PERFBENCH))

from rowcheck import REL_TOL, check_table, close  # noqa: E402
from workloads import make_workload  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


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
