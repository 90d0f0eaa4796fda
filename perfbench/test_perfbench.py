"""Self-tests of the benchmark's own arithmetic and accounting.

    python3 -m pytest -q perfbench
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from rowcheck import (  # noqa: E402
    FIG3_HEADER,
    FIG3_SAMPLE_STRIDE,
    Tally,
    all_failed,
    check_fig3,
    check_table,
    close,
    row_matches,
    scan_fig3,
)
from run import END_TO_END, PER_LAYER, Bench, end_to_end, stamp  # noqa: E402
from spans import Tracer, summarize  # noqa: E402
from workloads import NAMES, make_workload  # noqa: E402

S = 10**9  # ns per second


def test_self_time_on_a_synthetic_span_tree():
    names = ["cli.main", "cli.run_sweep", "experiments.orientation_sweep",
             "channel.channel_for", "beamforming.evaluate_snr"]
    spans = [
        [0, -1, 0 * S, 100 * S],  # cli.main
        [1, 0, 10 * S, 90 * S],  # cli.run_sweep
        [2, 1, 20 * S, 80 * S],  # orientation_sweep
        [3, 2, 25 * S, 35 * S],  # channel_for
        [4, 2, 40 * S, 50 * S],  # evaluate_snr
        [3, 2, 55 * S, 60 * S],  # channel_for
    ]
    out = summarize(names, spans)
    fns, mods = out["functions"], out["modules"]
    assert fns["cli.main"]["self_s"] == pytest.approx(20.0)
    assert fns["cli.run_sweep"]["self_s"] == pytest.approx(20.0)
    assert fns["experiments.orientation_sweep"]["self_s"] == pytest.approx(35.0)
    assert fns["channel.channel_for"]["s"] == pytest.approx(15.0)
    assert fns["channel.channel_for"]["calls"] == 2
    assert fns["channel.channel_for"]["us_per_call"] == pytest.approx(7.5e6)
    # nested spans of one module count once towards its busy time
    assert mods["cli"]["busy_s"] == pytest.approx(100.0)
    assert mods["cli"]["self_s"] == pytest.approx(40.0)
    assert mods["cli"]["calls"] == 2
    assert mods["experiments"]["busy_s"] == pytest.approx(60.0)
    # self times partition the root span
    assert sum(m["self_s"] for m in mods.values()) == pytest.approx(100.0)


def test_tracer_records_parents_probes_once_and_closes_spans_on_error():
    tracer = Tracer()
    probed = []

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_inner = tracer.wrap("channel.inner", inner,
                               probe=lambda args, result: probed.append(result) or {"n": result})
    traced_outer = tracer.wrap("cli.outer", lambda: [traced_inner(1), traced_inner(2)])
    traced_outer()
    with pytest.raises(ValueError):
        traced_inner(-1)
    parents = [s[1] for s in tracer.spans]
    assert parents == [-1, 0, 0, -1]
    assert all(s[3] >= s[2] for s in tracer.spans)
    assert tracer.probes == {"channel.inner": {"n": 1}} and probed == [1]
    counted = tracer.count("experiments.records", lambda: None)
    counted()
    counted()
    assert tracer.counters["experiments.records"] == 2


def test_tolerance_edges():
    assert close(1000.0 * (1 + 0.9e-9), 1000.0)
    assert not close(1000.0 * (1 + 1.1e-9), 1000.0)
    assert close(0.1e-9 + 0.9e-9, 0.1e-9)  # absolute floor near zero
    assert not close(1.1e-9, 0.0)
    assert not close(math.nan, 1.0)
    header = ["alpha_deg", "sample_count", "median_db"]
    assert row_matches(header, [30.0, 648, 1.0 + 1e-12], [30.0, 648, 1.0])
    assert not row_matches(header, [30.0, 647, 1.0], [30.0, 648, 1.0])


def write_csv(path, header, rows):
    path.write_text("\n".join(",".join(map(str, r)) for r in [header, *rows]) + "\n")


def test_check_table_counts_mismatched_missing_and_extra_rows(tmp_path):
    header = ["alpha_deg", "sample_count", "median_db"]
    expected = [[0.0, 648, 1.5], [10.0, 648, 2.5], [20.0, 648, 3.5]]
    path = tmp_path / "t.csv"
    write_csv(path, header, [[10.0, 648, 2.5], [0.0, 648, 1.5], [20.0, 648, 3.5]])
    assert check_table(path, header, expected, ["alpha_deg"]) == Tally(3, 0)
    write_csv(path, header, [[0.0, 648, 1.5], [10.0, 648, 2.6], [30.0, 648, 3.5]])
    assert check_table(path, header, expected, ["alpha_deg"]) == Tally(4, 3)
    write_csv(path, ["alpha_deg", "median_db"], [[0.0, 1.5]])
    assert check_table(path, header, expected, ["alpha_deg"]) == Tally(3, 3)
    assert check_table(tmp_path / "missing.csv", header, expected, ["alpha_deg"]) == Tally(3, 3)


def test_check_fig3_sample_and_statistics(tmp_path):
    rows = [[d, k, 0.001 * k, 0.0, 10.0 + k % 7, k % 2]
            for d in (0.15, 1.0) for k in range(3 * FIG3_SAMPLE_STRIDE)]
    path = tmp_path / "fig3.csv"
    write_csv(path, FIG3_HEADER, rows)
    distances, sample = scan_fig3(path)
    reference = {"distances": distances, "sample": sample}
    assert check_fig3(path, reference) == Tally(len(rows), 0)
    # one sampled row off by 1e-6 deg: only that row fails
    rows[FIG3_SAMPLE_STRIDE][4] += 1e-6
    write_csv(path, FIG3_HEADER, rows)
    assert check_fig3(path, reference) == Tally(len(rows), 1)
    # an unsampled row that moves the statistics fails its whole distance
    rows[1][4] += 1.0
    write_csv(path, FIG3_HEADER, rows)
    assert check_fig3(path, reference) == Tally(len(rows), len(rows) // 2)


FAILING_CHILD = """\
import sys
if "--mode" in sys.argv and sys.argv[sys.argv.index("--mode") + 1] == "setup":
    sys.exit(0)
raise RuntimeError("boom")
"""


def test_a_child_that_fails_fails_every_row_it_owed(tmp_path):
    child = tmp_path / "child.py"
    child.write_text(FAILING_CHILD)
    reference = {"sweep_scale0.1": {"n_tx": 1, "header": ["alpha_deg", "distance_m"],
                                    "rows": [[0.0, 0.1], [0.0, 0.2]]}}
    bench = Bench(make_workload("sweep_small", 1), reference, stamp() + 60.0, tmp_path / "w",
                  child)
    invocation = bench.spawn("run")
    assert not invocation.ok
    assert invocation.tally == all_failed(2)
    samples, invocations = end_to_end(bench, seconds=0.0)
    assert samples["run_s"] == [] and samples["ops_ok_frac"] == [0.0]
    assert sum(i.tally.failed for i in invocations) == 2
    bench.deadline = stamp() - 1.0  # out of time: nothing starts, every row fails
    assert bench.spawn("run").tally == all_failed(2)


def test_workloads_are_deterministic_in_the_seed():
    for name in NAMES:
        assert make_workload(name, 7) == make_workload(name, 7)
    assert make_workload("sweep_small", 1).placements == 70
    assert {make_workload("placement_full", s).alphas_deg for s in range(40)} == {
        (a,) for a in (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0)}


def test_benchmark_json_matches_the_driver_and_the_prediction_map():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(NAMES)
    predictions = json.loads((HERE / "predictions.json").read_text())
    end_names = {m["name"] for m in spec["end_to_end"]}
    assert set(predictions) == {m["name"] for m in spec["per_layer"]}
    for entry in predictions.values():
        assert set(entry["moves"]) <= end_names
        assert set(entry["workloads"]) <= set(NAMES)
