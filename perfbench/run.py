"""dpcfocus benchmark: CLI workloads timed end to end, plus a traced breakdown.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
Each CLI invocation runs in a fresh interpreter (``child.py``) through
``dpcfocus.cli.main`` and every output row is checked against
``reference.json``.

``--trace 0`` first starts ``SETUP_SAMPLES`` interpreters that stop at the end
of set-up, then repeats full invocations (at least one) for as long as a
typical invocation still ends within ``--seconds``, and reports the
end-to-end metrics as medians. ``--trace 1`` runs
one untraced and one traced invocation and reports the per-layer metrics.
The last line of stdout is the result object; the line before it holds the
per-sample details and host facts.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from hostinfo import copy_bandwidth, host_facts, llc_bytes
from rowcheck import Tally, all_failed, check_fig3, check_table, close
from workloads import NAMES, Workload, make_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
CHILD = HERE / "child.py"
SETUP_SAMPLES = 9
RUN_DEADLINE_S = 170.0
"Every run ends within this many seconds of its start, child processes included."

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("antenna_orientations_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("ops_ok_frac", "ratio"),
)

MODULES = ("geometry", "channel", "beamforming", "experiments", "cli")
PER_LAYER = (
    ("geometry.build_circular_array.s", "s"),
    ("geometry.orientation_grid.s", "s"),
    ("geometry.n_tx", "count"),
    ("geometry.orientations", "count"),
    ("channel.ChannelGeometry.s", "s"),
    ("channel.ChannelGeometry.calls", "count"),
    ("channel.channel_for.s", "s"),
    ("channel.channel_for.calls", "count"),
    ("channel.channel_for.us_per_call", "us"),
    ("channel.bytes_per_call_computed", "B"),
    ("channel.gb_per_s_computed", "GB/s"),
    ("beamforming.evaluate_snr.s", "s"),
    ("beamforming.evaluate_snr.calls", "count"),
    ("beamforming.evaluate_snr.us_per_call", "us"),
    ("beamforming.gb_per_s_computed", "GB/s"),
    ("beamforming.dpc_beamformer.s", "s"),
    ("beamforming.polarization_angle_map.s", "s"),
    ("experiments.orientation_sweep.s", "s"),
    ("experiments.orientation_sweep.calls", "count"),
    ("experiments.orientation_sweep.self_s", "s"),
    ("experiments.orientation_sweep.p50_s", "s"),
    ("experiments.orientation_sweep.p85_s", "s"),
    ("experiments.distance_sweep.s", "s"),
    ("experiments.improvement_stats.s", "s"),
    ("experiments.ergodic_rate.s", "s"),
    ("experiments.records", "count"),
    ("experiments.evals_per_sample", "ratio"),
    ("cli.main.s", "s"),
    ("cli.csv_rows", "count"),
    ("cli.csv_bytes", "B"),
    ("cli.rows_per_s", "1/s"),
    *((f"{m}.busy_s", "s") for m in MODULES),
    *((f"{m}.self_s", "s") for m in MODULES),
    ("host.copy_gb_per_s", "GB/s"),
    ("trace.overhead_s", "s"),
    ("trace.cost_s_computed", "s"),
)


def stamp() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Invocation:
    "One child interpreter: its report (None on failure) and the checked rows."

    report: dict | None
    t_spawn: float
    wall_s: float
    tally: Tally
    outputs: dict

    @property
    def ok(self) -> bool:
        return self.report is not None

    @property
    def setup_s(self) -> float:
        return self.report["t_setup_end"] - self.t_spawn

    @property
    def run_s(self) -> float:
        return self.report["t_end"] - self.report["t_setup_end"]


class Bench:
    def __init__(self, workload: Workload, reference: dict, deadline: float, work: Path,
                 child: Path = CHILD):
        self.wl = workload
        self.reference = reference
        self.deadline = deadline
        self.child = child
        self.work = work
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config = self.work / "run.cfg"
        self.config.write_text(workload.config_text())

    def expected(self) -> tuple[list, list, list]:
        "Reference header, expected rows and key columns of a table workload."
        wl = self.wl
        if wl.scenario == "fig5":
            table = self.reference["fig5_scale1"]
            rows = [r for r in table["rows"] if any(close(r[0], a) for a in wl.alphas_deg)]
            return table["header"], rows, ["alpha_deg"]
        table = self.reference["sweep_scale0.1"]
        return table["header"], table["rows"], ["alpha_deg", "distance_m"]

    def expected_rows(self) -> int:
        if self.wl.scenario == "fig3":
            return sum(d["rows"] for d in self.reference["fig3_scale1"]["distances"])
        return len(self.expected()[1])

    def n_tx(self) -> int:
        key = {"fig3": "fig3_scale1", "fig5": "fig5_scale1", "sweep": "sweep_scale0.1"}
        return self.reference[key[self.wl.scenario]]["n_tx"]

    def check(self, out_dir: Path) -> tuple[Tally, dict]:
        "Checked rows of an invocation that exited 0, and facts about its output files."
        csv_path = out_dir / f"{self.wl.scenario}.csv"
        try:
            manifest = json.loads((out_dir / "manifest.json").read_text())
            csv_bytes = csv_path.stat().st_size
        except (OSError, ValueError):
            return all_failed(self.expected_rows()), {}
        if self.wl.scenario == "fig3":
            tally = check_fig3(csv_path, self.reference["fig3_scale1"])
        else:
            tally = check_table(csv_path, *self.expected())
        with open(csv_path, "rb") as handle:
            csv_rows = sum(1 for _ in handle) - 1
        return tally, {"manifest": manifest, "csv_bytes": csv_bytes, "csv_rows": csv_rows}

    def spawn(self, mode: str) -> Invocation:
        "Run one child to completion (or to the run's deadline) and check its outputs."
        out_dir = self.work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        result = self.work / f"{mode}.json"
        result.unlink(missing_ok=True)
        cmd = [sys.executable, str(self.child), "--mode", mode, "--result", str(result),
               "--", *self.wl.argv(self.config, out_dir)]
        t_spawn = stamp()
        try:
            if t_spawn >= self.deadline:
                raise subprocess.TimeoutExpired(cmd, 0.0)
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=self.deadline - t_spawn)
            failure = f"exit code {proc.returncode}" if proc.returncode else ""
            stderr = proc.stderr
        except subprocess.TimeoutExpired as exc:
            failure, stderr = "out of time", exc.stderr or ""
        wall_s = stamp() - t_spawn
        report = None
        if not failure:
            try:
                report = json.loads(result.read_text())
            except (OSError, ValueError) as exc:
                failure = f"no report: {exc}"
        if failure:
            tail = "\n".join(str(stderr).splitlines()[-5:])
            print(f"perfbench: {mode} invocation failed ({failure})\n{tail}", file=sys.stderr)
        if mode == "setup":
            tally, outputs = Tally(), {}
        elif report is None:
            tally, outputs = all_failed(self.expected_rows()), {}
        else:
            tally, outputs = self.check(out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        return Invocation(report, t_spawn, wall_s, tally, outputs)

    def work_per_run(self) -> int:
        wl = self.wl
        return self.n_tx() * wl.orientations_per_placement * wl.placements


def quartiles(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"n": len(values), "median": med, "q1": q1, "q3": q3, "values": values}


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, list[Invocation]]:
    setups = [bench.spawn("setup") for _ in range(SETUP_SAMPLES)]
    runs = []
    t_measure = stamp()
    while True:
        runs.append(bench.spawn("run"))
        # start another invocation only if a typical one still ends in time
        end = stamp() + statistics.median(r.wall_s for r in runs)
        if end - t_measure > seconds or end > bench.deadline:
            break
    good = [r for r in runs if r.ok]
    attempted = sum(r.tally.attempted for r in runs)
    failed = sum(r.tally.failed for r in runs)
    samples = {
        "setup_s": [i.setup_s for i in setups + runs if i.ok],
        "run_s": [r.run_s for r in good],
        "cpu_s": [r.report["cpu_s"] for r in good],
        "antenna_orientations_per_s": [bench.work_per_run() / r.run_s for r in good],
        "peak_rss_mb": [r.report["maxrss_kb"] / 1024.0 for r in good],
        "ops_ok_frac": [(attempted - failed) / attempted],
    }
    return samples, setups + runs


def per_layer(bench: Bench, plain: Invocation, traced: Invocation, copy: dict) -> dict:
    trace = traced.report["trace"]
    functions, modules = trace["functions"], trace["modules"]

    def fn(name: str, stat: str) -> float:
        return functions.get(name, {}).get(stat, 0)

    def rate(nbytes: float, name: str) -> float:
        seconds = fn(name, "s")
        return nbytes * fn(name, "calls") / seconds / 1e9 if seconds else 0.0

    probes = trace["probes"]
    channel_bytes = probes.get("channel.channel_for", {}).get("bytes", 0)
    snr_bytes = probes.get("beamforming.evaluate_snr", {}).get("bytes", 0)
    derived = traced.outputs.get("manifest", {}).get("derived", {})
    cli_self = modules.get("cli", {}).get("self_s", 0.0)
    csv_rows = traced.outputs.get("csv_rows", 0)
    samples = bench.wl.placements * bench.wl.orientations_per_placement
    metrics = {
        "geometry.n_tx": derived.get("n_tx", 0),
        "geometry.orientations": derived.get("orientation_count", 0),
        "channel.bytes_per_call_computed": channel_bytes,
        "channel.gb_per_s_computed": rate(channel_bytes, "channel.channel_for"),
        "beamforming.gb_per_s_computed": rate(snr_bytes, "beamforming.evaluate_snr"),
        "experiments.records": trace["counters"].get("experiments.records", 0),
        "experiments.evals_per_sample": fn("channel.channel_for", "calls") / samples,
        "cli.csv_rows": csv_rows,
        "cli.csv_bytes": traced.outputs.get("csv_bytes", 0),
        "cli.rows_per_s": csv_rows / cli_self if cli_self else 0.0,
        "host.copy_gb_per_s": copy["gb_per_s"],
        "trace.overhead_s": traced.run_s - plain.run_s,
        "trace.cost_s_computed": trace["cost_s"],
    }
    for name, _unit in PER_LAYER:
        if name in metrics:
            continue
        head, stat = name.rsplit(".", 1)
        if head in MODULES:
            metrics[name] = modules.get(head, {}).get(stat, 0.0)
        else:
            metrics[name] = fn(head, stat)
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description="dpcfocus benchmark")
    parser.add_argument("--workload", choices=NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t_start = stamp()
    if not (ROOT / "src" / "dpcfocus" / "cli.py").is_file():
        print(f"perfbench: no dpcfocus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    bench = Bench(make_workload(args.workload, args.seed), reference,
                  t_start + RUN_DEADLINE_S, WORK / args.workload)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "config": bench.wl.config_text(), "host": host_facts(ROOT)}
    if args.trace:
        invocations = [bench.spawn("run"), bench.spawn("trace")]
        plain, traced = invocations
        if plain.ok and traced.ok:
            copy = copy_bandwidth(llc_bytes())
            values = per_layer(bench, plain, traced, copy)
            detail["copy_bandwidth"] = copy
            detail["absent"] = traced.report["absent"]
        else:
            values = {name: 0.0 for name, _ in PER_LAYER}
        units = PER_LAYER
    else:
        samples, invocations = end_to_end(bench, args.seconds)
        detail["samples"] = {k: quartiles(v) for k, v in samples.items() if v}
        values = {k: statistics.median(v) if v else 0.0 for k, v in samples.items()}
        units = END_TO_END
    reports = [i.report for i in invocations if i.ok]
    if reports:
        detail["child"] = {"blas": reports[0]["blas"],
                           "allocator_tuned": reports[0]["allocator_tuned"]}
    attempted = sum(i.tally.attempted for i in invocations)
    failed = sum(i.tally.failed for i in invocations)
    result = {
        "correct": failed == 0 and all(i.ok for i in invocations),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    detail["wall_s"] = stamp() - t_start
    (bench.work / f"detail_trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
