"""Record the reference outputs the benchmark checks every run against.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/record_reference.py

It runs the CLI on the built-in defaults (fig5 at scale 1 for all seven
angles, sweep at scale 0.1, fig3 at scale 1; about three minutes on a
2-core host) and writes ``perfbench/reference.json``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from hostinfo import git_revision
from rowcheck import parse_row, read_table, scan_fig3

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work" / "reference"


def run_cli(scenario: str, scale: float) -> Path:
    out = WORK / scenario
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, "-m", "dpcfocus", scenario, "--out", str(out), "--scale", repr(scale)],
        check=True, env=env, cwd=ROOT,
    )
    return out / f"{scenario}.csv"


def n_tx(csv_path: Path) -> int:
    return json.loads((csv_path.parent / "manifest.json").read_text())["derived"]["n_tx"]


def table(path: Path) -> dict:
    header, raw = read_table(path)
    return {"n_tx": n_tx(path), "header": header, "rows": [parse_row(header, r) for r in raw]}


def main() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    fig3_csv = run_cli("fig3", 1.0)
    fig3_distances, fig3_sample = scan_fig3(fig3_csv)
    reference = {
        "revision": git_revision(ROOT),
        "fig5_scale1": table(run_cli("fig5", 1.0)),
        "sweep_scale0.1": table(run_cli("sweep", 0.1)),
        "fig3_scale1": {"n_tx": n_tx(fig3_csv), "distances": fig3_distances,
                        "sample": fig3_sample},
    }
    shutil.rmtree(WORK)
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
