"""The benchmark's child process, run in each of its modes on a small config.

``perfbench/child.py`` runs ``cli.main`` in a fresh interpreter and wraps the
scenario functions, and in ``trace`` mode the library's public functions too. No
other unit test runs it, so a change that breaks those runs would otherwise show
only when the benchmark runs. The perfbench files are only run, never changed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from dpcfocus.cli import EXIT_OK, main
from test_cli import TINY_CONFIG

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


@pytest.mark.parametrize(
    "mode, scenario",
    [("setup", "fig5"), ("run", "fig5"), ("trace", "fig5"), ("trace", "sweep"), ("trace", "fig3")],
)
def test_the_benchmark_child_runs_the_cli(tmp_path, mode, scenario):
    config = tmp_path / "run.cfg"
    config.write_text(TINY_CONFIG)
    result = tmp_path / "result.json"
    out = tmp_path / "child"
    done = subprocess.run(
        [sys.executable, str(CHILD), "--mode", mode, "--result", str(result), "--",
         scenario, "--config", str(config), "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(result.read_text())
    assert report["exit_code"] == 0
    assert report["t_setup_end"] <= report["t_end"]
    if mode == "setup":
        # set-up ends as the scenario is entered, before it writes anything
        assert not (out / f"{scenario}.csv").exists()
        return
    plain = tmp_path / "plain"
    assert main([scenario, "--config", str(config), "--out", str(plain)]) == EXIT_OK
    csv = f"{scenario}.csv"
    assert (out / csv).read_bytes() == (plain / csv).read_bytes()
