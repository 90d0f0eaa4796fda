"""The benchmark's workloads: which CLI scenario each runs, at what scale, on
which generated config.

The seed only shapes the config file the program is given; the program
itself never sees it. Every workload uses the built-in physical defaults
(15 cm aperture, 300 GHz, 10-degree orientation steps), so the reference
values in ``reference.json`` cover any seed.

``BENCHMARK.json`` lists ``placement_full`` and ``sweep_small`` only.
``fig3_map`` runs the same way by hand (``--workload fig3_map``): it is the
workload that bypasses the sweep kernel, so a sweep change should leave it
unchanged. It is out of the listed set because its pure-Python CSV path
showed run-to-run spreads of 10-24% on a shared 2-vCPU host, too close to
the largest bound a metric may have, and three workloads leave each run too
little time to average that out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ALPHAS_DEG = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0)
DISTANCES_M = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
ORIENTATIONS = 648
"Receive orientations on the default grid: 18 elevations x 36 azimuths."

FIXED_KEYS = (
    ("radius_m", 0.15),
    ("carrier_frequency_hz", 300e9),
    ("bandwidth_hz", 100e6),
    ("transmit_power_w", 1e-3),
    ("azimuth_step_deg", 10.0),
    ("elevation_step_deg", 10.0),
)

NAMES = ("placement_full", "sweep_small", "fig3_map")


@dataclass(frozen=True)
class Workload:
    """One generated CLI run.

    ``placements`` and ``orientations_per_placement`` describe the problem
    the scenario solves (not how the program chooses to solve it); they
    define ``antenna_orientations_per_s``.
    """

    name: str
    scenario: str
    scale: float
    alphas_deg: tuple
    distances_m: tuple
    placements: int
    orientations_per_placement: int

    def config_text(self) -> str:
        lines = [f"{key} = {value!r}" for key, value in FIXED_KEYS]
        lines.append("alpha_deg = " + ", ".join(repr(a) for a in self.alphas_deg))
        lines.append("distance_m = " + ", ".join(repr(d) for d in self.distances_m))
        return "\n".join(lines) + "\n"

    def argv(self, config_path, out_dir) -> list[str]:
        return [self.scenario, "--config", str(config_path), "--out", str(out_dir),
                "--scale", repr(self.scale)]


def make_workload(name: str, seed: int) -> Workload:
    "The workload ``name`` with its config drawn from ``seed``."
    rng = random.Random(seed)
    if name == "placement_full":
        # One fig5 placement at the paper's full size: 10 cm, one angle.
        alpha = rng.choice(ALPHAS_DEG)
        return Workload(name, "fig5", 1.0, (alpha,), DISTANCES_M, 1, ORIENTATIONS)
    if name == "sweep_small":
        # The full angle x distance grid at scale 0.1; the seed only shuffles
        # the order in which the placements run and appear in the CSV.
        alphas = list(ALPHAS_DEG)
        distances = list(DISTANCES_M)
        rng.shuffle(alphas)
        rng.shuffle(distances)
        return Workload(name, "sweep", 0.1, tuple(alphas), tuple(distances),
                        len(alphas) * len(distances), ORIENTATIONS)
    if name == "fig3_map":
        # fig3 reads only the aperture and carrier from the config: its two
        # distances and its angle are fixed, so every seed runs the same map.
        return Workload(name, "fig3", 1.0, ALPHAS_DEG, DISTANCES_M, 2, 1)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
