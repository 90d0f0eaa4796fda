"""Checking CLI output rows against reference values recorded at the seed commit.

An operation is one checked output row. A row fails when a count column
differs at all, or when a dB, rate, angle or coordinate column differs by
more than the looser of ``REL_TOL`` relative and ``ABS_TOL`` absolute. A run
that produced no readable output fails every row it owed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-9
COUNT_COLUMNS = frozenset({"sample_count", "antenna_index", "nonlinear"})
FIG3_SAMPLE_STRIDE = 557
"fig3 rows whose antenna index is a multiple of this are compared one by one."


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed


def close(got: float, want: float) -> bool:
    "True when ``got`` is within the looser of the relative and absolute tolerance."
    return abs(got - want) <= max(REL_TOL * abs(want), ABS_TOL)


def parse_row(header, raw) -> list:
    "CSV strings to numbers: ints for count columns, floats otherwise."
    if len(raw) != len(header):
        raise ValueError(f"expected {len(header)} fields, got {len(raw)}")
    return [int(v) if h in COUNT_COLUMNS else float(v) for h, v in zip(header, raw)]


def row_matches(header, got, want) -> bool:
    "Compare parsed rows: counts exactly, everything else within tolerance."
    if len(got) != len(want):
        return False
    for h, g, w in zip(header, got, want):
        if h in COUNT_COLUMNS:
            if g != w:
                return False
        elif not close(g, w):
            return False
    return True


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise ValueError(f"{path} is empty")
    return rows[0], rows[1:]


def check_table(path: Path, header, expected, key_columns) -> Tally:
    """Match each expected row by its key columns and compare it.

    Missing rows, mismatched rows and rows with no expected counterpart all
    count as failed. An unreadable file or a different header fails every
    expected row.
    """
    tally = Tally(attempted=len(expected), failed=len(expected))
    try:
        got_header, raw_rows = read_table(path)
    except (OSError, ValueError, csv.Error):
        return tally
    if got_header != list(header):
        return tally
    keys = [header.index(k) for k in key_columns]
    got_rows = []
    for raw in raw_rows:
        try:
            got_rows.append(parse_row(header, raw))
        except ValueError:
            got_rows.append(None)
    unmatched = list(range(len(got_rows)))
    tally.failed = 0
    for want in expected:
        hit = next(
            (i for i in unmatched
             if got_rows[i] is not None and all(close(got_rows[i][k], want[k]) for k in keys)),
            None,
        )
        if hit is None:
            tally.failed += 1
            continue
        unmatched.remove(hit)
        if not row_matches(header, got_rows[hit], want):
            tally.failed += 1
    tally.attempted += len(unmatched)
    tally.failed += len(unmatched)
    return tally


FIG3_HEADER = ["distance_m", "antenna_index", "x_m", "y_m", "pol_angle_deg", "nonlinear"]


def scan_fig3(path: Path) -> tuple[list[dict], list[list]]:
    """Per-distance summaries of a fig3 CSV, plus its sampled rows.

    Each summary holds the distance, its row count, the count of nonlinear
    antennas and min/max/mean/std of ``pol_angle_deg``. Raises ValueError on
    a malformed file.
    """
    with open(path) as handle:
        if handle.readline().rstrip("\n").split(",") != FIG3_HEADER:
            raise ValueError("unexpected fig3 header")
        data = np.loadtxt(handle, delimiter=",", ndmin=2)
    if data.shape[1] != len(FIG3_HEADER) or np.any(data[:, [1, 5]] % 1 != 0):
        raise ValueError("malformed fig3 rows")
    summaries = []
    for distance in dict.fromkeys(data[:, 0].tolist()):
        rows = data[data[:, 0] == distance]
        angles = rows[:, 4]
        summaries.append({
            "distance_m": distance,
            "rows": len(rows),
            "nonlinear": int(rows[:, 5].sum()),
            "min": float(angles.min()),
            "max": float(angles.max()),
            "mean": float(angles.mean()),
            "std": float(angles.std()),
        })
    sample = [
        [float(d), int(k), float(x), float(y), float(a), int(nl)]
        for d, k, x, y, a, nl in data[data[:, 1] % FIG3_SAMPLE_STRIDE == 0].tolist()
    ]
    return summaries, sample


def check_fig3(path: Path, reference: dict) -> Tally:
    """Compare a fig3 CSV with its reference summaries and sampled rows.

    A distance whose row count, nonlinear count or angle statistics differ
    fails all of its rows; otherwise only mismatched sampled rows fail.
    """
    expected_rows = sum(s["rows"] for s in reference["distances"])
    tally = Tally(attempted=expected_rows, failed=expected_rows)
    try:
        summaries, sample = scan_fig3(path)
    except (OSError, ValueError):
        return tally
    tally.attempted = max(expected_rows, sum(s["rows"] for s in summaries))
    tally.failed = tally.attempted - expected_rows
    samples_by_key = {(row[0], row[1]): row for row in sample}
    for want in reference["distances"]:
        got = next((s for s in summaries if close(s["distance_m"], want["distance_m"])), None)
        if (
            got is None
            or got["rows"] != want["rows"]
            or got["nonlinear"] != want["nonlinear"]
            or not all(close(got[k], want[k]) for k in ("min", "max", "mean", "std"))
        ):
            tally.failed += want["rows"]
            continue
        for ref_row in reference["sample"]:
            if not close(ref_row[0], want["distance_m"]):
                continue
            got_row = samples_by_key.get((got["distance_m"], ref_row[1]))
            if got_row is None or not row_matches(FIG3_HEADER, got_row, ref_row):
                tally.failed += 1
    return tally


def all_failed(rows: int) -> Tally:
    "The tally of a run that exited nonzero or wrote nothing usable."
    return Tally(attempted=rows, failed=rows)
