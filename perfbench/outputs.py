"""Checks on the CSV files one CLI command writes.

* ``read_tree`` snapshots an output directory as {file name: bytes}.
* ``columns`` splits every CSV into named columns; a reference file stores
  them for the default seed and ``compare`` checks each column to the
  roundoff tolerance.
* ``invariants`` checks what must hold for any seed.
* ``counts`` derives the work counts (steps, records, lattice, files).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# ROADMAP roundoff: 1e-13 relative to the column's max-abs.
RTOL = 1e-13
# Levels for the reconstruct summary; seeds 0-3, 42 and 2**31-1 give a norm
# defect of 2.2e-16, a round-trip error of 1.0e-3 to 2.5e-3 and a route gap
# of 0.8e-4 to 1.9e-4 at the benchmark size.
MAX_NORM_DEFECT = 1e-12
MAX_ROUNDTRIP_ERROR = 1e-2
MAX_ROUTE_GAP = 1e-3


def read_tree(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}


def _blocks(text: str):
    """Yield (header, rows) per table; a table starts after comment/blank lines."""
    header, rows = None, []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            if header is not None:
                yield header, rows
            header, rows = None, []
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    if header is not None:
        yield header, rows


def columns(tree: dict[str, bytes]) -> dict[str, np.ndarray]:
    """Every CSV column as "<file>|<table>|<column>" -> float or str array."""
    out = {}
    for fname, data in tree.items():
        for b, (header, rows) in enumerate(_blocks(data.decode())):
            for c, name in enumerate(header):
                cells = [row[c] for row in rows]
                try:
                    values = np.array([float(v) for v in cells], dtype=float)
                except ValueError:
                    values = np.array(cells, dtype=str)
                out[f"{fname}|{b}|{name}"] = values
    return out


def compare(cols: dict[str, np.ndarray], ref: dict[str, np.ndarray]) -> list[str]:
    """Mismatches of output columns against reference columns."""
    problems = []
    if set(cols) != set(ref):
        missing = sorted(set(ref) - set(cols))
        extra = sorted(set(cols) - set(ref))
        problems.append(f"columns differ: missing {missing[:5]}, unexpected {extra[:5]}")
    for key in sorted(set(cols) & set(ref)):
        got, want = cols[key], ref[key]
        if got.shape != want.shape or got.dtype.kind != want.dtype.kind:
            problems.append(f"{key}: shape/type {got.shape}/{got.dtype} != {want.shape}/{want.dtype}")
        elif want.dtype.kind != "f":
            if not np.array_equal(got, want):
                problems.append(f"{key}: text differs")
        elif not np.array_equal(np.isnan(got), np.isnan(want)):
            problems.append(f"{key}: nan pattern differs")
        else:
            finite = ~np.isnan(want)
            scale = float(np.abs(want[finite]).max(initial=0.0))
            err = float(np.abs(got[finite] - want[finite]).max(initial=0.0))
            if not err <= RTOL * scale:
                problems.append(f"{key}: max error {err:.3g} > {RTOL:g} x {scale:.3g}")
    return problems


def _summary(cols, suffix: str, key: str = "series", value: str = "alpha") -> dict[str, float]:
    """Rows of a name,value table in the file ending with ``suffix``."""
    for col, names in cols.items():
        fname, block, name = col.split("|")
        if fname.endswith(suffix) and name == key:
            values = cols[f"{fname}|{block}|{value}"]
            return dict(zip(names.tolist(), values.tolist()))
    return {}


def _column(cols, suffix: str, name: str) -> np.ndarray | None:
    for col, values in cols.items():
        fname, _, cname = col.split("|")
        if fname.endswith(suffix) and cname == name:
            return values
    return None


def invariants(command: str, cols: dict[str, np.ndarray]) -> list[str]:
    """Seed-independent checks for one command's outputs."""
    problems = []
    if command == "certify":
        summary = _summary(cols, "-certificate.csv", "name", "value")
        if summary.get("valid") != 1.0:
            problems.append(f"certificate not valid: {summary.get('valid')}")
        if not math.isfinite(summary.get("alpha_estimate_heuristic", math.nan)):
            problems.append("decay-rate estimate missing or not finite")
        return problems

    energy = _column(cols, "-trajectory.csv", "energy_phys")
    if energy is None or len(energy) < 2:
        return problems + ["trajectory energy column missing"]
    if not energy[-1] / energy[0] < 1.0:
        problems.append(f"E(T)/E(0) = {energy[-1] / energy[0]:.6g} is not < 1")
    fits = _summary(cols, "-decay.csv" if command == "simulate" else "-reconstruction.csv")
    for series in ("lyapunov", "h1_sq"):
        alpha = fits.get(series, math.nan)
        if not (math.isfinite(alpha) and alpha > 0.0):
            problems.append(f"decay fit of {series} is {alpha}, not finite and positive")
    if command == "reconstruct":
        limits = {
            "quaternion_norm_defect": MAX_NORM_DEFECT,
            "roundtrip_sup_error": MAX_ROUNDTRIP_ERROR,
            "centerline_route_gap": MAX_ROUTE_GAP,
        }
        for key, limit in limits.items():
            value = fits.get(key, math.nan)
            if not value < limit:
                problems.append(f"{key} = {value} is not below {limit:g}")
    return problems


def counts(tree: dict[str, bytes], cols: dict[str, np.ndarray]) -> dict[str, int]:
    """Work counts of one command, read from what it wrote."""
    steps = 0
    for fname, data in tree.items():
        if fname.endswith("-trajectory.csv"):
            for line in data.decode().splitlines():
                if line.startswith("# steps = "):
                    steps = int(line.split("=", 1)[1])
    records = _column(cols, "-trajectory.csv", "t")
    times = _column(cols, "-pose-residuals.csv", "t")
    nodes = _column(cols, "-pose-00000.csv", "x")
    lattice = len(times) * len(nodes) if times is not None and nodes is not None else 0
    return {
        "solver.steps": steps,
        "solver.records": 0 if records is None else len(records),
        "reconstruct.lattice_points": lattice,
        "cli.files_written": len(tree),
        "cli.bytes_written": sum(len(data) for data in tree.values()),
    }
