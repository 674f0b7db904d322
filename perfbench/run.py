"""Benchmark of the beamstab command line, one workload per invocation.

    python3 perfbench/run.py --workload simulate-toy --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Every workload is one CLI command run through ``beamstab.cli.main(argv)``
in this process, one command after another (a closed loop with one
client).  The seed reaches the program only as ``--override
datum.seed=<seed>``.

``--trace 0`` reports the end-to-end metrics: the median wall time of a
command, the set-up time of a fresh CLI process (import, argv, scenario)
and the peak resident memory of one command in its own process.
``--trace 1`` reports the per-layer metrics: one public call at a time on
the workload's inputs (layers.py), the counts, and span self times from
commands run with wrappers around the library's public functions
(tracing.py), alternated with untraced commands to give the tracing
overhead.  ``--workload all`` runs every workload in both modes.

Every command's outputs are checked (outputs.py): seed-independent
invariants on the first, reference columns too at the default seed, and
byte identity with the first for every later one.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import outputs
from tracing import Trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
REFERENCE = HERE / "reference"

DEFAULT_SEED = 42          # the presets' datum seed; reference columns exist for it
HELD_OUT_SEED = 8128       # never used while tuning; later changes must pass it too
MIN_SAMPLES = 3            # timed commands (and set-up probes) per untraced run
MIN_PAIRS = 2              # untraced/traced command pairs per traced run
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    scenario: str
    overrides: tuple[str, ...]
    checked: bool = True  # invariants and, at the default seed, reference columns

    def overrides_for(self, seed: int) -> tuple[str, ...]:
        return (*self.overrides, f"datum.seed={seed}")

    def argv(self, seed: int, out: Path) -> list[str]:
        args = [self.command, "--scenario", self.scenario]
        for item in self.overrides_for(seed):
            args += ["--override", item]
        return args + ["--out", str(out)]

    def tiny(self) -> "Workload":
        """The same command at N=32 for one round trip (warm-up and self-test).

        Too short for the decay fits, so only byte identity is checked.
        """
        return replace(
            self,
            name=f"{self.name}-tiny",
            overrides=(*self.overrides, "sim.n_cells=32", "sim.t_end=1.0"),
            checked=False,
        )


# One round trip of the toy-parameter presets (straight-toy, helical) is
# 2 L / sqrt(E / rho) = 1.0.  Runs are cut from 10 to 2 or 3 round trips:
# the decay fits start after the first round trip and need 10 records.
WORKLOADS = {
    w.name: w
    for w in (
        # default user run; recording every step is most of the work
        Workload("simulate-toy", "simulate", "straight-toy", ("sim.t_end=2.0",)),
        # step kernel only: curved coupling, second-order gradient, few records
        Workload(
            "simulate-helical-upwind2",
            "simulate",
            "helical",
            ("sim.scheme=upwind2", "sim.output_stride=50", "sim.t_end=3.0"),
        ),
        # the only pose workload; 1139 x 257 lattice, the same as at 10 round trips
        Workload("reconstruct-helical", "reconstruct", "helical", ("sim.t_end=2.0",)),
        # certificate and reference assembly at a fine grid; no simulation
        Workload("certify-helical-fine", "certify", "helical", ("sim.n_cells=8192",)),
    )
}


class Checker:
    """Counts attempted and failed operations and checks each command's outputs."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.baseline: dict[str, bytes] | None = None
        self.columns: dict[str, np.ndarray] = {}

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{self.workload.name} {label}: {p}" for p in problems]

    def command(self, label: str, rc, error: str, out: Path) -> None:
        if error or rc != 0:
            self.record(label, [error or f"exit code {rc}"])
            return
        tree = outputs.read_tree(out)
        if self.baseline is not None:
            differ = sorted(
                k for k in set(tree) | set(self.baseline) if tree.get(k) != self.baseline.get(k)
            )
            self.record(label, [f"outputs differ from the first run: {differ[:3]}"] if differ else [])
            return
        self.baseline = tree
        self.columns = outputs.columns(tree)
        if not self.workload.checked:
            self.record(label, [])
            return
        problems = outputs.invariants(self.workload.command, self.columns)
        if self.seed == DEFAULT_SEED:
            path = REFERENCE / f"{self.workload.name}.npz"
            if path.exists():
                with np.load(path) as ref:
                    problems += outputs.compare(self.columns, dict(ref))
            else:
                problems.append(f"missing reference {path.name}")
        self.record(label, problems)


def _run_cli(main, argv: list[str], out: Path):
    """(exit code, seconds, error) of one command; its stdout is discarded."""
    shutil.rmtree(out, ignore_errors=True)
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            rc = main(argv)
            elapsed = time.perf_counter() - t0
    except (Exception, SystemExit) as exc:  # a failed operation, not a failed benchmark
        return None, math.nan, f"{type(exc).__name__}: {exc}"
    return rc, elapsed, ""


def _child(mode: str, argv: list[str]):
    """(completed process, seconds) of perfbench/child.py in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), mode, *argv],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    return proc, time.perf_counter() - t0


def warm_up(w: Workload, seed: int) -> None:
    """Run the tiny form of the command once: lazy imports and first-call caches.

    It is not an operation of the workload; the first full command is
    checked, and its outputs are the ones later commands must match.
    """
    import beamstab.cli as cli

    out = OUT / w.name / "warm-up"
    _run_cli(cli.main, w.tiny().argv(seed, out), out)


def _setup_probe(w: Workload, seed: int, check: Checker) -> float:
    proc, elapsed = _child("setup", w.argv(seed, OUT / w.name / "cmd"))
    check.record("setup", [] if proc.returncode == 0 else [proc.stderr.strip()[-300:]])
    return elapsed if proc.returncode == 0 else math.nan


def measure_untraced(w: Workload, seed: int, seconds: float, check: Checker) -> dict:
    """End-to-end metrics; every sample is taken inside the measuring window.

    The machine's speed drifts over tens of seconds, so set-up probes are
    interleaved with the timed commands instead of taken in one burst.
    """
    import beamstab.cli as cli

    out = OUT / w.name / "cmd"
    argv = w.argv(seed, out)
    warm_up(w, seed)
    _setup_probe(w, seed, check)  # untimed: the first may compile bytecode

    start = time.perf_counter()
    rss_out = OUT / w.name / "rss"
    shutil.rmtree(rss_out, ignore_errors=True)
    proc, _ = _child("rss", w.argv(seed, rss_out))
    rss_mb = math.nan
    if proc.returncode == 0:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        rss_mb = report["maxrss_kb"] / 1024.0
        check.command("own-process", report["rc"], "", rss_out)
    else:
        check.record("own-process", [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"])

    walls, setup = [], []
    while len(walls) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        rc, elapsed, error = _run_cli(cli.main, argv, out)
        check.command(f"command {len(walls) + 1}", rc, error, out)
        walls.append(elapsed)
        setup.append(_setup_probe(w, seed, check))
    setup = [t for t in setup if math.isfinite(t)]

    finite = [t for t in walls if math.isfinite(t)]
    wall = statistics.median(finite) if finite else math.nan
    n = len(finite)
    if n > 10:
        pct = math.floor(100 * (n - 10) / n)
        tail = f"p{pct} {np.percentile(finite, pct):.4f} s (10 samples above it)"
    else:
        tail = "no tail percentile (it needs more than 10 samples)"
    print(f"wall_s: median {wall:.4f} s, {tail}, n={n}")
    print(f"setup_s: samples {', '.join(f'{s:.4f}' for s in setup)}")
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setup) if setup else math.nan, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def measure_traced(w: Workload, seed: int, seconds: float, check: Checker) -> dict:
    import beamstab.cli as cli
    import layers

    out = OUT / w.name / "cmd"
    argv = w.argv(seed, out)
    start = time.perf_counter()
    warm_up(w, seed)
    metrics = layers.measure(w.command, w.scenario, w.overrides_for(seed))

    plain, traced, traces = [], [], []
    while len(traced) < MIN_PAIRS or time.perf_counter() - start < seconds:
        for with_trace in (False, True) if len(traced) % 2 == 0 else (True, False):
            if with_trace:
                trace = Trace()
                with trace.installed():
                    rc, elapsed, error = _run_cli(trace.wrap("cli.main", cli.main), argv, out)
                traces.append(trace)
                traced.append(elapsed)
            else:
                rc, elapsed, error = _run_cli(cli.main, argv, out)
                plain.append(elapsed)
            check.command("traced command" if with_trace else "command", rc, error, out)

    spans_path = OUT / w.name / "spans.json"
    spans_path.write_text(json.dumps(
        {"workload": w.name, "seed": seed, "commands": [t.to_json() for t in traces]}
    ))
    per_trace = [t.self_ns() for t in traces]
    wall_traced, wall_plain = statistics.median(traced), statistics.median(plain)
    self_ms = {
        name: statistics.median(p.get(name, (0, 0))[1] for p in per_trace) * 1e-6
        for name in per_trace[0]
    }
    covered = sum(self_ms.values()) * 1e-3
    print(f"trace: {len(traces)} traced commands, {len(traces[0].names)} spans each, "
          f"written to {spans_path.relative_to(ROOT)}")
    print(f"trace: self times sum to {covered:.4f} s of traced wall {wall_traced:.4f} s "
          f"({100 * covered / wall_traced:.2f}%); untraced wall {wall_plain:.4f} s, "
          f"tracing overhead {wall_traced - wall_plain:+.4f} s")
    layer_ms: dict[str, float] = {}
    for name, ms in self_ms.items():
        layer = name.split(".", 1)[0]
        layer_ms[layer] = layer_ms.get(layer, 0.0) + ms
        print(f"span {name:<38} calls {per_trace[0][name][0]:>6}  self {ms:10.3f} ms  "
              f"{0.1 * ms / wall_traced:5.1f}%")
    for layer, ms in sorted(layer_ms.items(), key=lambda kv: -kv[1]):
        print(f"layer {layer:<12} self {ms:10.3f} ms  {0.1 * ms / wall_traced:5.1f}%")

    metrics["cli.self_ms"] = (self_ms["cli.main"], "ms")
    metrics["trace.traced_wall_s"] = (wall_traced, "s")
    metrics["trace.untraced_wall_s"] = (wall_plain, "s")
    metrics["trace.spans"] = (len(traces[0].names), "count")
    for name, value in outputs.counts(check.baseline or {}, check.columns).items():
        metrics[name] = (value, "count")
    return metrics


def environment() -> dict:
    import scipy
    import yaml

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                         "MKL_NUM_THREADS") if k in os.environ}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor() or "unknown",
        "blas": blas,
        "blas_threads": threads or "library default (one per core)",
    }


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[Checker, dict]:
    check = Checker(w, seed)
    (OUT / w.name).mkdir(parents=True, exist_ok=True)
    fn = measure_traced if trace else measure_untraced
    metrics = fn(w, seed, seconds, check)
    for name, (value, unit) in metrics.items():
        shown = value if unit == "count" else f"{value:.6g}"
        print(f"metric {w.name} {name} = {shown} {unit}")
    print(f"fail_ratio {w.name}: {check.failed}/{check.attempted} = "
          f"{check.failed / max(check.attempted, 1):.6g}")
    for problem in check.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return check, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"datum seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "beamstab" / "cli.py").is_file():
        print(f"error: no beamstab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    print("env " + json.dumps(environment()))
    if args.workload == "all":
        runs = [(name, t) for name in WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    attempted = failed = 0
    metrics = {}
    for name, trace in runs:
        check, found = measure(WORKLOADS[name], args.seed, args.seconds, trace)
        attempted += check.attempted
        failed += check.failed
        prefix = f"{name}/" if args.workload == "all" else ""
        for key, (value, unit) in found.items():
            value = value if math.isfinite(value) else None
            metrics[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
