"""Regenerate the reference columns checked at the default seed.

    python3 perfbench/make_reference.py [workload ...]

Runs each workload's command once at the default seed and stores every
CSV column it writes in perfbench/reference/<workload>.npz.  Run it only
when a change is meant to alter the outputs, and say so in the change.
"""

import sys

import numpy as np

import outputs
import run


def main(names) -> int:
    sys.path.insert(0, str(run.SRC))
    import beamstab.cli as cli

    run.REFERENCE.mkdir(exist_ok=True)
    for name in names or run.WORKLOADS:
        w = run.WORKLOADS[name]
        out = run.OUT / name / "reference"
        rc, elapsed, error = run._run_cli(cli.main, w.argv(run.DEFAULT_SEED, out), out)
        if error or rc != 0:
            print(f"{name}: failed ({error or rc})", file=sys.stderr)
            return 1
        cols = outputs.columns(outputs.read_tree(out))
        problems = outputs.invariants(w.command, cols)
        if problems:
            print(f"{name}: {problems}", file=sys.stderr)
            return 1
        np.savez_compressed(run.REFERENCE / f"{name}.npz", **cols)
        print(f"{name}: {len(cols)} columns in {elapsed:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
