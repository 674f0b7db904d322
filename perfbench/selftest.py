"""Self-test of the benchmark at a tiny size (N=32, one round trip).

    python3 perfbench/selftest.py

For every workload it checks that each metric named in BENCHMARK.json is
printed, that the counts repeat exactly between two traced runs, and that
a traced command writes byte-identical CSVs to an untraced one.  Exits 0
when all hold; a failure is printed with the workload it concerns.
"""

import contextlib
import io
import json
import sys

import outputs
import run
from tracing import Trace


def check_workload(w, bench, cli) -> list[str]:
    problems = []
    seed = run.DEFAULT_SEED
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        _, untraced = run.measure(w, seed, 0.0, trace=False)
        _, first = run.measure(w, seed, 0.0, trace=True)
        _, second = run.measure(w, seed, 0.0, trace=True)
    text = printed.getvalue()
    for group, found in (("end_to_end", untraced), ("per_layer", first)):
        for metric in bench[group]:
            name = metric["name"]
            if f"metric {w.name} {name} = " not in text or name not in found:
                problems.append(f"{group} metric {name} not printed")
            elif found[name][1] != metric["unit"]:
                problems.append(f"{name} printed in {found[name][1]}, not {metric['unit']}")
    for name, (value, unit) in first.items():
        if unit == "count" and second[name][0] != value:
            problems.append(f"count {name} changed: {value} then {second[name][0]}")

    plain_out = run.OUT / w.name / "plain"
    traced_out = run.OUT / w.name / "traced"
    rc, _, error = run._run_cli(cli.main, w.argv(seed, plain_out), plain_out)
    trace = Trace()
    with trace.installed():
        rc_t, _, error_t = run._run_cli(
            trace.wrap("cli.main", cli.main), w.argv(seed, traced_out), traced_out
        )
    if rc != 0 or rc_t != 0:
        problems.append(f"command failed: {rc} {error}; traced {rc_t} {error_t}")
    elif outputs.read_tree(plain_out) != outputs.read_tree(traced_out):
        problems.append("traced outputs differ from untraced outputs")
    if trace.names[:1] != ["cli.main"] or len(trace.names) < 5:
        problems.append(f"trace recorded {len(trace.names)} spans")
    return [f"{w.name}: {p}" for p in problems]


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(run.SRC))
    import beamstab.cli as cli

    problems = []
    for w in run.WORKLOADS.values():
        found = check_workload(w.tiny(), bench, cli)
        print(f"{w.name}: {'ok' if not found else 'FAILED'}")
        problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
