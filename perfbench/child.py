"""Fresh-interpreter probes for the set-up and memory metrics.

    python3 perfbench/child.py setup <cli argv...>
        import the CLI, parse argv, load and override the scenario, exit
    python3 perfbench/child.py rss <cli argv...>
        run the command once, print {"rc": ..., "maxrss_kb": ...} as JSON

``beamstab`` must be importable (run.py puts src/ on PYTHONPATH).
"""

import sys


def peak_rss_kb() -> int:
    """High-water resident set of this process image.

    ``ru_maxrss`` of a spawned child starts from its parent's peak (Linux
    keeps the larger of the two across exec), so the process's own VmHWM
    is read where /proc exists.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    mode, argv = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        import beamstab.cli as cli
        from beamstab import scenarios

        args = cli._build_parser().parse_args(argv)
        scenario = scenarios.load_scenario(args.scenario)
        for item in args.override:
            scenario = scenarios.apply_override(scenario, item)
    elif mode == "rss":
        import contextlib
        import io
        import json

        import beamstab.cli as cli

        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        print(json.dumps({"rc": rc, "maxrss_kb": peak_rss_kb()}))
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main()
