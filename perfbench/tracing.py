"""Spans around beamstab's public calls, recorded from outside the package.

A traced command runs with wrappers installed on module attributes of
beamstab; every wrapped call records one span (name, start, end, parent).
Only calls that look the name up on the module at call time are seen,
which is how the CLI and the solver call each other, so the wrappers see
exactly the layer boundaries listed in ``TRACED``.  Spans stay in memory
and are written out by the caller when the run ends.  The wrappers are
removed when the ``installed`` block exits, so untraced commands in the
same process pay nothing.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

# (module whose attribute is replaced, attribute, span name).  The span name
# is "<layer>.<function>" with the layer being the module that defines the
# function; g_diag and the stencils are wrapped where the solver looks them up.
TRACED = (
    ("beamstab.scenarios", "load_scenario", "scenarios.load_scenario"),
    ("beamstab.scenarios", "apply_override", "scenarios.apply_override"),
    ("beamstab.scenarios", "build_reference", "scenarios.build_reference"),
    ("beamstab.scenarios", "header_echo", "scenarios.header_echo"),
    ("beamstab.cli", "derive_matrices", "params.derive_matrices"),
    ("beamstab.certificate", "build_certificate", "certificate.build_certificate"),
    ("beamstab.certificate", "verify_certificate", "certificate.verify_certificate"),
    ("beamstab.certificate", "theta_functions", "certificate.theta_functions"),
    ("beamstab.certificate", "decay_rate_estimate", "certificate.decay_rate_estimate"),
    ("beamstab.certificate", "certificate_to_csv", "certificate.certificate_to_csv"),
    ("beamstab.solver", "generate_initial_datum", "solver.generate_initial_datum"),
    ("beamstab.solver", "simulate", "solver.simulate"),
    ("beamstab.solver", "g_diag", "model.g_diag"),
    ("beamstab.solver", "g_diag_pair", "model.g_diag_pair"),
    ("beamstab.solver", "lyapunov_value", "solver.lyapunov_value"),
    ("beamstab.solver", "sobolev_norms", "solver.sobolev_norms"),
    ("beamstab.solver", "diff1", "fd.diff1"),
    ("beamstab.solver", "diff2", "fd.diff2"),
    ("beamstab.solver", "fit_decay", "solver.fit_decay"),
    ("beamstab.solver", "trajectory_to_csv", "solver.trajectory_to_csv"),
    ("beamstab.solver", "snapshot_to_csv", "solver.snapshot_to_csv"),
    ("beamstab.model", "to_physical", "model.to_physical"),
    ("beamstab.model", "reference_centerline", "model.reference_centerline"),
    ("beamstab.model", "strains_velocities_from_pose", "model.strains_velocities_from_pose"),
    ("beamstab.reconstruct", "reconstruct_rotation", "reconstruct.reconstruct_rotation"),
    ("beamstab.reconstruct", "reconstruct_centerline", "reconstruct.reconstruct_centerline"),
    ("beamstab.reconstruct", "decay_observable", "reconstruct.decay_observable"),
    ("beamstab.reconstruct", "pose_residuals_to_csv", "reconstruct.pose_residuals_to_csv"),
    ("beamstab.reconstruct", "pose_snapshot_to_csv", "reconstruct.pose_snapshot_to_csv"),
)


class Trace:
    """Spans of one traced command, in call order; parent -1 marks the root."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._open[-1] if self._open else -1)
            self.ends.append(0)
            self._open.append(idx)
            self.starts.append(time.perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter_ns()
                self._open.pop()

        return wrapper

    @contextmanager
    def installed(self):
        """Replace every attribute in ``TRACED`` by a recording wrapper."""
        saved = []
        try:
            for module_name, attr, name in TRACED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_ns(self) -> dict[str, tuple[int, int]]:
        """Per span name: (calls, self time in ns).

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the CLI is single-threaded.
        """
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[idx] - self.starts[idx]
        out: dict[str, tuple[int, int]] = {}
        for name, value in zip(self.names, own):
            calls, total = out.get(name, (0, 0))
            out[name] = (calls + 1, total + value)
        return out

    def to_json(self) -> dict:
        t0 = self.starts[0] if self.starts else 0
        return {
            "spans": [
                [name, start - t0, end - t0, parent]
                for name, start, end, parent in zip(
                    self.names, self.starts, self.ends, self.parents
                )
            ]
        }
