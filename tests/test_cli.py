import csv
import importlib
import importlib.util
import json
import math
import os
import platform
import shlex
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

import beamstab
from beamstab import certificate, cli, model, params, reconstruct, solver
from beamstab.cli import EXIT_BLOWUP, EXIT_CERTIFICATE, EXIT_OK, EXIT_VALIDATION, main
from beamstab.errors import (
    BeamstabError,
    BlowupDetected,
    CkappaDegenerate,
    ScenarioError,
    ValidationError,
    WindowViolation,
)
from beamstab.params import BeamParams, derive_matrices, optimal_feedback
from beamstab.scenarios import (
    PRESETS,
    CertificateSpec,
    DatumSpec,
    ReferenceSpec,
    Scenario,
    apply_override,
    build_reference,
    header_echo,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from beamstab.solver import MAX_CELLS, SimConfig, round_trip_time, time_step
from conftest import assert_no_child_left, run_python

ROOT = Path(__file__).resolve().parents[1]


def _perfbench(name):
    """A module of the benchmark harness, loaded from perfbench/<name>.py."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _header_value(text, key):
    for line in text.splitlines():
        if line.startswith(f"# {key} = "):
            return line.split(" = ", 1)[1]
    raise KeyError(key)


@pytest.fixture()
def fast_overrides():
    return [
        "--override", "sim.n_cells=32",
        "--override", "sim.t_end=0.5",
        "--override", "sim.output_stride=4",
    ]


class TestScenarioFiles:
    def test_presets_exist(self):
        assert set(PRESETS) == {"straight-toy", "straight-steel", "helical"}
        for sc in PRESETS.values():
            sc.params.validate()
            sc.sim.validate()

    def test_presets_equal_their_written_out_recipes(self):
        # oracle: the three presets spelled out in full, as they were before
        # they shared one recipe
        mu1, mu2 = optimal_feedback(
            BeamParams(1.0, 1.0, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        )
        toy = BeamParams(
            rho=1.0, area=1.0, young=4.0, shear=1.0, moment2=1.0, moment3=1.0,
            k1=1.0, k2=1.0, k3=1.0, length=1.0, mu1=mu1, mu2=mu2,
        )
        base = BeamParams(
            rho=7850.0, area=4e-2, young=2.1e11, shear=8.1e10,
            moment2=1.3333333333333333e-04, moment3=1.3333333333333333e-04,
            k1=0.843, k2=0.85, k3=0.85, length=1.0, mu1=1.0, mu2=1.0,
        )
        mu1, mu2 = optimal_feedback(base)
        steel = replace(base, mu1=mu1, mu2=mu2)
        toy_round_trip = round_trip_time(toy)
        steel_round_trip = round_trip_time(steel)
        expected = {
            "straight-toy": Scenario(
                name="straight-toy",
                params=toy,
                reference=ReferenceSpec(),
                sim=SimConfig(n_cells=256, cfl=0.9, t_end=10.0 * toy_round_trip, output_stride=1),
                certificate=CertificateSpec(m=1, phi0=1.0, phiL=None),
                datum=DatumSpec(amplitude=1e-2, seed=42, order=1),
            ),
            "straight-steel": Scenario(
                name="straight-steel",
                params=steel,
                reference=ReferenceSpec(),
                sim=SimConfig(n_cells=256, cfl=0.9, t_end=10.0 * steel_round_trip,
                              output_stride=1),
                certificate=CertificateSpec(m=1, phi0=1.0, phiL=None),
                datum=DatumSpec(amplitude=1e-2, seed=42, order=1),
            ),
            "helical": Scenario(
                name="helical",
                params=toy,
                reference=ReferenceSpec((1.0, 0.0, 0.5)),
                sim=SimConfig(n_cells=256, cfl=0.9, t_end=10.0 * toy_round_trip, output_stride=1),
                certificate=CertificateSpec(m=1, phi0=1.0, phiL=None),
                datum=DatumSpec(amplitude=1e-2, seed=42, order=1),
            ),
        }
        assert PRESETS == expected
        assert list(PRESETS) == list(expected)

    def test_yaml_roundtrip(self, tmp_path):
        sc = load_scenario("helical")
        text = yaml.safe_dump(scenario_to_dict(sc), sort_keys=False)
        path = tmp_path / "helical.yaml"
        path.write_text(text)
        back = load_scenario(str(path))
        assert back == sc

    def test_unknown_toplevel_key(self):
        data = scenario_to_dict(load_scenario("straight-toy"))
        data["typo"] = 1
        with pytest.raises(ScenarioError, match="typo"):
            scenario_from_dict(data)

    def test_unknown_nested_key(self):
        data = scenario_to_dict(load_scenario("straight-toy"))
        data["sim"]["n_cell"] = 64
        with pytest.raises(ScenarioError, match="n_cell"):
            scenario_from_dict(data)

    def test_reference_kind_is_an_unknown_key(self, tmp_path, capsys):
        data = scenario_to_dict(load_scenario("helical"))
        data["reference"] = {"kind": "curved", "curvature": [1.0, 0.0, 0.5]}
        path = tmp_path / "kind.yaml"
        path.write_text(yaml.safe_dump(data))
        assert main(["certify", "--scenario", str(path), "--out", str(tmp_path)]) == EXIT_VALIDATION
        assert "unknown keys under reference: kind" in capsys.readouterr().err

    def test_missing_preset(self):
        with pytest.raises(ScenarioError, match="presets: helical, straight-steel, straight-toy"):
            load_scenario("no-such-thing")

    def test_override_paths(self):
        sc = load_scenario("straight-toy")
        sc2 = apply_override(sc, "params.mu1=0.7")
        assert sc2.params.mu1 == 0.7
        sc3 = apply_override(sc, "sim.scheme=upwind2")
        assert sc3.sim.scheme == "upwind2"
        with pytest.raises(ScenarioError):
            apply_override(sc, "params.nonsense=1")
        with pytest.raises(ScenarioError):
            apply_override(sc, "no-equals-sign")

    def test_override_values_checked_not_converted(self):
        sc = apply_override(load_scenario("straight-toy"), "params.rho=2")
        assert type(sc.params.rho) is int
        assert header_echo(sc)["params.rho"] == 2
        for item, field in (("params.rho=true", "params.rho"),
                            ("sim.store_snapshots=1", "sim.store_snapshots"),
                            ("certificate.phiL=[1]", "certificate.phiL"),
                            ("reference.curvature=[1, a, 2]", "reference.curvature")):
            with pytest.raises(ScenarioError, match=field):
                apply_override(sc, item)
        assert apply_override(sc, "certificate.phiL=null").certificate.phiL is None


class TestExitCodes:
    def test_certify_ok(self, tmp_path):
        rc = main(["certify", "--scenario", "straight-toy", "--out", str(tmp_path),
                   "--override", "sim.n_cells=32"])
        assert rc == EXIT_OK
        assert (tmp_path / "straight-toy-certificate.csv").exists()

    def test_zero_feedback_rejected_at_validation(self, tmp_path):
        rc = main(["certify", "--scenario", "straight-toy", "--out", str(tmp_path),
                   "--override", "params.mu1=0", "--override", "params.mu2=0"])
        assert rc == EXIT_VALIDATION

    def test_window_violation_named(self, tmp_path, capsys):
        rc = main(["certify", "--scenario", "straight-toy", "--out", str(tmp_path),
                   "--override", "sim.n_cells=32", "--override", "certificate.phiL=99.0"])
        assert rc == EXIT_CERTIFICATE
        assert "WindowViolation" in capsys.readouterr().err

    def test_blowup_exit_code(self, tmp_path, fast_overrides):
        rc = main(["simulate", "--scenario", "straight-toy", "--out", str(tmp_path),
                   *fast_overrides, "--override", "sim.blowup_threshold=1e-9"])
        assert rc == EXIT_BLOWUP

    def test_reconstruct_reports_a_blowup_as_simulate_does(self, tmp_path, fast_overrides,
                                                          capsys):
        """The blow-up is raised in reconstruct's forked simulation and
        reported from this process with simulate's exit code and message."""
        messages = []
        for command in ("simulate", "reconstruct"):
            rc = main([command, "--scenario", "straight-toy", "--out", str(tmp_path),
                       *fast_overrides, "--override", "sim.blowup_threshold=1e-9"])
            assert rc == EXIT_BLOWUP, command
            messages.append(capsys.readouterr().err)
        assert messages[0].startswith("blow-up: state blew up at t=")
        assert messages[1] == messages[0]

    @pytest.mark.parametrize("ending", ["raises", "exits"])
    def test_an_error_in_certify_s_child_exits_2(self, tmp_path, monkeypatch, capsys, ending):
        """An eigensolve that fails in certify's forked child exits 2 with a
        message, not a traceback, and leaves no child behind.  An exception
        reads as the in-process path's; a child that ends without its
        margins is named."""
        parent, in_process = os.getpid(), []
        solve = certificate._largest_of_halves

        def failing(*args, **kwargs):
            if os.getpid() == parent and not in_process:
                return solve(*args, **kwargs)
            if ending == "exits":
                os._exit(1)
            raise ValidationError(["raised in the eigensolve"])

        argv = ["certify", "--scenario", "helical", "--out", str(tmp_path),
                "--override", "sim.n_cells=1100"]
        monkeypatch.setattr(certificate, "_largest_of_halves", failing)
        rc = main(argv)
        err = capsys.readouterr().err
        assert_no_child_left()
        assert rc == EXIT_VALIDATION and "Traceback" not in err
        if ending == "exits":
            assert "error: the certificate's process ended without a result (exit status 1)" in err
            return
        monkeypatch.setattr(reconstruct, "_FORK", False)
        in_process.append(True)  # the in-process solve raises
        assert main(argv) == rc
        assert capsys.readouterr().err == err == "error: raised in the eigensolve\n"

    def test_unknown_scenario(self, tmp_path):
        rc = main(["certify", "--scenario", "missing.yaml", "--out", str(tmp_path)])
        assert rc == EXIT_VALIDATION

    def test_directory_is_not_a_scenario_file(self, tmp_path, monkeypatch):
        # `--out straight-toy` leaves a directory named like the preset
        monkeypatch.chdir(tmp_path)
        (tmp_path / "straight-toy").mkdir()
        (tmp_path / "not-a-preset").mkdir()
        out = str(tmp_path / "out")
        assert main(["certify", "--scenario", "straight-toy", "--out", out,
                     "--override", "sim.n_cells=32"]) == EXIT_OK
        assert main(["certify", "--scenario", "not-a-preset", "--out", out]) == EXIT_VALIDATION

    def test_undecodable_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "binary.yaml"
        path.write_bytes(b"\xff\xfe\x00")
        assert main(["certify", "--scenario", str(path), "--out", str(tmp_path)]) == EXIT_VALIDATION
        assert "cannot parse" in capsys.readouterr().err


_DOCUMENTED_EXIT = {
    WindowViolation: EXIT_CERTIFICATE,
    CkappaDegenerate: EXIT_CERTIFICATE,
    BlowupDetected: EXIT_BLOWUP,
}


@pytest.mark.parametrize("cls", BeamstabError.__subclasses__(), ids=lambda c: c.__name__)
def test_every_package_error_has_an_exit_code(cls, tmp_path, monkeypatch, capsys):
    args = {ValidationError: (["bad field"],), BlowupDetected: (0.5, 7.0)}.get(cls, ("boom",))

    def command(scenario, cli_args):
        raise cls(*args)

    monkeypatch.setitem(cli._COMMANDS, "certify", command)
    rc = main(["certify", "--scenario", "straight-toy", "--out", str(tmp_path)])
    assert rc == _DOCUMENTED_EXIT.get(cls, EXIT_VALIDATION)
    assert str(cls(*args)) in capsys.readouterr().err


class TestSimulateCommand:
    def test_outputs_and_positive_decay(self, tmp_path, fast_overrides):
        rc = main(["simulate", "--scenario", "straight-toy", "--out", str(tmp_path),
                   "--override", "sim.n_cells=48", "--override", "sim.t_end=4.0",
                   "--override", "sim.output_stride=4"])
        assert rc == EXIT_OK
        decay = (tmp_path / "straight-toy-decay.csv").read_text()
        rows = {ln.split(",")[0]: ln.split(",") for ln in decay.splitlines()
                if ln and not ln.startswith("#") and not ln.startswith("series")}
        assert float(rows["lyapunov"][1]) > 0.0
        assert float(rows["h1_sq"][1]) > 0.0
        traj = (tmp_path / "straight-toy-trajectory.csv").read_text()
        assert "# datum.amplitude = 0.01" in traj
        assert (tmp_path / "straight-toy-final-state.csv").exists()

    def test_zero_amplitude_gives_zero_outputs(self, tmp_path, fast_overrides):
        rc = main(["simulate", "--scenario", "straight-toy", "--out", str(tmp_path),
                   *fast_overrides, "--override", "datum.amplitude=0.0"])
        assert rc == EXIT_OK
        traj = (tmp_path / "straight-toy-trajectory.csv").read_text()
        data_rows = [ln for ln in traj.splitlines() if ln and not ln.startswith(("#", "t,"))]
        values = np.array([[float(v) for v in ln.split(",")] for ln in data_rows])
        assert np.all(values[:, 1:3] == 0.0)  # both energies identically zero
        assert np.all(values[:, 5:] == 0.0)   # traces zero (lyap column is NaN-free zero)

    def test_byte_identical_reruns(self, tmp_path, fast_overrides):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for command in (["simulate"], ["sweep", "--axis", "mu1", "--values", "0.5,-1.0,2.0"]):
            args = [*command, "--scenario", "straight-toy", *fast_overrides]
            assert main(args + ["--out", str(out1)]) == EXIT_OK
            assert main(args + ["--out", str(out2)]) == EXIT_OK
        names = ("straight-toy-trajectory.csv", "straight-toy-final-state.csv",
                 "straight-toy-decay.csv", "straight-toy-sweep-mu1.csv")
        assert sorted(p.name for p in out1.iterdir()) == sorted(names)
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        header = [ln for ln in (out1 / "straight-toy-sweep-mu1.csv").read_text().splitlines()
                  if not ln.startswith("#")][0]
        assert header == "value,C_kappa,cert_valid,alpha,status"

    def test_certify_byte_identical(self, tmp_path):
        args = ["certify", "--scenario", "helical", "--override", "sim.n_cells=32"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        name = "helical-certificate.csv"
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestReconstructCommand:
    def test_outputs(self, tmp_path):
        rc = main(["reconstruct", "--scenario", "straight-toy", "--out", str(tmp_path),
                   "--override", "sim.n_cells=48", "--override", "sim.t_end=3.0",
                   "--override", "sim.output_stride=2"])
        assert rc == EXIT_OK
        summary = (tmp_path / "straight-toy-reconstruction.csv").read_text()
        rows = {ln.split(",")[0]: ln.split(",") for ln in summary.splitlines()
                if ln and "," in ln and not ln.startswith("#")}
        assert float(rows["quaternion_norm_defect"][1]) < 1e-10
        assert float(rows["roundtrip_sup_error"][1]) < 1e-2
        assert float(rows["observable_decay_rate"][1]) > 0.0
        residuals = (tmp_path / "straight-toy-pose-residuals.csv").read_text().splitlines()
        lattice_rows = len([ln for ln in residuals if not ln.startswith(("#", "t,"))])
        poses = list(tmp_path.glob("straight-toy-pose-0*.csv"))
        assert len(poses) == min(24, lattice_rows)

    def test_failed_observable_fit_writes_nan_rows(self, tmp_path):
        # t_end is below one round trip, so none of the three fits has a window
        rc = main(["reconstruct", "--scenario", "straight-toy", "--out", str(tmp_path),
                   "--override", "sim.n_cells=32", "--override", "sim.t_end=0.5"])
        assert rc == EXIT_OK
        summary = (tmp_path / "straight-toy-reconstruction.csv").read_text()
        rows = [ln.split(",") for ln in summary.splitlines() if ln and not ln.startswith("#")]
        assert [row[0] for row in rows] == [
            "series", "lyapunov", "h1_sq", "roundtrip_sup_error", "quaternion_norm_defect",
            "centerline_route_gap", "observable_decay_rate", "observable_fit_r2",
        ]
        for row in rows[1:3] + rows[-2:]:
            assert all(math.isnan(float(cell)) for cell in row[1:]), row

    def test_imports_no_scipy(self, tmp_path):
        """The command runs on numpy alone: scipy is never imported."""
        code = (
            "import sys\n"
            "from beamstab import cli\n"
            f"rc = cli.main(['reconstruct', '--scenario', 'helical', '--out', {str(tmp_path)!r},\n"
            "              '--override', 'sim.n_cells=32', '--override', 'sim.t_end=1.0'])\n"
            "assert rc == 0, rc\n"
            "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
            "assert not loaded, loaded[:5]\n"
        )
        proc = run_python(["-c", code])
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "helical-pose-residuals.csv").exists()

    def test_short_run_is_a_validation_error(self, tmp_path, capsys):
        rc = main(["reconstruct", "--scenario", "helical", "--out", str(tmp_path),
                   "--override", "sim.t_end=0.001"])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "sim.t_end" in err and "sim.output_stride" in err

    def test_stride_uses_the_solver_step_count(self, tmp_path, monkeypatch):
        # k2 shear = 9 > young = 4: the fastest wave is a shear wave, so a
        # step count from sqrt(young / rho) would undercount by a third
        scenario = apply_override(load_scenario("straight-toy"), "params.shear=9")
        matrices = derive_matrices(scenario.params)
        assert time_step(scenario.sim, matrices, build_reference(scenario))[1] == 8534

        cap = 40
        monkeypatch.setattr(reconstruct, "MAX_RECONSTRUCT_RECORDS", cap)
        rc = main(["reconstruct", "--scenario", "straight-toy", "--out", str(tmp_path),
                   "--override", "params.shear=9", "--override", "sim.n_cells=32",
                   "--override", "sim.t_end=2.0"])
        assert rc == EXIT_OK
        traj = (tmp_path / "straight-toy-trajectory.csv").read_text()
        steps = int(_header_value(traj, "steps"))
        stride = int(_header_value(traj, "output_stride"))
        assert stride == math.ceil(steps / cap)
        rows = [ln for ln in traj.splitlines() if ln and not ln.startswith(("#", "t,"))]
        assert len(rows) <= cap + 2  # t = 0, the strided records, a ragged final one

    def test_stride_keeps_the_lattice_within_the_point_budget(self, tmp_path, monkeypatch):
        budget = 33 * 21  # 33 nodes at sim.n_cells=32: 21 records, 20 after t = 0
        monkeypatch.setattr(reconstruct, "MAX_RECONSTRUCT_POINTS", budget)
        rc = main(["reconstruct", "--scenario", "straight-toy", "--out", str(tmp_path),
                   "--override", "sim.n_cells=32", "--override", "sim.t_end=2.0"])
        assert rc == EXIT_OK
        traj = (tmp_path / "straight-toy-trajectory.csv").read_text()
        steps = int(_header_value(traj, "steps"))
        stride = int(_header_value(traj, "output_stride"))
        assert stride == math.ceil(steps / 20)
        assert stride > math.ceil(steps / reconstruct.MAX_RECONSTRUCT_RECORDS)  # the budget binds
        residuals = (tmp_path / "straight-toy-pose-residuals.csv").read_text()
        records = [ln for ln in residuals.splitlines() if ln and not ln.startswith(("#", "t,"))]
        assert 3 <= len(records) and 33 * len(records) <= budget

    def test_pipeline_calls_are_traced(self, tmp_path):
        """The pose pass's model calls are traced on ``reconstruct`` (its
        stages are block functions the traced names do not wrap).  Its
        simulation runs in a forked child, whose spans stay there, so the
        simulation's calls are traced on ``simulate``, which runs the same
        loop in-process."""
        tracing = _perfbench("tracing")
        small = ["--scenario", "helical", "--out", str(tmp_path),
                 "--override", "sim.n_cells=32", "--override", "sim.t_end=0.5"]
        for command, names in (
            ("reconstruct", ("model.reference_centerline", "model.strains_velocities_from_pose")),
            ("simulate", ("solver.simulate", "model.to_physical")),
        ):
            trace = tracing.Trace()
            with trace.installed():
                assert main([command, *small]) == EXIT_OK
            for name in names:
                assert name in trace.names, (command, name)

    def test_a_simulation_without_a_result_is_a_package_error(self, tmp_path, monkeypatch,
                                                              capsys):
        """A forked simulation that ends without a result exits 2 with a
        message, not a traceback, and leaves no child behind."""
        parent = os.getpid()

        def die(*args, **kwargs):
            assert os.getpid() != parent, "not simulated in a child"
            os._exit(1)

        monkeypatch.setattr(solver, "simulate", die)
        rc = main(["reconstruct", "--scenario", "straight-toy", "--out", str(tmp_path),
                   "--override", "sim.n_cells=32", "--override", "sim.t_end=0.5"])
        err = capsys.readouterr().err
        assert rc == EXIT_VALIDATION
        assert "ended without a result (exit status 1)" in err and "Traceback" not in err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestWorkPerCommand:
    """Derived data is built once per command, and only by the commands that read it."""

    SMALL = ["--scenario", "helical", "--override", "sim.n_cells=32"]

    @pytest.mark.parametrize("command", [
        ["certify"],
        ["simulate", "--override", "sim.t_end=0.2"],
        ["reconstruct", "--override", "sim.t_end=0.5"],
    ])
    def test_matrices_derived_once(self, tmp_path, monkeypatch, command):
        original = params.derive_matrices
        calls = []

        def counting(p):
            calls.append(p)
            return original(p)

        for name, module in list(sys.modules.items()):
            if name.startswith("beamstab") and getattr(module, "derive_matrices", None) is original:
                monkeypatch.setattr(module, "derive_matrices", counting)
        assert main([*command, *self.SMALL, "--out", str(tmp_path)]) == EXIT_OK
        assert len(calls) == 1

    def test_certify_and_simulate_never_integrate_the_rotation(self, tmp_path, monkeypatch):
        def fail(r):
            raise AssertionError("the reference rotation was integrated")

        monkeypatch.setattr(model, "_polar_project", fail)
        assert main(["certify", *self.SMALL, "--out", str(tmp_path)]) == EXIT_OK
        assert main(["simulate", *self.SMALL, "--override", "sim.t_end=0.2",
                     "--out", str(tmp_path)]) == EXIT_OK

    def test_reconstruct_integrates_the_rotation_once(self, tmp_path, monkeypatch):
        original = model._polar_project
        calls = []

        def counting(r):
            calls.append(r)
            return original(r)

        monkeypatch.setattr(model, "_polar_project", counting)
        assert main(["reconstruct", *self.SMALL, "--override", "sim.t_end=0.5",
                     "--out", str(tmp_path)]) == EXIT_OK
        assert len(calls) == 32  # one RK4 step per cell


class TestOutputFiles:
    """``main`` writes every file a command returns, each headed by the scenario echo."""

    SMALL = ["--override", "sim.n_cells=32", "--override", "sim.t_end=0.5",
             "--override", "sim.output_stride=2"]

    @pytest.mark.parametrize("command", [
        ["certify"],
        ["simulate"],
        ["reconstruct"],
        ["sweep", "--axis", "mu1", "--values", "0.5,2.0"],
        ["dump-matrices"],
    ], ids=lambda c: c[0])
    def test_every_file_starts_with_the_echo(self, tmp_path, capsys, command):
        argv = [command[0], "--scenario", "helical", *self.SMALL, *command[1:]]
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
        wrote = [ln.removeprefix("wrote ") for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("wrote ")]
        assert sorted(wrote) == sorted(str(p) for p in tmp_path.iterdir())
        scenario = load_scenario("helical")
        for item in self.SMALL[1::2]:
            scenario = apply_override(scenario, item)
        echo = [f"# {k} = {v}" for k, v in header_echo(scenario).items()]
        for path in wrote:
            assert Path(path).read_text().splitlines()[:len(echo)] == echo, path


class TestSweepCommand:
    def test_sweep_rows_ordered_and_failures_recorded(self, tmp_path, fast_overrides):
        rc = main(["sweep", "--scenario", "straight-toy", "--out", str(tmp_path),
                   *fast_overrides, "--axis", "mu1",
                   "--values", "0.5,-1.0,2.0"])
        assert rc == EXIT_OK
        text = (tmp_path / "straight-toy-sweep-mu1.csv").read_text()
        table = list(csv.reader(ln for ln in text.splitlines() if not ln.startswith("#")))
        # the failure message holds a comma and stays one quoted cell
        assert [len(row) for row in table] == [5, 5, 5, 5]
        rows = table[1:]
        assert [float(r[0]) for r in rows] == [0.5, -1.0, 2.0]
        assert [r[4] for r in rows] == [
            "ok", "ValidationError: mu1 must be finite and > 0, got -1.0", "ok"
        ]

    @pytest.mark.parametrize("t_end", ["2.0", "0.5"])
    def test_sweep_alpha_is_the_simulate_fit(self, tmp_path, t_end):
        # one fit rule: from one round trip on, nan when that leaves no window;
        # datum order 0 has simulate record the order-1 functional, as the sweep does
        common = ["--scenario", "straight-toy", "--out", str(tmp_path),
                  "--override", "datum.order=0", "--override", "sim.n_cells=32",
                  "--override", f"sim.t_end={t_end}"]
        assert main(["sweep", *common, "--axis", "mu1", "--values", "2.0"]) == EXIT_OK
        assert main(["simulate", *common, "--override", "params.mu1=2.0"]) == EXIT_OK
        sweep = (tmp_path / "straight-toy-sweep-mu1.csv").read_text()
        row = list(csv.DictReader(ln for ln in sweep.splitlines() if not ln.startswith("#")))
        decay = (tmp_path / "straight-toy-decay.csv").read_text()
        fits = {r["series"]: r for r in
                csv.DictReader(ln for ln in decay.splitlines() if not ln.startswith("#"))}
        assert len(row) == 1 and row[0]["status"] == "ok"
        assert row[0]["alpha"] == fits["lyapunov"]["alpha"]
        assert (row[0]["alpha"] == "nan") == (t_end == "0.5")

    def test_sweep_n_axis(self, tmp_path):
        rc = main(["sweep", "--scenario", "straight-toy", "--out", str(tmp_path),
                   "--override", "sim.t_end=0.5", "--override", "sim.output_stride=2",
                   "--axis", "N", "--values", "32,64"])
        assert rc == EXIT_OK
        text = (tmp_path / "straight-toy-sweep-N.csv").read_text()
        rows = [ln for ln in text.splitlines() if ln and not ln.startswith(("#", "value,"))]
        assert len(rows) == 2 and all(r.endswith("ok") for r in rows)

    def test_sweep_without_values_exits_2(self, tmp_path):
        rc = main(["sweep", "--scenario", "straight-toy", "--out", str(tmp_path),
                   "--axis", "mu1", "--values", ""])
        assert rc == EXIT_VALIDATION

    def test_sweep_brackets_optimal_gain(self, tmp_path):
        # C_kappa minimized at the closed-form optimum within grid resolution
        mu_star = np.sqrt(2.0)
        values = [0.5, 1.0, mu_star, 2.0, 4.0]
        rc = main(["sweep", "--scenario", "straight-toy", "--out", str(tmp_path),
                   "--override", "sim.n_cells=32", "--override", "sim.t_end=0.5",
                   "--override", "sim.output_stride=2",
                   "--axis", "mu1", "--values", ",".join(str(v) for v in values)])
        assert rc == EXIT_OK
        text = (tmp_path / "straight-toy-sweep-mu1.csv").read_text()
        rows = [ln.split(",") for ln in text.splitlines()
                if ln and not ln.startswith(("#", "value,"))]
        ck = [float(r[1]) for r in rows]
        assert np.argmin(ck) == values.index(mu_star)

    def test_sweep_alpha_stabilizes_under_refinement(self, tmp_path):
        rc = main(["sweep", "--scenario", "straight-toy", "--out", str(tmp_path),
                   "--override", "sim.t_end=6.0", "--override", "sim.output_stride=4",
                   "--axis", "N", "--values", "64,128,256"])
        assert rc == EXIT_OK
        text = (tmp_path / "straight-toy-sweep-N.csv").read_text()
        rows = [ln.split(",") for ln in text.splitlines()
                if ln and not ln.startswith(("#", "value,"))]
        alphas = [float(r[3]) for r in rows]
        assert all(a > 0 for a in alphas)
        assert abs(alphas[2] - alphas[1]) < abs(alphas[1] - alphas[0])

    def test_sweep_amplitude_reports_first_failure(self, tmp_path):
        rc = main(["sweep", "--scenario", "straight-toy", "--out", str(tmp_path),
                   "--override", "sim.n_cells=32", "--override", "sim.t_end=0.5",
                   "--override", "sim.output_stride=2",
                   "--axis", "amplitude", "--values", "0.01,1e5"])
        assert rc == EXIT_OK
        text = (tmp_path / "straight-toy-sweep-amplitude.csv").read_text()
        rows = [ln for ln in text.splitlines() if ln and not ln.startswith(("#", "value,"))]
        assert rows[0].endswith("ok")
        assert "BlowupDetected" in rows[1]


@pytest.mark.parametrize("args, field", [
    (["certify", "--override", "sim.n_cells=abc"], "sim.n_cells"),
    (["certify", "--override", "params.rho=abc"], "params.rho"),
    (["certify", "--override", "sim.output_stride=1.5"], "sim.output_stride"),
    (["simulate", "--override", "sim.t_end=nan"], "t_end"),
    (["sweep", "--axis", "N", "--values", "1e3"], "sim.n_cells"),
    (["simulate", "--override", "sim.n_cells=32", "--override", "sim.t_end=0.5",
      "--override", "datum.amplitude=10", "--override", "sim.blowup_threshold=nan"],
     "blowup_threshold"),
    (["simulate", "--override", "sim.n_cells=32", "--override", "sim.t_end=0.5",
      "--override", "datum.amplitude=10", "--override", "sim.blowup_threshold=-1"],
     "blowup_threshold"),
    (["simulate", "--override", "sim.n_cells=32", "--override", "datum.amplitude=nan"],
     "amplitude"),
    (["simulate", "--override", "sim.n_cells=32", "--override", "datum.amplitude=inf"],
     "amplitude"),
    (["certify", "--override", f"sim.n_cells={MAX_CELLS + 1}"], "n_cells"),
    (["simulate", "--override", "sim.n_cells=32", "--override", "datum.seed=-1"], "seed"),
    (["certify", "--override", "sim.n_cells=32", "--override", "certificate.phi0=inf"], "phi0"),
    (["simulate", "--override", "sim.n_cells=32", "--override", "sim.t_end=0.2",
      "--override", "certificate.phi0=inf"], "phi0"),
    (["simulate", "--override", "sim.n_cells=32", "--override", "sim.t_end=0.05",
      "--override", "sim.cfl=5e-324"], "step_cap"),
    (["simulate", "--override", "sim.n_cells=32", "--override", "sim.t_end=0.2",
      "--override", "certificate.phi0=8.98846567431158e+307"], "certificate.phi0"),
    (["simulate", "--override", "sim.n_cells=32", "--override", "sim.t_end=0.2",
      "--override", "reference.curvature=[1e308,0,0]"], "reference.curvature"),
    (["certify", "--override", "sim.n_cells=32", "--override", "reference.curvature=[1e308,0,0]"],
     "reference.curvature"),
    (["simulate", "--override", "sim.n_cells=32", "--override", "params.length=1e-200",
      "--override", "sim.t_end=1e-199"], "params.length"),
    # a subnormal phi0 would certify in subnormal arithmetic
    (["certify", "--override", "sim.n_cells=32", "--override", "certificate.phi0=1e-320"],
     "certificate.phi0"),
    (["certify", "--override", "sim.n_cells=32", "--override", "certificate.phi0=1e-310"],
     "certificate.phi0"),
    # the generator's slack would be subnormal; a later --scenario replaces straight-toy
    (["certify", "--scenario", "straight-steel", "--override", "sim.n_cells=64",
      "--override", "params.length=2.1"], "params.length"),
])
def test_bad_value_exits_2_naming_the_field(tmp_path, args, field):
    proc = run_python(["-m", "beamstab.cli", args[0], "--scenario", "straight-toy",
                       "--out", str(tmp_path), *args[1:]])
    assert proc.returncode == EXIT_VALIDATION, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert field in proc.stderr


def test_stiff_coupling_is_a_step_count_not_a_blowup(tmp_path):
    """A coupling too stiff for the step count exits 2 naming the curvature and
    the step cap, where the transport-only step count blew up (exit 4)."""
    proc = run_python(["-m", "beamstab.cli", "simulate", "--scenario", "helical",
                       "--out", str(tmp_path), "--override", "sim.n_cells=32",
                       "--override", "sim.t_end=0.05",
                       "--override", "reference.curvature=[1e150,0,0]"])
    assert proc.returncode == EXIT_VALIDATION, proc.stderr
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    assert "reference.curvature" in proc.stderr and "sim.step_cap" in proc.stderr


@pytest.mark.parametrize("value, code, message", [
    ("params.rho=5e-324", EXIT_VALIDATION, "params overflow double precision"),
    ("params.rho=8.98846567431158e+307", EXIT_VALIDATION, "params overflow double precision"),
    ("params.length=5e-324", EXIT_VALIDATION, "generator conditions failed"),
    ("certificate.phi0=8.98846567431158e+307", EXIT_CERTIFICATE, "certificate INVALID"),
])
def test_overflowing_values_print_no_numpy_warning(tmp_path, value, code, message):
    proc = run_python(["-m", "beamstab.cli", "certify", "--scenario", "straight-toy",
                       "--out", str(tmp_path), "--override", "sim.n_cells=32",
                       "--override", value])
    assert proc.returncode == code, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "Traceback" not in proc.stderr
    assert message in proc.stdout + proc.stderr


def test_list_override_converts_scientific_notation(tmp_path):
    texts = []
    for spelling in ("[1e-1,0,0.5]", "[0.1,0,0.5]"):
        out = tmp_path / spelling
        rc = main(["certify", "--scenario", "helical", "--out", str(out),
                   "--override", "sim.n_cells=32",
                   "--override", f"reference.curvature={spelling}"])
        assert rc == EXIT_OK
        texts.append((out / "helical-certificate.csv").read_text())
    assert texts[0] == texts[1]


def _table_below_the_echo(path):
    return "".join(ln for ln in path.read_text().splitlines(keepends=True)
                   if not ln.startswith("# "))


def test_a_straight_preset_with_curvature_is_the_curved_beam(tmp_path):
    for name, extra in (("helical", []),
                        ("straight-toy", ["--override", "reference.curvature=[1,0,0.5]"])):
        assert main(["certify", "--scenario", name, "--out", str(tmp_path),
                     "--override", "sim.n_cells=32", *extra]) == EXIT_OK
    assert (_table_below_the_echo(tmp_path / "straight-toy-certificate.csv")
            == _table_below_the_echo(tmp_path / "helical-certificate.csv"))


def test_sweep_value_beyond_int64_is_a_failed_row(tmp_path):
    rc = main(["sweep", "--scenario", "straight-toy", "--out", str(tmp_path),
               "--axis", "N", "--values", "32,99999999999999999999",
               "--override", "sim.t_end=0.5", "--override", "sim.output_stride=2"])
    assert rc == EXIT_OK
    text = (tmp_path / "straight-toy-sweep-N.csv").read_text()
    rows = list(csv.reader(ln for ln in text.splitlines() if not ln.startswith("#")))[1:]
    assert rows[0][4] == "ok"
    assert rows[1][4].startswith("ScenarioError: sim.n_cells must be an integer")
    assert [row[0] for row in rows] == ["32", "99999999999999999999"]


def _override_paths():
    data = scenario_to_dict(load_scenario("straight-toy"))
    known = ["name"] + [f"{section}.{key}" for section, content in data.items()
                        if isinstance(content, dict) for key in content]
    return known + ["sim", "params", "sim.nope", "nope.n_cells", "sim.n_cells.x", "", "."]


_YAML_TOKENS = [
    "~", "null", "true", "no", ".nan", ".inf", "-.inf", "abc", "'1'", "0x10", "1_000",
    "1e400", "-0", "[]", "{}", "[1, 2]", "[1e-1,0,0.5]", "[1, a, 2]", "{a: 1}", "[",
    "'", "&a 1", "*a", "!!binary aGk=", "2001-01-01", "upwind2", "curved", "a/b",
    "[1e308,0,0]", "[1e-320,0,0]", '"a\\nb"',
]


_OVERRIDE_VALUES = st.one_of(
    st.integers().map(str),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True).map(repr),
    st.sampled_from(_YAML_TOKENS),
)


@settings(max_examples=60, deadline=None)
@given(
    overrides=st.lists(
        st.tuples(st.sampled_from(_override_paths()), _OVERRIDE_VALUES), min_size=1, max_size=3
    ),
)
@example(overrides=[("datum.seed", "-1")])
@example(overrides=[("sim.cfl", "5e-324")])
@example(overrides=[("params", "{}")])
@example(overrides=[("name", "a/b")])
@example(overrides=[("sim.n_cells", "[")])
@example(overrides=[("params.rho", "-9223372036854775809")])
@example(overrides=[("params.rho", "8.98846567431158e+307")])
@example(overrides=[("params.length", "2.225073858507e-311")])
@example(overrides=[("params.length", "1e-300")])
@example(overrides=[("certificate.phi0", "8.98846567431158e+307")])
@example(overrides=[("reference.curvature", "[1e308,0,0]")])
@example(overrides=[("params.mu1", "1e-300"), ("params.mu2", "1e300"), ("datum.order", "0")])
@pytest.mark.parametrize("command", ["simulate", "certify", "reconstruct", "dump-matrices"])
def test_any_override_ends_in_an_exit_code(tmp_path_factory, command, overrides):
    """One to three overrides at once end in a documented exit code."""
    out = tmp_path_factory.mktemp("contract")
    argv = [command, "--scenario", "straight-toy", "--out", str(out)]
    for path, value in overrides:
        argv += ["--override", f"{path}={value}"]
    argv += ["--override", "sim.n_cells=32", "--override", "sim.t_end=0.05",
             "--override", "sim.step_cap=400"]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse
        rc = exc.code
    assert rc in (EXIT_OK, EXIT_VALIDATION, EXIT_CERTIFICATE, EXIT_BLOWUP)


# document values: every YAML type, and numbers at the edges of each check.
# The numbers are few, so a mutated sim.t_end or sim.step_cap keeps the run short.
_DOC_NUMBERS = [0, 1, -1, 2, 16, 3.5, 1e-300, 5e-324, 1e308, 2**63, -(2**63) - 1,
                float("nan"), float("inf"), float("-inf")]
_DOC_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.text(max_size=4), st.sampled_from(_DOC_NUMBERS)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=2)
    ),
    max_leaves=4,
)
_DOC_KEYS = st.one_of(st.text(max_size=6), st.integers(-2, 2), st.booleans(), st.none(),
                      st.sampled_from(["name", "params", "sim", "rho", "n_cells", "kind"]))


@st.composite
def _scenario_documents(draw):
    """A short straight-toy run as a YAML document, with one to three sections
    or keys missing, extra or of the wrong type (the document itself too)."""
    data = scenario_to_dict(load_scenario("straight-toy"))
    data["sim"].update(n_cells=32, t_end=0.05, step_cap=400)
    for _ in range(draw(st.integers(1, 3))):
        sections = [k for k, v in data.items() if isinstance(v, dict)]
        target = draw(st.sampled_from([None, "document", *sections]))
        if target == "document":
            data = draw(_DOC_VALUES)
            break
        node = data if target is None else data[target]
        keys = sorted(node, key=repr)
        kind = draw(st.sampled_from(["missing", "extra", "mistyped"] if keys else ["extra"]))
        if kind == "extra":
            node[draw(_DOC_KEYS)] = draw(_DOC_VALUES)
        elif kind == "missing":
            del node[draw(st.sampled_from(keys))]
        else:
            node[draw(st.sampled_from(keys))] = draw(_DOC_VALUES)
    return yaml.safe_dump(data, sort_keys=False)


@settings(max_examples=60, deadline=None)
@given(document=_scenario_documents())
@example(document="name: a\nparams: {}\n1: 2\n")
@example(document="name: a\nparams: {rho: 1, 2: 3, null: 4}\n")
@pytest.mark.parametrize("command", ["simulate", "certify", "reconstruct", "dump-matrices"])
def test_any_scenario_document_ends_in_an_exit_code(tmp_path_factory, command, document):
    """Whole scenario files with missing, extra and mistyped sections and keys
    end in a documented exit code, never in a traceback."""
    out = tmp_path_factory.mktemp("document")
    path = out / "scenario.yaml"
    path.write_text(document)
    rc = main([command, "--scenario", str(path), "--out", str(out)])
    assert rc in (EXIT_OK, EXIT_VALIDATION, EXIT_CERTIFICATE, EXIT_BLOWUP)


def test_non_string_keys_are_named(tmp_path, capsys):
    path = tmp_path / "scenario.yaml"
    for text, message in (("name: a\nparams: {}\n1: 2\n", "unknown top-level keys: 1"),
                          ("name: a\nparams: {rho: 1, 2: 3}\n", "unknown keys under params: 2")):
        path.write_text(text)
        assert main(["certify", "--scenario", str(path), "--out", str(tmp_path)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("value", [None, 1, ["a"], True], ids=["null", "1", "list", "true"])
def test_a_name_of_another_type_is_rejected(tmp_path, capsys, value):
    """The name is checked, not converted: only a string names the output files."""
    data = scenario_to_dict(load_scenario("straight-toy"))
    data["name"] = value
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(data))
    argv = ["certify", "--scenario", str(path), "--out", str(tmp_path),
            "--override", "sim.n_cells=32"]
    assert main(argv) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: name must be a string, got ")
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.yaml"]


def test_a_name_with_a_line_break_is_rejected(tmp_path, capsys):
    """The name is echoed on one line of every CSV, so a line break in it is refused."""
    data = scenario_to_dict(load_scenario("straight-toy"))
    data["name"] = "a\nb"
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(data))
    for source, extra in ((str(path), []), ("straight-toy", ["--override", 'name="a\\nb"'])):
        argv = ["dump-matrices", "--scenario", source, "--out", str(tmp_path), *extra]
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: name must be 1 to 200 printable ")
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.yaml"]


_SWEEP_TOKENS = [
    "", ",", " ", "nan", "inf", "-inf", "abc", "1e3", "0x10", "1_000", "16", "15",
    "99999999999999999999", "-9223372036854775809", "1e400", "5e-324", "1.5",
]


@settings(max_examples=60, deadline=None)
@given(
    axis=st.sampled_from([*cli._SWEEP_PATHS, "n", "", "mu3"]),
    values=st.lists(
        st.one_of(
            # every N in [16, 65536] takes the same path; the large ones cost
            # seconds each in the certificate
            st.integers(-1000, 1000).map(str),
            st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True).map(repr),
            st.sampled_from(_SWEEP_TOKENS),
        ),
        max_size=3,
    ).map(",".join),
)
@example(axis="N", values="99999999999999999999")
def test_any_sweep_ends_in_an_exit_code(tmp_path_factory, axis, values):
    out = tmp_path_factory.mktemp("sweep")
    argv = ["sweep", "--scenario", "straight-toy", "--out", str(out), "--axis", axis,
            "--values", values, "--override", "sim.n_cells=32",
            "--override", "sim.t_end=0.05", "--override", "sim.step_cap=400"]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse
        rc = exc.code
    assert rc in (EXIT_OK, EXIT_VALIDATION)


def test_readme_command_line_examples_parse():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(ln) for ln in block.replace("\\\n", " ").splitlines()
                if ln.startswith("beamstab ")]
    assert [argv[1] for argv in commands] == [
        "certify", "simulate", "reconstruct", "sweep", "dump-matrices"
    ]
    for argv in commands:
        try:
            cli._build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {shlex.join(argv)}")


def test_benchmark_layers_run_against_the_library():
    # the per-layer harness calls the library directly; run it at minimal budget
    layers = _perfbench("layers")
    layers.BUDGET_S, layers.MIN_REPS, layers.STEP_NODE_STEPS = 0, 1, 256
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    expected = {m["name"] for m in declared if m["unit"] in ("us", "ms")} - {"cli.self_ms"}
    assert len(expected) == 25
    for command in ("reconstruct", "certify"):
        got = layers.measure(command, "helical", ["sim.n_cells=32", "sim.t_end=0.2"])
        assert set(got) == expected
        assert all(value >= 0.0 and unit in ("us", "ms") for value, unit in got.values())


def test_dump_matrices_command(tmp_path):
    rc = main(["dump-matrices", "--scenario", "straight-steel", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    text = (tmp_path / "straight-steel-matrices.csv").read_text()
    assert "# mass" in text and "# flux" in text
    assert "# params.rho = 7850.0" in text


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("BEAMSTAB_OUT", str(tmp_path / "envdir"))
    rc = main(["dump-matrices", "--scenario", "straight-toy"])
    assert rc == EXIT_OK
    assert (tmp_path / "envdir" / "straight-toy-matrices.csv").exists()


@pytest.mark.parametrize("case, reason", [
    ("--out names a file", "File exists"),
    ("$BEAMSTAB_OUT names a file", "File exists"),
    ("--out under a file", "Not a directory"),
    ("the CSV path is a directory", "Is a directory"),
    # certify forks at this N, and the child's 3.7 MB of rows fill the 1 MiB
    # pipe: it is blocked on a write when the report cannot be opened
    ("certify's report path is a directory", "Is a directory"),
])
def test_unwritable_output_path_exits_2(tmp_path, monkeypatch, capsys, case, reason):
    """An output path that cannot be written exits 2 naming it, not in a traceback."""
    (tmp_path / "file").write_text("")
    argv = ["dump-matrices", "--scenario", "straight-toy"]
    if case == "--out names a file":
        target = tmp_path / "file"
        argv += ["--out", str(target)]
    elif case == "$BEAMSTAB_OUT names a file":
        target = tmp_path / "file"
        monkeypatch.setenv("BEAMSTAB_OUT", str(target))
    elif case == "--out under a file":
        target = tmp_path / "file" / "out"
        argv += ["--out", str(target)]
    elif case == "the CSV path is a directory":
        target = tmp_path / "straight-toy-matrices.csv"
        target.mkdir()
        argv += ["--out", str(tmp_path)]
    else:
        target = tmp_path / "helical-certificate.csv"
        target.mkdir()
        argv = ["certify", "--scenario", "helical", "--override", "sim.n_cells=65536",
                "--out", str(tmp_path)]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == EXIT_VALIDATION
    assert f"error: cannot write {target}: {reason}" in err and "Traceback" not in err
    assert_no_child_left()


# The three columns that a change of OpenBLAS kernel moves beyond roundoff,
# with the largest move under OPENBLAS_CORETYPE=Prescott as a share of the
# column's max.  On an AVX-512 host, over eleven kernels forced in the first
# run (SkylakeX, Cooperlake, SapphireRapids, Haswell, Zen, Sandybridge,
# Nehalem, Core2, Barcelona, Bulldozer, Excavator), they moved by at most
# 3.94e-12, 3.78e-12 and 8.73e-13, and no other column by more than 5e-15.
KERNEL_MOVES = {"residual_centerline": 4e-12, "residual_rotation": 4e-12, "q2": 9e-13}


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="Prescott is an x86-64 OpenBLAS kernel")
@pytest.mark.parametrize("argv, moves", [
    (["reconstruct", "--scenario", "helical", "--override", "sim.n_cells=32",
      "--override", "sim.t_end=2.0"], KERNEL_MOVES),
    (["certify", "--scenario", "helical"], {}),
])
def test_outputs_on_another_blas_kernel(tmp_path, argv, moves):
    # every column keeps 1e-13 of its max under the oldest x86-64 kernel,
    # except the named ones, which keep their measured bounds
    outputs = _perfbench("outputs")
    runs = []
    for name, environ in (("as-is", {}), ("prescott", {"OPENBLAS_CORETYPE": "Prescott"})):
        proc = run_python(["-m", "beamstab.cli", *argv, "--out", str(tmp_path / name)],
                          **environ)
        assert proc.returncode == EXIT_OK, proc.stderr
        runs.append(outputs.columns(outputs.read_tree(tmp_path / name)))
    got, want = runs
    assert got.keys() == want.keys()
    for key, expected in want.items():
        value = got[key]
        if expected.dtype.kind != "f":
            assert np.array_equal(value, expected), key
            continue
        assert np.array_equal(np.isnan(value), np.isnan(expected)), key
        finite = ~np.isnan(expected)
        if not finite.any():
            continue
        bound = moves.get(key.rsplit("|", 1)[1], 1e-13)
        error = np.abs(value[finite] - expected[finite]).max()
        assert error <= bound * np.abs(expected[finite]).max(), (key, error)


def test_traced_attributes_resolve():
    for module_name, attr, _ in _perfbench("tracing").TRACED:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), attr


def test_version_defined_once():
    tomllib = pytest.importorskip("tomllib")
    data = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in data["project"]
    assert "version" in data["project"]["dynamic"]
    assert data["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "beamstab.__version__"}
    assert header_echo(load_scenario("helical"))["version"] == beamstab.__version__


def test_scenario_yaml_is_hierarchical():
    text = yaml.safe_dump(scenario_to_dict(load_scenario("straight-toy")), sort_keys=False)
    data = yaml.safe_load(text)
    assert set(data) == {"name", "params", "reference", "sim", "certificate", "datum"}
    assert isinstance(data["params"], dict)
