"""Scenario files, presets and override handling.

A scenario bundles everything one run needs: beam parameters, the
undeformed shape, solver settings, certificate knobs and the initial-datum
recipe.  Files are YAML with exactly the keys of the dataclasses below;
unknown keys are rejected so typos cannot silently change an experiment.
"""

from __future__ import annotations

import numbers
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .errors import ScenarioError
from .model import PrecurvedReference, curved_reference
from .params import BeamMatrices, BeamParams, optimal_feedback
from .solver import SimConfig, round_trip_time

__all__ = [
    "ReferenceSpec",
    "CertificateSpec",
    "DatumSpec",
    "Scenario",
    "PRESETS",
    "load_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "apply_override",
    "build_reference",
    "header_echo",
]


@dataclass(frozen=True)
class ReferenceSpec:
    curvature: tuple = (0.0, 0.0, 0.0)           # constant; zero is a straight beam

    def validate(self) -> "ReferenceSpec":
        if len(self.curvature) != 3:
            raise ScenarioError(
                f"reference.curvature must be a 3-vector, got {list(self.curvature)}"
            )
        return self


@dataclass(frozen=True)
class CertificateSpec:
    m: int = 1
    phi0: float = 1.0
    phiL: float | None = None                    # None = automatic midpoint choice


@dataclass(frozen=True)
class DatumSpec:
    amplitude: float = 1e-2
    seed: int = 42
    order: int = 1


@dataclass(frozen=True)
class Scenario:
    name: str
    params: BeamParams
    reference: ReferenceSpec = field(default_factory=ReferenceSpec)
    sim: SimConfig = field(default_factory=SimConfig)
    certificate: CertificateSpec = field(default_factory=CertificateSpec)
    datum: DatumSpec = field(default_factory=DatumSpec)


def _toy_params() -> BeamParams:
    return BeamParams(
        rho=1.0, area=1.0, young=4.0, shear=1.0, moment2=1.0, moment3=1.0,
        k1=1.0, k2=1.0, k3=1.0, length=1.0, mu1=1.0, mu2=1.0,
    )


def _steel_params() -> BeamParams:
    # 20 cm square section, structural steel.  Slenderer sections push the
    # weight-generator rate 2 C_q1 L past the range of double-precision
    # exponentials (the admissible weight gap provably shrinks like
    # exp(-2 C_q1 x)), so the preset stays stocky enough to keep every
    # certificate margin representable.
    return BeamParams(
        rho=7850.0, area=4e-2, young=2.1e11, shear=8.1e10,
        moment2=1.3333333333333333e-04, moment3=1.3333333333333333e-04,
        k1=0.843, k2=0.85, k3=0.85, length=1.0, mu1=1.0, mu2=1.0,
    )


def _preset(name: str, params: BeamParams, reference: ReferenceSpec) -> Scenario:
    """The recipe every preset shares: optimal gains, N = 256, ten round trips recorded every step."""
    mu1, mu2 = optimal_feedback(params)
    params = replace(params, mu1=mu1, mu2=mu2)
    return Scenario(
        name=name,
        params=params,
        reference=reference,
        sim=SimConfig(n_cells=256, cfl=0.9, t_end=10.0 * round_trip_time(params), output_stride=1),
        certificate=CertificateSpec(m=1, phi0=1.0, phiL=None),
        datum=DatumSpec(amplitude=1e-2, seed=42, order=1),
    )


PRESETS = {scenario.name: scenario for scenario in (
    _preset("straight-toy", _toy_params(), ReferenceSpec()),
    _preset("straight-steel", _steel_params(), ReferenceSpec()),
    _preset("helical", _toy_params(), ReferenceSpec((1.0, 0.0, 0.5))),
)}


def _is_number(value) -> bool:
    # numpy reads a Python int as a number only within the int64 range
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and not (isinstance(value, numbers.Integral) and abs(value) >= 2**63))


# annotation -> (what the error message asks for, check).  Values are checked,
# not converted, so the scenario echo shows what was given (an int stays an int).
_EXPECTED = {
    float: ("a number", _is_number),
    int: ("an integer", lambda v: _is_number(v) and isinstance(v, numbers.Integral)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple: ("a list of numbers",
            lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v))),
}


def _from_mapping(cls, data, path):
    """Build ``cls`` from ``data``, checking each value against its field annotation."""
    if not isinstance(data, dict):
        raise ScenarioError(f"{path} must be a mapping")
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ScenarioError(f"unknown keys under {path}: {', '.join(sorted(map(str, unknown)))}")
    missing = {f.name for f in fields(cls)
               if f.default is MISSING and f.default_factory is MISSING} - set(data)
    if missing:
        raise ScenarioError(f"missing keys under {path}: {', '.join(sorted(missing))}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        options = typing.get_args(hints[key]) or (hints[key],)
        what, check = _EXPECTED[options[0]]
        if not (check(value) or (value is None and type(None) in options)):
            raise ScenarioError(f"{path}.{key} must be {what}, got {value!r}")
        kwargs[key] = tuple(float(v) for v in value) if key == "curvature" else value
    return cls(**kwargs)


_SECTIONS = {
    "params": BeamParams,
    "reference": ReferenceSpec,
    "sim": SimConfig,
    "certificate": CertificateSpec,
    "datum": DatumSpec,
}


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a mapping")
    unknown = set(data) - (set(_SECTIONS) | {"name"})
    if unknown:
        raise ScenarioError(f"unknown top-level keys: {', '.join(sorted(map(str, unknown)))}")
    if "name" not in data or "params" not in data:
        raise ScenarioError("scenario needs at least 'name' and 'params'")
    name = data["name"]
    if not isinstance(name, str):
        raise ScenarioError(f"name must be a string, got {name!r}")
    # the name is the stem of every output file and is echoed on one line of
    # each, so it holds no path separator, line break or other control character
    if not (0 < len(name) <= 200 and name.isprintable()) or any(c in name for c in "/\\"):
        raise ScenarioError(
            f"name must be 1 to 200 printable characters without / or \\, got {name!r}"
        )
    kwargs = {"name": name}
    for key, cls in _SECTIONS.items():
        if key in data:
            kwargs[key] = _from_mapping(cls, data[key], key)
    scenario = Scenario(**kwargs)
    scenario.params.validate()
    scenario.reference.validate()
    scenario.sim.validate()
    return scenario


def _plain(value):
    """Coerce numpy scalars/sequences to plain Python types for YAML."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def scenario_to_dict(scenario: Scenario) -> dict:
    data = {"name": scenario.name}
    for key in _SECTIONS:
        data[key] = {k: _plain(v) for k, v in asdict(getattr(scenario, key)).items()}
    return data


def load_scenario(source: str) -> Scenario:
    """Scenario from a YAML file path, or a preset name if no such file exists.

    Only a regular file is read, so a directory named like a preset (which
    ``--out <preset>`` creates) does not hide the preset.
    """
    path = Path(source)
    if path.is_file():
        try:
            data = yaml.safe_load(path.read_text())
        except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
            raise ScenarioError(f"cannot parse {source}: {exc}") from exc
        return scenario_from_dict(data)
    if source in PRESETS:
        return PRESETS[source]
    raise ScenarioError(
        f"{source!r} is neither a scenario file nor a preset; "
        f"presets: {', '.join(sorted(PRESETS))}"
    )


def _number(value):
    """``value`` as an int or float when it is a string spelling one."""
    if isinstance(value, str):
        for convert in (int, float):
            try:
                return convert(value)
            except ValueError:
                pass
    return value


def apply_override(scenario: Scenario, dotted: str) -> Scenario:
    """Apply one 'section.key=value' override, value parsed as YAML.

    Bare scientific notation like 1e-9 is not a YAML 1.1 float; strings
    that parse as Python numbers, alone or as list items, are converted so
    overrides behave the way a command line user expects.
    """
    if "=" not in dotted:
        raise ScenarioError(f"override must look like section.key=value, got {dotted!r}")
    target, raw_value = dotted.split("=", 1)
    parts = target.strip().split(".")
    try:
        value = yaml.safe_load(raw_value)
    except yaml.YAMLError:
        raise ScenarioError(f"cannot parse the value of {target!r} as YAML: {raw_value!r}") from None
    value = [_number(v) for v in value] if isinstance(value, list) else _number(value)
    data = scenario_to_dict(scenario)
    node = data
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ScenarioError(f"unknown override path {target!r}")
        node = node[part]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ScenarioError(f"unknown override path {target!r}")
    node[leaf] = value
    return scenario_from_dict(data)


def build_reference(
    scenario: Scenario, matrices: BeamMatrices | None = None
) -> PrecurvedReference:
    """The scenario's reference shape, a straight one being zero curvature.

    ``matrices`` are the scenario's derived matrices if the caller holds them.
    """
    return curved_reference(
        scenario.params, scenario.sim.n_cells, scenario.reference.curvature, matrices
    )


def header_echo(scenario: Scenario) -> dict:
    """Flat key=value view of a scenario for CSV headers (full reproducibility)."""
    out = {"name": scenario.name, "version": __version__}
    data = scenario_to_dict(scenario)
    for section in _SECTIONS:
        out.update((f"{section}.{key}", value) for key, value in data[section].items())
    return out
