"""Exception types shared across the package."""


class BeamstabError(Exception):
    """Base class for all package errors."""


class ValidationError(BeamstabError):
    """One or more input fields are invalid.

    Collects every offending field before raising, so the message names
    all of them at once.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))

    def __reduce__(self):
        return type(self), (self.problems,)


class WindowViolation(BeamstabError):
    """Requested weight endpoint lies outside the admissible window."""


class CkappaDegenerate(BeamstabError):
    """Reflection bound equals one, the weight window is empty."""


class CFLViolation(BeamstabError):
    """Simulation configuration violates the CFL constraint."""


class BlowupDetected(BeamstabError):
    """State magnitude crossed the blow-up threshold during a run."""

    def __init__(self, time, magnitude):
        self.time = time
        self.magnitude = magnitude
        super().__init__(f"state blew up at t={time:.6g} (max |r| = {magnitude:.3g})")

    def __reduce__(self):
        return type(self), (self.time, self.magnitude)


class NonPositiveValues(BeamstabError):
    """Decay fitting requires strictly positive samples."""


class ZeroQuaternion(BeamstabError):
    """Quaternion has (numerically) zero norm and cannot be normalized."""


class NotARotation(BeamstabError):
    """Matrix is not orthogonal with determinant one within tolerance."""


class EndpointMismatch(BeamstabError):
    """Initial centerline does not meet the clamped position."""


class ScenarioError(BeamstabError):
    """Scenario file is malformed or contains unknown keys."""
