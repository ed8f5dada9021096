"""Exception hierarchy shared across the package.

Every domain error derives from LvrLabError so callers (and the CLI) can
distinguish precondition violations from genuine tolerance failures.
"""

from __future__ import annotations


class LvrLabError(Exception):
    """Base class for all package-specific errors."""


class CutProximity(LvrLabError):
    """Evaluation point lies on or too close to the branch cut."""


class ContinuationFailure(LvrLabError):
    """Newton homotopy continuation stalled before reaching the target."""


class BranchPoint(LvrLabError):
    """Derivative requested at (or numerically at) the algebraic branch point."""


class QuadratureFailure(LvrLabError):
    """A quadrature did not certify the requested accuracy."""


class LogBranchAmbiguity(LvrLabError):
    """A log argument of the action left the half-plane Re w > 0, where the
    principal log is the branch continued from zero coupling."""


class DegenerateSpectrum(LvrLabError):
    """Two eigenvalues coincide beyond the resolution of divided differences."""


class SingularMatrix(LvrLabError):
    """A matrix that must be inverted is singular to working tolerance."""


class BadGeometry(LvrLabError):
    """Contour or domain parameters violate the required geometric constraints."""


class ToleranceNotMet(LvrLabError):
    """A verification quantity exceeded its required tolerance."""


class DivergentIntegrand(LvrLabError):
    """The requested integral does not converge for these parameters."""


class SizeBound(LvrLabError):
    """Combinatorial enumeration size exceeds the supported bound."""
