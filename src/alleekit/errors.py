"""Exception taxonomy.

Three families, mapped to CLI exit codes by :mod:`alleekit.cli`:

* :class:`ConfigError` (exit 2): the input file or argument set is wrong.
* :class:`NumericalError` (exit 3): a computation produced garbage
  (non-finite state, singular matrix, orbit left the admissible region).
* :class:`ConvergenceError` (exit 4): an iteration ran honestly and did not
  converge, or a search found nothing in the requested range.

Library callers catch the family; the leaf classes exist so tests and error
messages can name the precise failure.
"""

from __future__ import annotations

__all__ = [
    "ToolkitError",
    "ConfigError",
    "ParseError",
    "ValidationError",
    "NumericalError",
    "NonFinite",
    "SingularJacobian",
    "Escaped",
    "ConvergenceError",
    "NoSignChange",
    "BracketInvalid",
    "NoRoot",
    "NoConvergence",
    "NotConverged",
    "StepSizeUnderflow",
    "EigSolverStall",
    "KernelNotFound",
    "FellBackToParent",
    "NoCrossing",
    "Inconclusive",
    "Timeout",
    "DomainError",
    "DegenerateKinetics",
    "OutOfRange",
    "NotApplicable",
    "NotAtHopf",
    "C1Violated",
    "HypothesisFailed",
    "BadSupport",
]


class ToolkitError(Exception):
    """Base class for everything raised deliberately by this package."""


class ConfigError(ToolkitError):
    """Bad input file or argument set (CLI exit code 2)."""


class ParseError(ConfigError):
    """Config text could not be parsed; carries every error, not the first.

    ``messages`` is a list of ``"line N: ..."`` strings.
    """

    def __init__(self, messages: list[str]):
        self.messages = list(messages)
        super().__init__("\n".join(self.messages))


class ValidationError(ConfigError):
    """Config parsed but violates a precondition; collects all violations."""

    def __init__(self, messages: list[str]):
        self.messages = list(messages)
        super().__init__("\n".join(self.messages))


class DomainError(ConfigError):
    """Arguments outside a function's admissible parameter region.

    Grouped under ConfigError because a driver run only hits these when the
    config asked for something the model cannot express.
    """


class DegenerateKinetics(DomainError):
    """Parameter combination collapses the interaction structure."""


class OutOfRange(DomainError):
    """A closed-form expression was requested outside its validity window."""


class NotApplicable(DomainError):
    """The requested bound/diagnostic does not exist for these parameters."""


class NotAtHopf(DomainError):
    """A Hopf-specific computation was requested away from trace = 0."""


class C1Violated(DomainError):
    """A Hopf genericity condition (determinant sign or transversality)
    failed at the located trace zero."""


class HypothesisFailed(DomainError):
    """An explicit hypothesis of the statement being evaluated is false."""


class BadSupport(DomainError):
    """A requested spatial support window is empty or leaves the domain."""


class NumericalError(ToolkitError):
    """Computation produced an unusable result (CLI exit code 3)."""


class NonFinite(NumericalError):
    """NaN/Inf appeared in a state, residual, or matrix."""


class SingularJacobian(NumericalError):
    """A linear solve met a numerically singular matrix."""


class Escaped(NumericalError):
    """An orbit left the admissible region before any verdict was reached."""


class ConvergenceError(ToolkitError):
    """Honest non-convergence or empty search (CLI exit code 4)."""


class NoSignChange(ConvergenceError):
    """Root bracket endpoints have the same sign."""


class BracketInvalid(ConvergenceError):
    """Bisection endpoints classify identically; no threshold inside."""


class NoRoot(ConvergenceError):
    """A scanned interval contains no root of the target function."""


class NoConvergence(ConvergenceError):
    """Newton (or damped Newton) exhausted its iteration budget."""


class NotConverged(ConvergenceError):
    """A running estimate failed its convergence criterion."""


class StepSizeUnderflow(ConvergenceError):
    """Adaptive step control pushed the step below its floor."""


class EigSolverStall(ConvergenceError):
    """Iterative eigensolver did not converge after restarts."""


class KernelNotFound(ConvergenceError):
    """Inverse iteration found no near-null vector at a branch point."""


class FellBackToParent(ConvergenceError):
    """Branch switching converged back onto the branch it started from."""


class NoCrossing(ConvergenceError):
    """A profile never crosses the requested level."""


class Inconclusive(ConvergenceError):
    """The data window is too short or too ambiguous to classify."""


class Timeout(ConvergenceError):
    """An orbit reached its time ceiling with no verdict."""
