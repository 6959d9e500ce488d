"""Exception taxonomy: three families, nine leaves, one name per failure.

The families map to CLI exit codes in :mod:`alleekit.cli`:

* :class:`ConfigError` (exit 2): the input asks for something the model
  or the requested analysis cannot give.

  - :class:`ParseError`: the config text is malformed.
  - :class:`ValidationError`: the config parses but breaks a precondition.
  - :class:`OutOfRange`: a state, formula or window does not exist here.
  - :class:`HypothesisFailed`: a hypothesis of the statement is false.

* :class:`NumericalError` (exit 3): a computation produced garbage.

  - :class:`NonFinite`: NaN/Inf, or an orbit left its admissible region.
  - :class:`SingularJacobian`: a linear solve met a singular matrix.

* :class:`ConvergenceError` (exit 4): an iteration ran honestly and did not
  converge, or a search found nothing in the requested range.

  - :class:`NoRoot`: a search interval holds no sign change or crossing.
  - :class:`NoConvergence`: an iteration or estimate did not settle.
  - :class:`Inconclusive`: the data are too short or ambiguous to classify.

Library callers catch the family; a leaf names the kind of failure, and
the message says where it happened. Add a leaf only when code catches it
by name or when no leaf above names that kind of failure; otherwise raise
the existing leaf with a message that tells the cases apart.

A call whose arguments break its documented precondition (a non-positive
length, speed or diffusion ratio, a wrong array shape, an unknown scheme
name) raises ValueError, not a leaf. No valid config reaches such a raise,
since :mod:`alleekit.config` refuses that input first, so it marks a
programming error, as a TypeError would, and the CLI maps it to no exit
code.
"""

from __future__ import annotations

__all__ = [
    "ToolkitError",
    "ConfigError",
    "ParseError",
    "ValidationError",
    "OutOfRange",
    "HypothesisFailed",
    "NumericalError",
    "NonFinite",
    "SingularJacobian",
    "ConvergenceError",
    "NoRoot",
    "NoConvergence",
    "Inconclusive",
]


class ToolkitError(Exception):
    """Base class of every failure this package names; a broken argument
    precondition raises ValueError instead (see the module docstring)."""


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


class OutOfRange(ConfigError):
    """A state, closed-form expression or spatial window was requested
    where it does not exist: no coexisting or prey-only state, a formula
    outside its validity window, or a center pulse [L/2 - 5, L/2 + 5]
    that does not fit a domain shorter than 10."""


class HypothesisFailed(ConfigError):
    """An explicit hypothesis of the statement being evaluated is false:
    a Turing-band or non-existence-bound hypothesis, or a Hopf condition
    (trace zero, det(J) > 0, transversal crossing) at the given point."""


class NumericalError(ToolkitError):
    """Computation produced an unusable result (CLI exit code 3)."""


class NonFinite(NumericalError):
    """NaN/Inf appeared in a state, residual, or matrix, or an orbit left
    the admissible region before any verdict was reached."""


class SingularJacobian(NumericalError):
    """A linear solve met a numerically singular matrix."""


class ConvergenceError(ToolkitError):
    """Honest non-convergence or empty search (CLI exit code 4)."""


class NoRoot(ConvergenceError):
    """A search interval holds nothing to find: no root of a scanned
    function, no sign change across a root or bisection bracket, or no
    crossing of a profile through a level."""


class NoConvergence(ConvergenceError):
    """An iterative solve or estimate did not converge: Newton or the
    arclength corrector ran out of iterations, the arclength step fell
    below its floor, the ODE integrator's step fell below the float
    spacing or it ran past its budget of ``temporal.ODE_MAX_STEPS``
    attempted steps, the eigensolver stalled, collocation needed more
    than its node budget or left a boundary residual above tolerance on
    a resolved mesh, a travelling-wave orbit did not stay in its target
    ball, an orbit reached its time ceiling with no verdict, or a running
    estimate (the Lyapunov exponent) did not settle."""


class Inconclusive(ConvergenceError):
    """The data window is too short or too ambiguous to classify."""
