"""Exception types shared across the package.

The CLI maps ScenarioError to exit code 2 (bad input) and
InfeasibleScenario (and subclasses) to exit code 3 (valid input, but the
requested operating point cannot work physically).
"""


class ScenarioError(ValueError):
    """A configuration or scenario violates a model invariant."""


class NegativeIdleError(ScenarioError):
    """Preamble listening would not fit in the 1 s gap before window 1."""


class InfeasibleScenario(RuntimeError):
    """The scenario can never complete the requested operation."""


class NoFeasibleCapacitance(InfeasibleScenario):
    """No capacitance within the search bounds supports the cycle."""

