"""Exception taxonomy shared across the package."""


class OrbitRecurError(Exception):
    """Base class for all package errors."""


class InvalidSystemError(OrbitRecurError, ValueError):
    """Transition matrix or measure parameters violate an invariant."""


class IncompatibleMeasureError(OrbitRecurError, ValueError):
    """Measure and transition system do not fit together."""


class ReducibleChainError(OrbitRecurError, ValueError):
    """Stochastic matrix is not irreducible; no unique stationary vector."""


class DegenerateMeasureError(OrbitRecurError, ValueError):
    """Some state carries zero mass or is unreachable."""


class CrossCheckError(OrbitRecurError, ArithmeticError):
    """Two independent computations of the same quantity disagree."""


class ConvergenceError(OrbitRecurError, ArithmeticError):
    """An iteration used up its step budget before meeting its tolerance."""


class ResampleSignal(OrbitRecurError):
    """Orbit generation hit a partition endpoint; caller should redraw."""


class UnresolvedReturn(OrbitRecurError, RuntimeError):
    """First-return iteration exceeded its step budget."""


class PrecisionFloorError(OrbitRecurError, ValueError):
    """Requested scale is below the floating-point noise floor."""


class EnumerationBudgetError(OrbitRecurError, ValueError):
    """Exact enumeration would exceed the configured budget."""


class CollisionDegeneracyError(OrbitRecurError, RuntimeError):
    """No collisions observed; block length too large for the sample size."""


class FitRefusedError(OrbitRecurError, ValueError):
    """Too few usable points (or too many excluded) for a trustworthy fit."""


class ConfigError(OrbitRecurError, ValueError):
    """Experiment configuration is malformed or inconsistent."""


class IncompleteRecordError(OrbitRecurError, ValueError):
    """Experiment record is missing too many cells to be verified."""
