"""Exception types shared across the package."""


class SolverError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SolverError):
    """Operand shapes are incompatible with the declared dimensions."""


class NonConvergence(SolverError):
    """An iterative routine exhausted its budget before reaching tolerance."""


class IndexOutOfRange(SolverError):
    """A group or edge definition references a coordinate outside the range."""


class SelfLoop(SolverError):
    """A difference-operator edge joins a node to itself."""


class UnknownKind(SolverError):
    """A mode, setting, problem kind or class this module does not recognize."""


class BadLabels(SolverError):
    """Classification labels must take values in {-1, +1}."""


class DegenerateProblem(SolverError):
    """Problem data is degenerate (zero operator, empty groups, and alike)."""


class NonFiniteIterate(SolverError):
    """An iterate left the representable range (overflow or NaN)."""


class ConstraintViolation(SolverError):
    """A schedule or step-size validity condition fails."""


class UnsupportedMode(SolverError):
    """The requested variant has no convergence guarantee in this setting."""


class TooManyWorkers(SolverError):
    """More shards were requested than there are feature columns."""


class InsufficientData(SolverError):
    """Too few usable points remain to fit the requested diagnostic."""


class InsufficientInactives(SolverError):
    """The graph generator cannot draw enough distinct inactive targets."""


class ConfigError(SolverError):
    """An experiment configuration is malformed or inconsistent."""


class ResidualTooLarge(UserWarning):
    """A reference solve stopped above its residual target (best effort)."""
