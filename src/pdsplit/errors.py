"""Exception types shared across the package, and the input domains they guard."""

import numbers
from dataclasses import dataclass, field, fields

import numpy as np


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


class DegenerateProblem(SolverError):
    """Problem data is degenerate (zero operator, empty groups, and alike)."""


class NonFiniteIterate(SolverError):
    """An iterate left the representable range (overflow or NaN)."""


class ConstraintViolation(SolverError):
    """An input leaves its domain, or a schedule or step-size validity
    condition fails."""


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


def _is_index(value):
    """Whether ``value`` is an integer, of Python or numpy type (a bool is not)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value):
    """Whether ``value`` is a real number, of Python or numpy type (a bool is not)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class _Domain:
    """The values of one input, which :meth:`check` tests.

    ``kind`` is ``"real"``, ``"index"`` (an integer; a bool is not a
    number), ``"bool"`` or ``"word"``, which refuses with :class:`UnknownKind`.
    A number lies in ``interval``, whose brackets close its ends (``"(0,
    inf]"`` holds ``inf``; none holds NaN).  The strings ``words`` are
    values, and ``None`` is one when ``none`` is set.
    """

    kind: str
    interval: str = "(-inf, inf)"
    none: bool = False
    words: tuple = ()

    def check(self, name, value):
        """Return ``value`` if the domain holds it, else raise naming ``name``."""
        if value is None and self.none or isinstance(value, str) and value in self.words:
            return value
        if self.kind == "word":
            raise UnknownKind(f"unknown {name} {value!r}, expected one of {self.words}")
        if self.kind == "bool":
            inside, noun = isinstance(value, bool), "True or False"
        else:
            lo, hi = (float(end) for end in self.interval[1:-1].split(","))
            inside = ((_is_index if self.kind == "index" else _is_real)(value)
                      and (lo < value or self.interval[0] == "[" and value == lo)
                      and (value < hi or self.interval[-1] == "]" and value == hi))
            finite = "inf]" not in self.interval and "[-inf" not in self.interval
            noun = ("an integer" if self.kind == "index" else
                    f"a {'finite' if finite else 'real'} number") + f" in {self.interval}"
        if inside:
            return value
        words = "".join(f"{word!r} or " for word in self.words)
        raise ConstraintViolation(f"{name} must be {words}{noun}"
                                  f"{' or None' if self.none else ''}, got {value!r}")


def _arg(default, kind, interval="(-inf, inf)", words=()):
    """A record field: its default and its :class:`_Domain`, which holds
    ``None`` exactly when that is the default."""
    return field(default=default,
                 metadata={"domain": _Domain(kind, interval, default is None, words)})


def _check_fields(record, **values):
    """Check a record's fields against their declared domains or, given
    ``values``, bare values against those of the record class's namesakes."""
    declared = {f.name: f.metadata["domain"] for f in fields(record)}
    for name, value in (values or vars(record)).items():
        declared[name].check(name, value)
