"""Exception types shared across the package.

Everything raised on purpose derives from CircoverError so callers (and the
CLI) can tell library errors from genuine bugs. Every failed check raises a
CircoverError subclass, internal cross-checks included (CertificateError):
the package holds no assert statement, so `python -O` keeps every check.
"""


class CircoverError(Exception):
    """Base class for all library errors."""


class CertificateError(CircoverError):
    """An exact answer failed its certificate check (raised, so -O keeps it)."""


class BoundViolation(CircoverError):
    """A structural parameter is outside its allowed range."""


class DuplicateRow(CircoverError):
    """Two rows of a circular matrix coincide."""


class EmptyColumnSet(CircoverError):
    """A column deletion would remove every column."""


class NotInterval(CircoverError):
    """A node set is not a circular interval (or misses its own node)."""


class NotClosedPath(CircoverError):
    """An arc sequence does not chain into a closed path."""


class InfeasiblePoint(CircoverError):
    """The queried point violates the fractional covering constraints."""


class NonpositiveWinding(CircoverError):
    """A closed path winds zero or negative times, no inequality exists."""


class BadParameters(CircoverError):
    """Parameters are structurally invalid for the requested operation."""


class ReverseRowArcPresent(CircoverError):
    """Node classification is defined only without reverse row arcs."""


class NoEssentialBullets(CircoverError):
    """Block decomposition needs at least one essential plain node."""


class NegativeWeight(CircoverError):
    """Optimization over an up-closed region needs non-negative weights."""


class BudgetExceeded(CircoverError):
    """The instance is beyond the configured enumeration budget."""


class NegativeCoefficient(CircoverError):
    """Validity checking is restricted to non-negative coefficients."""


class IterationLimit(CircoverError):
    """The cutting-plane loop hit its iteration cap."""
