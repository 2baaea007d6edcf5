"""Exception types shared across the package.

Everything raised on purpose derives from CircoverError so callers (and the
CLI) can tell library errors from genuine bugs. The classes below it are the
three things a caller does next:

- BadParameters: fix the input. The CLI prints the message and exits 1.
- BudgetExceeded: a cap was hit, so the answer is partial. The CLI writes
  the partial JSON with the message under "error" and exits 2 (`facets`
  instead flags every facet "unknown" and exits 0).
- CertificateError: an exact answer failed its check, which is a bug to
  report. The CLI prints the message and exits 1.

The message says which check failed. Every failed check raises, internal
cross-checks included: the package holds no assert statement, so
`python -O` keeps every check.
"""


class CircoverError(Exception):
    """Base class for all library errors."""


class BadParameters(CircoverError):
    """The input is invalid for the requested operation."""


class BudgetExceeded(CircoverError):
    """An enumeration or iteration cap was hit before the answer was complete."""


class CertificateError(CircoverError):
    """An exact answer failed its certificate check (raised, so -O keeps it)."""
