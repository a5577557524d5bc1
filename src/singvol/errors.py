"""Exception hierarchy shared by every module.

Each class carries the exit code the command line ends with, as
``exit_code``, and subclasses inherit it: 1 for :class:`SingvolError` and
:class:`DomainError`, 2 for :class:`MalformedInputError` and 3 for
:class:`InternalConsistencyError`.
Each error carries a machine-readable ``reason`` slug next to the human
message so reports stay diffable, and optionally a ``context`` mapping that
says where it happened (for instance the seed and case of a random suite).
"""

from __future__ import annotations


class SingvolError(Exception):
    """Base class for all errors raised by this package."""

    reason: str = "error"
    exit_code: int = 1

    def __init__(self, message: str, *, reason: str | None = None,
                 context: dict | None = None) -> None:
        super().__init__(message)
        if reason is not None:
            self.reason = reason
        self.context = context


class MalformedInputError(SingvolError):
    """Input violates the documented schema or structural preconditions."""

    reason = "malformed-input"
    exit_code = 2


class DomainError(SingvolError):
    """Input is well formed but outside the operation's domain."""

    reason = "domain-error"


class SingularSystemError(DomainError):
    """A linear system that should be uniquely solvable is singular."""

    reason = "singular-system"


class OracleSizeError(DomainError):
    """An exponential-cost oracle was asked to run beyond its size bound."""

    reason = "oracle-size"


class InternalConsistencyError(SingvolError):
    """A mathematical invariant the implementation guarantees was violated.

    This never indicates bad user input; it means a bug and is reported
    loudly instead of being repaired silently.
    """

    reason = "internal-consistency"
    exit_code = 3
