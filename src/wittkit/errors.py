"""Failure modes that callers are expected to catch and report."""


class WittkitError(Exception):
    """Base class for all package errors."""


class UsageError(WittkitError):
    """Malformed input or an unsupported parameter combination."""


def require_int(value, what: str) -> int:
    """value if it is an int (a bool is not), else a UsageError naming what."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise UsageError(f"{what} must be an integer, got {value!r}")


class InsufficientBoundError(WittkitError):
    """An enumeration bound was too small to close a computation.

    Carries enough context to suggest a retry; never a silent wrong answer.
    """


class BoundExhaustedError(InsufficientBoundError):
    """A truncated vector ran out of components mid-computation."""


class PrecisionError(WittkitError):
    """Working precision cannot certify the requested comparison."""


class NoRelationError(WittkitError):
    """Integer-relation search found no polynomial within the degree cap."""


class CertificationError(WittkitError):
    """An exactness certificate (rounding, divisibility, labeling) failed."""
