"""Exception hierarchy shared across the package, and its resource limits.

Each class maps onto one CLI exit code so that failures surface uniformly:
validation problems exit 2, resource caps exit 3, solver non-convergence
exits 4.
"""

# the most bytes that one build may be estimated to need
MEMORY_CAP = 2 * 1024**3
# the largest sector, in determinants, that is enumerated whole
SECTOR_CAP = 10**6


class HsqdError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ValidationError(HsqdError):
    """Malformed input, violated invariant, or inconsistent configuration."""

    exit_code = 2


class CapExceededError(HsqdError):
    """A resource cap (``MEMORY_CAP`` or ``SECTOR_CAP``) was hit."""

    exit_code = 3


class ConvergenceError(HsqdError):
    """An iterative solver failed to reach its tolerance."""

    exit_code = 4


def check_cap(what: str, estimate: int, unit: str = "bytes") -> int:
    """Refuse ``what`` when its estimate is over the cap: bytes against
    ``MEMORY_CAP``, or "determinants" against ``SECTOR_CAP``, both read at
    this call.  Returns the room left under the cap."""
    kind, cap = ("memory", MEMORY_CAP) if unit == "bytes" else ("sector", SECTOR_CAP)
    if estimate > cap:
        raise CapExceededError(f"{what} needs {estimate:,} {unit}, over the {kind} cap of {cap:,} {unit}")
    return cap - estimate
