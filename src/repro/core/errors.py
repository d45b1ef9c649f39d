"""Protocol-level errors surfaced to Sift applications.

All derive from :class:`repro.errors.ReproError`; ``SiftError`` remains
the subsystem base so existing ``except SiftError`` clauses still catch
everything raised here.
"""

from repro.errors import ReproError

__all__ = [
    "SiftError",
    "GroupUnavailable",
    "Deposed",
    "InvalidAccess",
    "RecoveryIntegrityError",
    "UntrustedSourceError",
]


class SiftError(ReproError):
    """Base class for Sift protocol errors."""


class GroupUnavailable(SiftError):
    """Fewer than Fm + 1 live memory nodes: progress is impossible (§3.4)."""

    retryable = True  # nodes restart / the backup pool promotes


class Deposed(SiftError):
    """A newer coordinator took over mid-operation; retry against it."""

    retryable = True


class InvalidAccess(SiftError):
    """An address range outside the replicated memory, or a misuse of zones."""


class RecoveryIntegrityError(SiftError):
    """Memory-node recovery's verify step found a hole.

    Raised before the status word would be stamped when the union of
    copied fragments fails to tile the address space exactly (gap,
    overlap, or a partition shorter than its declared range).  The
    rejoining node stays untrusted and a later poll retries the copy.
    """

    retryable = True  # the copy restarts from scratch on the next poll


class UntrustedSourceError(SiftError):
    """A recovery source refused to serve fragments: it is not initialised.

    A memory node that restarted unnoticed (no apply traffic has failed
    toward it yet) still shows as live in the coordinator's state map,
    but its region is cleared and its status word reads UNINITIALISED.
    Commanded to push recovery fragments, such a node must refuse —
    otherwise it would feed zeroed pages to the rejoining node.  The
    coordinator reacts by marking the refusing source dead so the
    poller recovers *it* first, then retries the original node.
    """

    retryable = True  # the refusing source gets recovered, then we retry
