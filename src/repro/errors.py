"""Exception hierarchy for the DPDPU reproduction."""

from __future__ import annotations

__all__ = [
    "ReproError",
    "HardwareError",
    "CapacityError",
    "KernelUnavailableError",
    "SprocError",
    "NetworkError",
    "StorageError",
    "FileSystemError",
    "FileNotFoundOnDpuError",
    "OffloadRejected",
    "FaultInjectedError",
    "DeadlineExceededError",
    "RetriesExhaustedError",
    "ClusterError",
    "AdmissionRejected",
    "MigrationStalledError",
]


class ReproError(Exception):
    """Base class for all library-specific errors."""


class FaultInjectedError(ReproError):
    """An operation failed because the fault layer said so.

    Carries the fault ``site`` (e.g. ``"ssd.server.ssd0.read"``) and
    ``kind`` so recovery code and tests can tell injected faults apart
    from genuine contract violations.
    """

    def __init__(self, message: str, site: str = "", kind: str = ""):
        super().__init__(message)
        self.site = site
        self.kind = kind


class DeadlineExceededError(ReproError):
    """An operation missed its sim-time deadline.

    ``deadline_s`` is the budget that was exceeded (relative seconds).
    """

    def __init__(self, message: str, deadline_s: float = 0.0):
        super().__init__(message)
        self.deadline_s = deadline_s


class RetriesExhaustedError(ReproError):
    """A retried operation failed on every permitted attempt.

    ``attempts`` counts the tries made; ``last_cause`` is the final
    exception, preserved so callers can inspect the underlying fault.
    """

    def __init__(self, message: str, attempts: int = 0,
                 last_cause: Exception = None):
        super().__init__(message)
        self.attempts = attempts
        self.last_cause = last_cause


class HardwareError(ReproError):
    """A device model was used outside its contract."""


class CapacityError(HardwareError):
    """A memory region or device queue has no free capacity."""


class KernelUnavailableError(ReproError):
    """The requested DP-kernel placement does not exist on this DPU.

    Raised only by *specified* execution with ``strict=True``; the
    default Figure-6 contract is to return ``None`` so the sproc can
    fall back to another device.
    """


class SprocError(ReproError):
    """A stored procedure failed registration or execution."""


class NetworkError(ReproError):
    """Transport-level failure in the network substrate."""


class StorageError(ReproError):
    """Storage-path failure."""


class FileSystemError(StorageError):
    """Filesystem-level error (bad offset, unknown file, full disk)."""


class FileNotFoundOnDpuError(FileSystemError):
    """The DPU file service has no mapping for the requested file."""


class OffloadRejected(ReproError):
    """The offload engine declined a request (must go to the host)."""


class ClusterError(ReproError):
    """Cluster-layer failure (bad shard, dead owner, routing timeout)."""


class AdmissionRejected(ReproError):
    """Ingress admission control refused the request.

    Raised *before* any expensive work is scheduled — the point of
    admission control is that rejection costs a header parse, not a
    DPU round-trip.  ``reason`` is one of ``"rate_limit"``,
    ``"queue_full"`` or ``"deadline"``; ``retry_after_s``
    hints when the client should try again.
    """

    def __init__(self, message: str, reason: str = "",
                 retry_after_s: float = 0.0, tenant: str = ""):
        super().__init__(message)
        self.reason = reason
        self.retry_after_s = retry_after_s
        self.tenant = tenant


class MigrationStalledError(ClusterError):
    """A shard pull missed its per-shard deadline.

    ``shard`` identifies the transfer; ``attempts`` counts the pulls
    tried before giving up (the retry budget).
    """

    def __init__(self, message: str, shard: int = -1,
                 attempts: int = 0):
        super().__init__(message)
        self.shard = shard
        self.attempts = attempts
