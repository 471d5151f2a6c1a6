"""Exception hierarchy shared by every subpackage.

Keeping the exceptions in a single module lets callers catch
:class:`ReproError` to handle any library-raised failure, while still being
able to discriminate precise error classes (configuration problems, privacy
denials, unknown identifiers, ...).
"""


class ReproError(Exception):
    """Base class of every exception raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A configuration value is out of range or inconsistent."""


class UnknownPeerError(ReproError, KeyError):
    """An operation referenced a peer identifier that does not exist."""


class UnknownDataError(ReproError, KeyError):
    """An operation referenced a data item that was never published."""


class PrivacyViolationError(ReproError):
    """An access was attempted that the owner's privacy policy forbids."""


class AccessDeniedError(PrivacyViolationError):
    """The privacy service denied a request (normal, policy-driven denial)."""


class AllocationError(ReproError):
    """The query mediator could not allocate a query to any provider."""


class TemplateError(ConfigurationError):
    """A declarative scenario template is malformed.

    ``path`` locates the offending field inside the document with a
    dotted/indexed path (e.g. ``tiers.large.rounds`` or ``campaign.events[2].round``).
    """

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class CheckpointError(ReproError):
    """A checkpoint file is unreadable, corrupt, or incompatible.

    Raised for missing files, foreign formats, unsupported versions,
    truncated payloads, SHA-256 mismatches and state/hook shape mismatches
    on restore.  Deliberately *not* a :class:`ConfigurationError`: a bad
    checkpoint is damaged state, not a bad parameter.
    """


class IntegrityError(ReproError):
    """A record artifact failed its integrity verification.

    Covers truncated or bit-flipped record files and journals detected by
    the SHA-256 sidecar/per-line checksums (``verify-records``).
    """


class InjectedFault(ReproError):
    """An exception raised on purpose by the fault-injection layer.

    Only ever raised by :func:`repro.faults.fire` when an active
    :class:`~repro.faults.FaultPlan` says so; seeing one outside a chaos
    test means a plan leaked into the environment (``REPRO_FAULTS``).
    """


class OverloadError(ReproError):
    """The serving layer shed a request because it is saturated.

    Maps to HTTP ``429`` with a ``Retry-After`` hint.  Raised by the
    bounded admission gate and the per-client token-bucket rate limiter;
    the request was *not* processed and can safely be retried later.

    ``retry_after`` is the suggested wait in seconds before retrying.
    """

    def __init__(self, message: str, *, retry_after: float = 0.0) -> None:
        self.retry_after = retry_after
        super().__init__(message)


class ReadOnlyError(ReproError):
    """The service refused a write because it is in read-only mode.

    Maps to HTTP ``503``.  Entered when the write-ahead log can no longer
    guarantee durability (append failure) or when an operator flips the
    service read-only; reads keep answering from the stale watermark.
    """

    def __init__(self, message: str, *, retry_after: float = 0.0) -> None:
        self.retry_after = retry_after
        super().__init__(message)


class CircuitOpenError(ReproError):
    """The resilient client's circuit breaker is open.

    The client refused to issue a request because recent consecutive
    failures tripped the breaker; it will half-open after the configured
    reset interval and probe with a single request.
    """


class RequestFailedError(ReproError):
    """The resilient client exhausted its retry budget.

    Carries the final HTTP status (``status``, or ``None`` when the
    failure was transport-level) and the number of attempts made.
    """

    def __init__(
        self,
        message: str,
        *,
        status: int | None = None,
        attempts: int = 0,
    ) -> None:
        self.status = status
        self.attempts = attempts
        super().__init__(message)
