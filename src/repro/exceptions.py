"""Exception types shared across the :mod:`repro` package.

Keeping a small, explicit exception hierarchy lets callers distinguish
user errors (bad arguments, malformed files) from internal invariant
violations (a summary that no longer represents its input graph).
"""

from __future__ import annotations

__all__ = [
    "CompressionError",
    "ConfigurationError",
    "ContainerFormatError",
    "DatasetError",
    "GraphFormatError",
    "InvalidGraphError",
    "InvalidStateError",
    "JobCancelled",
    "JobTimeoutError",
    "LintError",
    "LossyBoundError",
    "ReproError",
    "ServiceClosedError",
    "ServiceError",
    "ServiceSaturatedError",
    "StreamError",
    "SummaryInvariantError",
    "TelemetryError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class GraphFormatError(ReproError):
    """Raised when an edge-list file or graph description cannot be parsed."""


class ContainerFormatError(GraphFormatError):
    """Raised when a binary graph container is malformed or corrupted.

    Covers bad magic/version, truncated files, out-of-range sections,
    and checksum mismatches in the :mod:`repro.storage` container format.
    A corrupted container must fail loudly here — never deserialize into
    a silently wrong graph.
    """


class InvalidGraphError(ReproError):
    """Raised when a graph violates the simple-undirected-graph contract."""


class SummaryInvariantError(ReproError):
    """Raised when a summary fails to represent its input graph exactly.

    Lossless summarization is the core contract of this library; any
    operation that would silently break it raises this error instead.
    """


class ConfigurationError(ReproError):
    """Raised when an algorithm is configured with invalid parameters."""


class InvalidStateError(ReproError, RuntimeError):
    """Raised when an operation is invalid for an object's lifecycle state.

    Examples: mutating a read-only graph view, building a view whose
    label index does not cover its substrate, stopping a stopwatch that
    was never started.
    Subclasses :class:`RuntimeError` for backward compatibility — these
    sites raised ``RuntimeError`` before the taxonomy covered them, and
    callers may still catch it.
    """


class LintError(ReproError):
    """Raised when the :mod:`repro.devtools` static analyzer cannot run.

    Covers unreadable or unparseable source files, malformed baselines,
    and unknown rule ids — analyzer *operation* failures, never rule
    findings (those are data, returned in the report).
    """


class DatasetError(ReproError):
    """Raised when a named dataset is unknown or cannot be generated."""


class CompressionError(ReproError):
    """Raised when a bit stream or compressed payload is malformed.

    The :mod:`repro.compression` codecs raise this instead of silently
    producing a wrong graph, keeping the lossless contract end to end.
    """


class StreamError(ReproError):
    """Raised when a dynamic-graph event stream is inconsistent.

    Examples include deleting an edge that is not present or inserting a
    self-loop, both of which would leave the maintained graph and the
    maintained summary out of sync.
    """


class LossyBoundError(ReproError):
    """Raised when a lossy summarization request violates its error bound."""


class JobCancelled(ReproError):
    """Raised when a summarization run is cancelled cooperatively.

    The pipeline's cancel token is checked between iterations (see
    :class:`repro.engine.hooks.RunControl`); a cancelled run raises this
    instead of returning a partial summary, so no caller can mistake an
    interrupted run for a complete one.  :meth:`SummaryJob.result
    <repro.service.jobs.SummaryJob.result>` re-raises it to the waiter.
    """


class TelemetryError(ReproError):
    """Raised when telemetry data is malformed or inconsistent.

    Covers metric type/bucket mismatches during registry merges and
    unparseable exposition text in :mod:`repro.obs.export`.  Telemetry
    failures never corrupt a summary — they surface here instead.
    """


class ServiceError(ReproError):
    """Base class for errors raised by the :mod:`repro.service` layer."""


class JobTimeoutError(ServiceError, TimeoutError):
    """Raised when waiting on a job outlives the caller's timeout.

    Subclasses :class:`TimeoutError` for backward compatibility —
    :meth:`SummaryJob.result <repro.service.jobs.SummaryJob.result>`
    raised the stdlib type before the taxonomy covered it, and callers
    may still catch it.
    """


class ServiceClosedError(ServiceError):
    """Raised when a request is submitted to a service that has shut down."""


class ServiceSaturatedError(ServiceError):
    """Raised when the service's bounded request queue is full.

    Backpressure is explicit: callers either retry, block via
    ``submit(..., block=True)``, or raise their queue bound.
    """
