"""Service-oriented engine API: sessions, jobs, and queued serving.

Where :mod:`repro.engine` answers "run this method once", this package
answers "serve many summarization requests": a long-lived
:class:`SummaryService` owns an interning :class:`GraphStore` (one
substrate build per graph), an optional forked job pool for isolation,
a bounded FIFO queue with configurable in-flight concurrency,
and hands out :class:`SummaryJob` futures with progress events and
cooperative cancellation.  Both sync (``submit`` / ``result``) and
``asyncio`` (``await service.summarize(...)``) entry points are
provided; ``engine.run`` and the comparison harness are thin shims over
:func:`default_service`.

>>> from repro.service import SummaryService
>>> with SummaryService(max_inflight=2) as service:     # doctest: +SKIP
...     jobs = [service.submit(method="slugger", graph=g, seed=s,
...                            options={"iterations": 10})
...             for s in range(8)]
...     results = [job.result() for job in jobs]

For a fixed seed, results are bit-identical to one-shot ``engine.run``
calls — under any concurrency, in thread or process mode.
"""

from repro.service.jobs import JobState, ProgressEvent, SummaryJob
from repro.service.request import SummaryRequest
from repro.service.service import (
    SummaryService,
    default_service,
    shutdown_default_service,
)
from repro.service.store import GraphHandle, GraphStore

__all__ = [
    "GraphHandle",
    "GraphStore",
    "JobState",
    "ProgressEvent",
    "SummaryJob",
    "SummaryRequest",
    "SummaryService",
    "default_service",
    "shutdown_default_service",
]
