"""Execution settings: a vestigial worker count and platform probes.

Every summarization method runs serially.  The one process pool left in
the stack is a process-mode :class:`~repro.service.SummaryService`'s
job pool, a plain fork-context ``ProcessPoolExecutor`` the service owns
directly.  This module keeps what still has callers:
:class:`ExecutionConfig` (accepted and ignored by
:class:`~repro.core.slugger.Slugger`), :func:`available_cpus` and
:func:`process_execution_available`.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass

from repro.exceptions import ConfigurationError
from repro.utils.validation import require_int

__all__ = [
    "ExecutionConfig",
    "available_cpus",
    "process_execution_available",
]


def process_execution_available() -> bool:
    """Whether a fork-based process pool is usable on this platform.

    A process-mode service forks its job workers so they inherit the
    parent's graph stores without pickling; on platforms without
    ``fork`` (e.g. Windows) it falls back to thread mode.
    """
    return "fork" in multiprocessing.get_all_start_methods()


def available_cpus() -> int:
    """Number of CPUs the current process may actually run on."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class ExecutionConfig:
    """A worker count that sizes nothing.

    Every summarization method runs serially, and a service's job pool
    is sized by ``SummaryService(max_inflight=...)``.  The class stays
    only because :class:`~repro.core.slugger.Slugger` still accepts (and
    ignores) an ``execution`` argument for callers that pass one.

    Attributes
    ----------
    workers:
        Number of worker processes.  ``1`` (the default) is serial.
    """

    workers: int = 1

    def __post_init__(self) -> None:
        require_int(self.workers, "workers")
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")

    @property
    def parallel(self) -> bool:
        """Whether this configuration names more than one worker on a
        platform that can fork (it still runs serially)."""
        return self.workers > 1 and process_execution_available()
