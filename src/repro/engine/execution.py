"""Execution layer: the fork-based process-shard executor.

Every summarization method runs serially at any worker count.  The one
process pool left in the stack is the serving layer's process-mode job
pool, which runs whole jobs in forked workers for isolation, not for
speed.  It is built on the tiny abstraction defined here: an *executor*
maps a worker function over a list of payloads and yields the results
**in payload order**.  :class:`ProcessShardExecutor` fans the payloads
out over a ``concurrent.futures.ProcessPoolExecutor`` whose workers are
created with the ``fork`` start method, so they inherit the caller's
in-memory snapshot (graph stores and their substrate views) as a cheap
copy-on-write image instead of pickling it through a pipe.

Context hand-off
----------------
Payloads stay small (a request record); the heavyweight inputs travel
through a *worker context*.  Each executor registers its
context under a unique token in a module-level registry; shards are
dispatched through :func:`_run_shard`, which resolves the token against
the registry and pins the context for the duration of the shard, where
worker functions read it back via :func:`worker_context`.  Forked
workers inherit the registry (and therefore the context object) as part
of the copy-on-write image — nothing is pickled in.  A forked worker
owns a private copy-on-write image, so nothing it does to its context
is observed by the parent or by sibling workers.

Determinism
-----------
Nothing in this module introduces ordering nondeterminism: results are
yielded in payload order regardless of which worker computed them, and
a job run in a forked worker gives the summary it gives inline.

Teardown guarantee
------------------
The executor is a context manager, ``close()`` is idempotent, and live
process pools are tracked in a module-level set with an ``atexit``
sweep — an exception anywhere between pool creation and the normal
``close()`` call can no longer leak forked workers past interpreter
shutdown.  The long-lived serving layer (:mod:`repro.service`) keeps
its job pool open across requests and relies on the same hooks for
clean shutdown and restart.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import threading
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterator, Optional, Sequence

from repro.exceptions import ConfigurationError, InvalidStateError
from repro.utils.validation import require_int

__all__ = [
    "ExecutionConfig",
    "ProcessShardExecutor",
    "available_cpus",
    "process_execution_available",
    "worker_context",
]

#: Token → context registry.  Registered before a pool's workers fork, so
#: the forked copy-on-write image contains every context its shards will
#: resolve; read back through :func:`worker_context`.
_CONTEXTS: Dict[int, Any] = {}
_CONTEXTS_LOCK = threading.Lock()
_TOKENS = itertools.count(1)

#: The context pinned for the shard currently running on this thread (a
#: forked pool worker is single-threaded, so the slot is private to it).
_CURRENT = threading.local()


def _register_context(context: Any) -> int:
    token = next(_TOKENS)
    with _CONTEXTS_LOCK:
        _CONTEXTS[token] = context
    return token


def _release_context(token: int) -> None:
    with _CONTEXTS_LOCK:
        _CONTEXTS.pop(token, None)


def _run_shard(token: int, fn: Callable[[Any], Any], payload: Any) -> Any:
    """Resolve ``token``, pin its context for this thread, run ``fn``.

    Runs inside the forked worker process of a
    :class:`ProcessShardExecutor` (the registry entry was inherited at
    fork time).
    """
    previous = getattr(_CURRENT, "context", None)
    _CURRENT.context = _CONTEXTS.get(token)
    try:
        return fn(payload)
    finally:
        _CURRENT.context = previous


def worker_context() -> Any:
    """The context object installed for the currently running shard."""
    context = getattr(_CURRENT, "context", None)
    if context is None:
        raise InvalidStateError("no worker context is installed; shards must "
                                "be run through an executor's map_shards")
    return context


def process_execution_available() -> bool:
    """Whether fork-based process sharding is usable on this platform.

    The executor relies on ``fork`` so workers inherit the parent's
    state snapshot without pickling; on platforms without it (e.g.
    Windows) a process-mode service falls back to thread mode.
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
        """Whether this configuration can use process sharding at all."""
        return self.workers > 1 and process_execution_available()


#: Live process pools, swept at interpreter exit so forked workers never
#: outlive the parent even when an exception skipped the normal close().
_LIVE_EXECUTORS: "weakref.WeakSet[ProcessShardExecutor]" = weakref.WeakSet()


def _shutdown_live_executors() -> None:  # pragma: no cover - interpreter exit
    for executor in list(_LIVE_EXECUTORS):
        try:
            executor.close()
        except Exception:
            pass


atexit.register(_shutdown_live_executors)


class ProcessShardExecutor:
    """Fan shards out over a fork-based ``ProcessPoolExecutor``.

    The worker context is registered at construction, so the pool's
    processes — forked on first submission — inherit it as part of their
    copy-on-write snapshot.  ``map_shards`` submits every payload up
    front (forcing all workers to fork against the *current* snapshot,
    before the caller starts mutating it) and returns a lazy, in-order
    result iterator, which lets a consumer overlap downstream work with
    still-running shards.

    The executor is a context manager; ``close()`` is idempotent, safe
    on every exception path, and additionally guaranteed by an atexit
    sweep over all live pools, so an error mid-run cannot leak forked
    workers.  Long-lived owners (the serving layer's job pool) may
    call :meth:`restart` to drop the forked snapshot and re-fork against
    fresh state on the next submission.
    """

    def __init__(self, workers: int, context: Any = None) -> None:
        if not process_execution_available():
            raise ConfigurationError(
                "process execution requires the 'fork' start method"
            )
        self.workers = max(1, workers)
        self._token = _register_context(context) if context is not None else 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._closed = False
        # The job pool is shared across service dispatcher threads;
        # pool creation, submission, restart, and close serialize here so
        # two racing first-submissions cannot each fork a pool (orphaning
        # one) and a close cannot interleave with a submit.
        self._sync = threading.Lock()
        _LIVE_EXECUTORS.add(self)

    def prestart(self) -> None:
        """Create the pool at full width before the first submission.

        Long-lived owners that feed the pool one payload at a time (the
        serving layer's job pool) call this so the pool is not sized by
        the first batch's length.
        """
        with self._sync:
            if self._closed:
                raise InvalidStateError("executor is closed")
            if self._pool is None:
                # Only _sync is held here, and forked workers run
                # _run_shard only — they never acquire it.
                # repro-lint: disable=fork-under-lock (workers never acquire the executor's _sync)
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context("fork"),
                )

    def map_shards(self, fn: Callable[[Any], Any], payloads: Sequence[Any]) -> Iterator[Any]:
        """Submit all payloads and yield results in payload order."""
        payloads = list(payloads)
        with self._sync:
            if self._closed:
                raise InvalidStateError("executor is closed")
            if self._pool is None:
                # Only _sync is held here, and forked workers run
                # _run_shard only — they never acquire it.
                # repro-lint: disable=fork-under-lock (workers never acquire the executor's _sync)
                self._pool = ProcessPoolExecutor(
                    max_workers=min(self.workers, max(1, len(payloads))),
                    mp_context=multiprocessing.get_context("fork"),
                )
            # ``map`` submits every payload immediately; with the fork
            # start method all worker processes are created during this
            # call, which pins their inherited snapshot to the state as
            # of *now*.
            try:
                return self._pool.map(partial(_run_shard, self._token, fn), payloads)
            except Exception:
                # Tear the (possibly broken) pool down so no forked
                # workers leak, but keep the executor usable: the next
                # submission re-forks fresh.  A job pool shared across
                # requests must survive one transient failure.
                self._shutdown_pool_locked()
                raise

    def restart(self) -> None:
        """Drop the forked worker snapshot; the next map re-forks fresh.

        Used by the job-pool owner after the inherited state went stale
        (e.g. new graphs were interned into a serving store).
        """
        with self._sync:
            self._shutdown_pool_locked()

    def close(self) -> None:
        with self._sync:
            self._shutdown_pool_locked()
            if self._token:
                _release_context(self._token)
                self._token = 0
            self._closed = True

    def _shutdown_pool_locked(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ProcessShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

