"""The built-in ``repro-lint`` rule pack.

Importing this package registers every rule with the framework registry
(:func:`repro.devtools.framework.all_rules` does it on first use).  The
pack is split by invariant family:

* :mod:`~repro.devtools.rules.determinism` — bit-identical output for a
  fixed seed, under any ``PYTHONHASHSEED`` and worker count;
* :mod:`~repro.devtools.rules.concurrency` — fork-safety of everything
  reachable from pool-worker entry points;
* :mod:`~repro.devtools.rules.hygiene` — public-API and exception-
  taxonomy consistency.
"""

from __future__ import annotations

from repro.devtools.rules import concurrency, determinism, hygiene  # noqa: F401

__all__ = ["concurrency", "determinism", "hygiene"]
