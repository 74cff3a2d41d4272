"""The one validated, serializable description of a summarization request.

A :class:`SummaryRequest` bundles everything a service needs to run one
summarization: the registry method name, the graph (either inline or as
a name resolved against the service's graph store), the seed, and the
method-specific options (``iterations``, ``epsilon``, ...).  It is
validated at construction — a malformed request (a bad seed included)
fails at submit time, not minutes later on a worker — and everything
except the inline graph round-trips through :meth:`to_dict` /
:meth:`from_dict`, which is what the CLI's batch-serving mode and the
process-mode payloads use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.engine.base import Summarizer
from repro.exceptions import ConfigurationError
from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike

__all__ = ["SummaryRequest"]


@dataclass(frozen=True)
class SummaryRequest:
    """One summarization request: method + graph ref + seed + options.

    Attributes
    ----------
    method:
        Registry name of the summarizer (see ``engine.available_methods``).
    graph:
        The input graph, inline.  Exactly one of ``graph`` / ``graph_key``
        must be set.
    graph_key:
        Name of a graph registered in the service's
        :class:`~repro.service.store.GraphStore` — the serializable way
        to reference a shared graph.
    seed:
        Per-run random seed: ``None``, an ``int`` (the request is
        deterministic in it) or a :class:`random.Random`.
    options:
        Method-specific constructor options (e.g. ``iterations``).
    tag:
        Free-form caller correlation id, echoed on the job.
    summarizer:
        Optional pre-configured :class:`~repro.engine.base.Summarizer`
        instance overriding ``method``/``options`` resolution (used by
        the comparison harness).  Not serializable; rejected by
        process-mode services.
    """

    method: str = ""
    graph: Optional[Graph] = None
    graph_key: Optional[str] = None
    seed: SeedLike = None
    options: Mapping[str, Any] = field(default_factory=dict)
    tag: Optional[str] = None
    summarizer: Optional[Summarizer] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.summarizer is not None:
            if not isinstance(self.summarizer, Summarizer):
                raise ConfigurationError(
                    f"summarizer must be a Summarizer instance, got "
                    f"{type(self.summarizer).__name__}"
                )
            if not self.method:
                object.__setattr__(self, "method", self.summarizer.name)
        if not self.method or not isinstance(self.method, str):
            raise ConfigurationError("request needs a non-empty method name")
        if (self.graph is None) == (self.graph_key is None):
            raise ConfigurationError(
                "exactly one of graph / graph_key must be provided"
            )
        if self.graph is not None and not isinstance(self.graph, Graph):
            raise ConfigurationError(
                f"graph must be a Graph, got {type(self.graph).__name__}"
            )
        if not (
            self.seed is None
            or isinstance(self.seed, random.Random)
            or (isinstance(self.seed, int) and not isinstance(self.seed, bool))
        ):
            raise ConfigurationError(
                f"seed must be None, an int, or random.Random, got "
                f"{type(self.seed).__name__} {self.seed!r}"
            )
        if not isinstance(self.options, Mapping):
            raise ConfigurationError(
                f"options must be a mapping, got {type(self.options).__name__}"
            )
        # Freeze the options so a shared request cannot drift after
        # validation; dataclass frozen-ness only protects the reference.
        object.__setattr__(self, "options", dict(self.options))

    @property
    def serializable(self) -> bool:
        """Whether the request can cross a process boundary as a dict."""
        return self.summarizer is None

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-compatible description (the inline graph is referenced
        by ``graph_key`` only; carrying graph payloads is the transport's
        job)."""
        if not self.serializable:
            raise ConfigurationError(
                "requests carrying a pre-configured summarizer instance "
                "cannot be serialized; submit by method name instead"
            )
        record: Dict[str, Any] = {"method": self.method}
        if self.graph_key is not None:
            record["graph_key"] = self.graph_key
        if self.seed is not None:
            record["seed"] = self.seed
        if self.options:
            record["options"] = dict(self.options)
        if self.tag is not None:
            record["tag"] = self.tag
        return record

    @classmethod
    def from_dict(
        cls, record: Mapping[str, Any], graph: Optional[Graph] = None
    ) -> "SummaryRequest":
        """Rebuild a request from :meth:`to_dict` output.

        ``graph`` optionally supplies the inline graph for records whose
        ``graph_key`` the caller already resolved.  Unknown record keys
        are rejected — a top-level ``iterations`` (which belongs inside
        ``options``) silently running with defaults is exactly the batch
        -file mistake this guards against.
        """
        known = {"method", "graph_key", "seed", "options", "tag"}
        unknown = set(record) - known
        if unknown:
            raise ConfigurationError(
                f"unknown request fields: {sorted(unknown)} "
                f"(method options belong under 'options'; known fields: "
                f"{sorted(known)})"
            )
        return cls(
            method=record.get("method", ""),
            graph=graph,
            graph_key=None if graph is not None else record.get("graph_key"),
            seed=record.get("seed"),
            options=record.get("options", {}),
            tag=record.get("tag"),
        )

    def describe(self) -> str:
        """Short human-readable label for logs and tables."""
        where = self.graph_key if self.graph_key is not None else "<inline>"
        extras = f" {dict(self.options)}" if self.options else ""
        return f"{self.method}@{where} seed={self.seed}{extras}"
