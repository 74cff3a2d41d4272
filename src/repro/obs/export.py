"""Renderers over metrics snapshots: Prometheus text exposition and JSON.

Both renderers consume the plain-data shape produced by
:meth:`repro.obs.metrics.MetricsRegistry.snapshot`, so anything that can
produce a snapshot — a live registry, a merged set of
snapshots, a file written by ``--metrics-file`` — can be exported
without touching the registry again.

:func:`parse_prometheus_text` is a small validating parser for the text
exposition format; CI uses it to prove the rendered output round-trips,
and it doubles as the loader for the ``repro-slugger metrics``
pretty-printer when handed a ``.prom`` file.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Dict, List, Tuple

from repro.exceptions import TelemetryError

__all__ = [
    "parse_prometheus_text",
    "render_json",
    "render_prometheus",
]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _sanitize(name: str) -> str:
    name = _NAME_RE.sub("_", name)
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    parts = [f'{_sanitize(k)}="{_escape_label(str(v))}"'
             for k, v in sorted(labels.items())]
    return "{" + ",".join(parts) + "}"


def render_prometheus(snapshot: Dict[str, Any]) -> str:
    """Render a snapshot in Prometheus text exposition format (0.0.4).

    Counters/gauges emit one sample per label set; histograms emit
    cumulative ``_bucket{le=...}`` samples (including ``+Inf``) plus
    ``_sum`` and ``_count``.  No timestamps are attached — scrape time
    belongs to the scraper, and the renderer stays wall-clock free.
    """
    lines: List[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        metric = _sanitize(name)
        kind = entry["type"]
        if entry.get("help"):
            lines.append(f"# HELP {metric} {entry['help']}")
        lines.append(f"# TYPE {metric} {kind}")
        for record in entry["series"]:
            labels = record.get("labels", {})
            if kind == "histogram":
                running = 0
                for bound, count in zip(entry["buckets"], record["counts"]):
                    running += count
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = _format_value(float(bound))
                    lines.append(f"{metric}_bucket{_format_labels(bucket_labels)}"
                                 f" {running}")
                running += record["counts"][len(entry["buckets"])]
                inf_labels = dict(labels)
                inf_labels["le"] = "+Inf"
                lines.append(f"{metric}_bucket{_format_labels(inf_labels)}"
                             f" {running}")
                lines.append(f"{metric}_sum{_format_labels(labels)}"
                             f" {_format_value(record['sum'])}")
                lines.append(f"{metric}_count{_format_labels(labels)}"
                             f" {record['count']}")
            else:
                lines.append(f"{metric}{_format_labels(labels)}"
                             f" {_format_value(record['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")


def render_json(snapshot: Dict[str, Any], indent: int = 2) -> str:
    """Render a snapshot as deterministic (sorted-key) JSON."""
    return json.dumps(snapshot, indent=indent, sort_keys=True)


def parse_prometheus_text(text: str) -> List[Tuple[str, Dict[str, str], float]]:
    """Parse exposition text into ``(name, labels, value)`` samples.

    Validates structure line by line and raises
    :class:`~repro.exceptions.TelemetryError` on the first malformed
    line.  Supports the subset :func:`render_prometheus` emits (which is
    the subset Prometheus itself requires): ``# HELP``/``# TYPE``
    comments, quoted label values with escapes, ``+Inf``/``-Inf``/
    numeric sample values.
    """
    samples: List[Tuple[str, Dict[str, str], float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise TelemetryError(
                f"malformed exposition line {lineno}: {raw!r}"
            )
        labels: Dict[str, str] = {}
        body = match.group("labels")
        if body:
            for label in _LABEL_RE.finditer(body):
                labels[label.group(1)] = (
                    label.group(2).replace("\\n", "\n")
                    .replace('\\"', '"').replace("\\\\", "\\")
                )
            if not labels:
                raise TelemetryError(
                    f"malformed label set on line {lineno}: {raw!r}"
                )
        value_text = match.group("value")
        try:
            if value_text == "+Inf":
                value = math.inf
            elif value_text == "-Inf":
                value = -math.inf
            else:
                value = float(value_text)
        except ValueError as exc:
            raise TelemetryError(
                f"malformed sample value on line {lineno}: {raw!r}"
            ) from exc
        samples.append((match.group("name"), labels, value))
    return samples
