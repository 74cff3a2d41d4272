"""Saving and loading summaries as JSON documents.

Summaries are graphs themselves (the paper stresses this as one of the
merits of graph summarization), so the on-disk format is a plain JSON
description of the supernode forest and the signed superedges.  The
format is intentionally explicit and versioned so other tooling can
consume SLUGGER outputs without importing this package.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Union

from repro.exceptions import GraphFormatError, SummaryInvariantError
from repro.graphs.graph import canonical_edge
from repro.model.flat import FlatSummary
from repro.model.hierarchy import Hierarchy
from repro.model.summary import HierarchicalSummary

__all__ = [
    "load_flat_summary",
    "load_hierarchical_summary",
    "save_flat_summary",
    "save_hierarchical_summary",
]

PathLike = Union[str, Path]

_HIERARCHICAL_FORMAT = "repro/hierarchical-summary/v1"
_FLAT_FORMAT = "repro/flat-summary/v1"


def save_hierarchical_summary(summary: HierarchicalSummary, path: PathLike) -> None:
    """Write a hierarchical summary to ``path`` as JSON."""
    hierarchy = summary.hierarchy
    document = {
        "format": _HIERARCHICAL_FORMAT,
        "leaves": [
            {"id": leaf, "subnode": hierarchy.subnode_of_leaf(leaf)}
            for leaf in hierarchy.supernodes()
            if hierarchy.is_leaf(leaf)
        ],
        "internal": [
            {"id": node, "children": hierarchy.children(node)}
            for node in hierarchy.supernodes()
            if not hierarchy.is_leaf(node)
        ],
        "p_edges": sorted(summary.p_edges()),
        "n_edges": sorted(summary.n_edges()),
    }
    _write_json(document, path)


def load_hierarchical_summary(path: PathLike) -> HierarchicalSummary:
    """Load a hierarchical summary written by :func:`save_hierarchical_summary`."""
    document = _read_json(path, expected_format=_HIERARCHICAL_FORMAT)
    with _malformed_as_format_error(path):
        return _hierarchical_from_document(document, path)


def _hierarchical_from_document(document: Dict, path: PathLike) -> HierarchicalSummary:
    """Leaves keep document order; internal records are taken in ascending
    ``id``, so every child must be a leaf or an earlier record."""
    leaves = document["leaves"]
    id_map = {leaf["id"]: position for position, leaf in enumerate(leaves)}
    internal = []
    records = sorted(document["internal"], key=lambda record: record["id"])
    for node_id, record in enumerate(records, start=len(leaves)):
        internal.append((node_id, [id_map[child] for child in record["children"]]))
        id_map[record["id"]] = node_id
    if len(id_map) != len(leaves) + len(internal):
        raise GraphFormatError(f"{path}: repeated supernode id")
    hierarchy = Hierarchy.from_parts([leaf["subnode"] for leaf in leaves], internal)
    return HierarchicalSummary.from_parts(
        hierarchy,
        [(id_map[a], id_map[b]) for a, b in document["p_edges"]],
        [(id_map[a], id_map[b]) for a, b in document["n_edges"]])


def save_flat_summary(summary: FlatSummary, path: PathLike) -> None:
    """Write a flat (Navlakha-model) summary to ``path`` as JSON."""
    document = {
        "format": _FLAT_FORMAT,
        "groups": [
            {"id": group_id, "members": sorted(members, key=repr)}
            for group_id, members in summary.groups.items()
        ],
        "superedges": sorted(summary.superedges),
        "corrections_plus": sorted(summary.corrections_plus, key=repr),
        "corrections_minus": sorted(summary.corrections_minus, key=repr),
    }
    _write_json(document, path)


def load_flat_summary(path: PathLike) -> FlatSummary:
    """Load a flat summary written by :func:`save_flat_summary`."""
    document = _read_json(path, expected_format=_FLAT_FORMAT)
    with _malformed_as_format_error(path):
        return _flat_from_document(document, path)


def _flat_from_document(document: Dict, path: PathLike) -> FlatSummary:
    summary = FlatSummary()
    for record in document["groups"]:
        group_id = record["id"]
        if group_id in summary.groups:
            raise GraphFormatError(f"{path}: group {group_id!r} is repeated")
        members = frozenset(record["members"])
        summary.groups[group_id] = members
        for member in members:
            if member in summary.group_of:
                raise GraphFormatError(f"{path}: subnode {member!r} is in two groups")
            summary.group_of[member] = group_id
    summary.superedges = _pair_set(document["superedges"], path)
    for edge in summary.superedges:
        if not set(edge) <= summary.groups.keys():
            raise GraphFormatError(f"{path}: superedge {edge} references an unknown group")
    summary.corrections_plus = _pair_set(document["corrections_plus"], path)
    summary.corrections_minus = _pair_set(document["corrections_minus"], path)
    for edge in summary.corrections_plus | summary.corrections_minus:
        if not set(edge) <= summary.group_of.keys():
            raise GraphFormatError(f"{path}: correction {edge} references an unknown subnode")
    return summary


def _pair_set(pairs, path: PathLike) -> set:
    """The canonical form of every pair; one given twice, in either
    orientation, makes the document malformed."""
    result = set()
    for u, v in pairs:
        pair = canonical_edge(u, v)
        if pair in result:
            raise GraphFormatError(f"{path}: pair {pair} is repeated")
        result.add(pair)
    return result


@contextmanager
def _malformed_as_format_error(path: PathLike):
    """Report a document that parsed as JSON but is not a valid summary
    (missing key, unknown id, wrong shape, P/N conflict) as a format error."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError, SummaryInvariantError) as error:
        raise GraphFormatError(
            f"{path}: malformed summary document ({type(error).__name__}: {error})"
        ) from None


def _write_json(document: Dict, path: PathLike) -> None:
    file_path = Path(path)
    file_path.parent.mkdir(parents=True, exist_ok=True)
    with file_path.open("w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)


def _read_json(path: PathLike, expected_format: str) -> Dict:
    file_path = Path(path)
    try:
        with file_path.open("r", encoding="utf-8") as handle:
            document = json.load(handle)
    except json.JSONDecodeError as error:
        raise GraphFormatError(f"{file_path}: not valid JSON ({error})") from error
    if not isinstance(document, dict):
        raise GraphFormatError(
            f"{file_path}: expected a JSON object, got {type(document).__name__}"
        )
    if document.get("format") != expected_format:
        raise GraphFormatError(
            f"{file_path}: expected format {expected_format!r}, got {document.get('format')!r}"
        )
    return document
