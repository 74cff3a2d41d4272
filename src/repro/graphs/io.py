"""Reading and writing graphs as whitespace-separated edge lists.

The paper's datasets are distributed as plain edge lists; the same format
is used here for interoperability with the original SLUGGER repository
and with SNAP-style downloads.  Lines starting with ``#`` or ``%`` are
treated as comments, directions and duplicates are collapsed, and
self-loops are dropped, matching the preprocessing in Sect. IV-A.

Robustness: files from real download mirrors arrive with CRLF line
endings, sometimes a UTF-8 byte-order mark, and — for SNAP exports —
tab-separated columns with trailing payloads (edge weights, timestamps).
All of these parse identically to the clean form: the BOM is stripped,
``\\r`` is whitespace, and columns past the first two are ignored.

A file that is not UTF-8 text fails with a
:class:`~repro.exceptions.GraphFormatError` naming the first undecodable
line (``path:line``), like any other malformed input.

Scaling: parsing is serial.  For repeated loads of the same file, pack it
into a binary container once (``repro-slugger pack`` /
:func:`repro.storage.pack`) and memory-map it with
:func:`repro.storage.load` instead of re-parsing text at all.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Tuple, Union

from repro.exceptions import GraphFormatError
from repro.graphs.graph import Graph

PathLike = Union[str, Path]

__all__ = ["parse_edge_line", "read_edge_list", "write_edge_list"]


def read_edge_list(path: PathLike, *, relabel: bool = False) -> Graph:
    """Read a graph from a whitespace-separated edge-list file.

    Parameters
    ----------
    path:
        File containing one edge per line (``u v``, space- or
        tab-separated; extra columns such as SNAP edge weights are
        ignored), with ``#``/``%`` comment lines allowed.  Node
        identifiers are parsed as integers when possible and kept as
        strings otherwise.  CRLF line endings and a leading UTF-8 BOM
        are tolerated.
    relabel:
        When ``True``, nodes are relabeled to the contiguous range
        ``0..n-1`` (useful before handing the graph to array-based code).
    """
    file_path = Path(path)
    graph = Graph()
    # utf-8-sig strips a leading BOM; files without one are read as
    # plain UTF-8.  ``strip()`` handles the ``\r`` of CRLF files.
    # The error location is a closure formatted only on raise — a
    # per-line f-string would cost ~30% of the parse loop.
    line_number = 0

    def location() -> str:
        return f"{file_path}:{line_number}"

    try:
        with file_path.open("r", encoding="utf-8-sig") as handle:
            for raw_line in handle:
                line_number += 1
                edge = parse_edge_line(raw_line, location)
                if edge is not None:
                    graph.add_edge(*edge)
    except UnicodeDecodeError as error:
        # Text mode decodes ahead in chunks, so ``line_number`` may lag
        # the bad byte; find the line on this (cold) path instead.
        raise GraphFormatError(
            f"{file_path}:{_undecodable_line(file_path)}: "
            f"not UTF-8 text ({error.reason})"
        ) from None
    if relabel:
        graph, _ = graph.relabeled()
    return graph


def _undecodable_line(file_path: Path) -> int:
    """1-based number of the first line of ``file_path`` that is not UTF-8.

    ``bytes.splitlines`` breaks on ``\\n``, ``\\r\\n`` and a lone ``\\r``,
    exactly the universal-newlines rule the text-mode reader numbers
    lines by.
    """
    for number, raw in enumerate(file_path.read_bytes().splitlines(), start=1):
        try:
            raw.decode("utf-8-sig" if number == 1 else "utf-8")
        except UnicodeDecodeError:
            return number
    return 0


def parse_edge_line(raw_line: str, where) -> Optional[Tuple[object, object]]:
    """Parse one edge-list line into an ``(u, v)`` pair, or ``None``.

    ``None`` means the line carries no edge: blank, a ``#``/``%``
    comment, or a self-loop (dropped per the paper's preprocessing).
    ``where`` labels error messages — a string, or a zero-argument
    callable evaluated only when a line is malformed (``path:line`` for
    :func:`read_edge_list`), so the happy path never pays for location
    formatting.
    """
    line = raw_line.strip()
    if not line or line.startswith("#") or line.startswith("%"):
        return None
    parts = line.split()
    if len(parts) < 2:
        location = where() if callable(where) else where
        raise GraphFormatError(
            f"{location}: expected at least two columns, got {line!r}"
        )
    u, v = _parse_node(parts[0]), _parse_node(parts[1])
    if u == v:
        return None
    return (u, v)


def write_edge_list(graph: Graph, path: PathLike, *, header: bool = True) -> None:
    """Write ``graph`` as an edge list (one ``u v`` pair per line)."""
    file_path = Path(path)
    file_path.parent.mkdir(parents=True, exist_ok=True)
    with file_path.open("w", encoding="utf-8") as handle:
        if header:
            handle.write(f"# nodes={graph.num_nodes} edges={graph.num_edges}\n")
        for u, v in sorted(graph.edges(), key=repr):
            handle.write(f"{u} {v}\n")


def _parse_node(token: str):
    """Parse a node token as an ``int`` when possible, else keep the string."""
    try:
        return int(token)
    except ValueError:
        return token
