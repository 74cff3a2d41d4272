"""Local encoding search used when two root supernodes are merged.

When SLUGGER merges root supernodes, the p-edges and n-edges between the
affected trees are re-encoded locally (Sect. III-B3).  Each side of the
re-encoding is viewed as a two-level *panel*: the root supernode plus its
direct children (the paper's ``S_X``).  The merging step always creates
a supernode with exactly two children, so until pruning every panel is a
leaf or a binary root.

A panel pair is laid out as flat *blocks* (pairs of parts: one part from
each side for a cross plan, every unordered part pair — diagonal
included — for an intra plan) and blanket *slots* (pairs of panel
members, each covering some blocks).  A candidate encoding places signed
blankets on slots such that every block ends up with a net coverage of
0 or 1 — the restriction the paper also imposes — and the remaining
discrepancies are fixed with p/n-edges between singleton leaves.

The optimal blanket realisation of every 0/1 block pattern depends only
on the layout, not on the graph, so it is memoized process-wide exactly
like the paper's pre-computed lookup table; the per-merge work is then
just counting edges per block and picking the pattern with the least
total cost.  The exact table enumerates ``3**slots`` assignments, so a
panel pair with more than ``_MAX_EXACT_SLOTS`` slots — which SLUGGER
never builds — is rejected.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Tuple

from repro.exceptions import SummaryInvariantError
from repro.graphs.dense import DenseAdjacency
from repro.model.hierarchy import Hierarchy

__all__ = [
    "EncodingPlan",
    "Panel",
    "apply_plan",
    "memo_table_sizes",
    "plan_cross_encoding",
    "plan_intra_encoding",
]

POSITIVE = 1
NEGATIVE = -1

# Per slot, the flat indices of the blocks a blanket on it covers.
Coverage = Tuple[Tuple[int, ...], ...]
# A blanket assignment: (slot index, sign) per used slot, in slot order.
Assignment = Tuple[Tuple[int, int], ...]
# A table entry: (slot cost, assignment, flat indices of the 1-blocks,
# flat indices of the 0-blocks).  The index tuples are part of the memo
# so the per-merge cost evaluation is a flat-list walk.
Entry = Tuple[int, Assignment, Tuple[int, ...], Tuple[int, ...]]

# The exact table enumerates 3**slots sign assignments; 3**12 ≈ 5·10^5 is
# computed once per layout.  A binary×binary cross plan has 9 slots and a
# binary intra plan 4, so only hand-built wide roots can exceed this.
_MAX_EXACT_SLOTS = 12


def _endpoint_coverage(num_parts: int, has_distinct_top: bool) -> List[Tuple[int, ...]]:
    """Which part indices each panel endpoint covers, top (if distinct) first."""
    singles = [(index,) for index in range(num_parts)]
    return [tuple(range(num_parts))] + singles if has_distinct_top else singles


class Panel:
    """A root supernode viewed as ``{top} ∪ children(top)`` (the paper's S_X)."""

    def __init__(self, hierarchy: Hierarchy, top: int) -> None:
        self.top = top
        children = hierarchy.children(top)
        self.parts: List[int] = list(children) if children else [top]
        self.sizes: List[int] = [hierarchy.size(part) for part in self.parts]
        self.has_distinct_top = bool(children)

    @property
    def shape(self) -> Tuple[int, bool]:
        """(number of parts, whether the top is a separate endpoint)."""
        return (len(self.parts), self.has_distinct_top)

    def endpoints(self) -> List[int]:
        """Supernode ids usable as blanket endpoints, top (if distinct) first."""
        if self.has_distinct_top:
            return [self.top] + self.parts
        return list(self.parts)

    def endpoint_coverage(self) -> List[Tuple[int, ...]]:
        """Which part indices each endpoint covers (aligned with :meth:`endpoints`)."""
        return _endpoint_coverage(*self.shape)


@dataclass
class EncodingPlan:
    """Result of the local search for one panel pair.

    ``cost`` is the total number of superedges the plan will create
    (blankets plus leaf-level corrections).  ``superedges`` are the
    blanket edges between panel members.  Blocks are part-id pairs, and
    ``(x, x)`` is the inside of part ``x``: ``positive_blocks`` are
    blocks whose present subedges must be added as leaf p-edges (net
    coverage 0); ``negative_blocks`` are blocks whose missing subedges
    must be added as leaf n-edges (net coverage 1).
    """

    cost: int
    superedges: List[Tuple[int, int, int]] = field(default_factory=list)
    positive_blocks: List[Tuple[int, int]] = field(default_factory=list)
    negative_blocks: List[Tuple[int, int]] = field(default_factory=list)


# ----------------------------------------------------------------------
# Exact blanket-pattern solver
# ----------------------------------------------------------------------
def _solve_table(coverage: Coverage, num_blocks: int) -> List[Entry]:
    """Optimal blanket assignments for every achievable 0/1 block pattern.

    Each entry pairs one target pattern (every block's net coverage in
    {0, 1}) with the minimum number of blankets realising it and the
    first such assignment in enumeration order.  This is the
    graph-independent part of the paper's memoization.
    """
    table: Dict[Tuple[int, ...], Tuple[int, Assignment]] = {}
    for values in itertools.product((NEGATIVE, 0, POSITIVE), repeat=len(coverage)):
        net = [0] * num_blocks
        used: List[Tuple[int, int]] = []
        for slot, sign in enumerate(values):
            if sign == 0:
                continue
            used.append((slot, sign))
            for block in coverage[slot]:
                net[block] += sign
        if any(value not in (0, 1) for value in net):
            continue
        targets = tuple(net)
        existing = table.get(targets)
        if existing is None or len(used) < existing[0]:
            table[targets] = (len(used), tuple(used))
    return [
        (
            slot_cost,
            assignment,
            tuple(index for index, value in enumerate(targets) if value == 1),
            tuple(index for index, value in enumerate(targets) if value != 1),
        )
        for targets, (slot_cost, assignment) in table.items()
    ]


# Computed once per layout and reused for every merge and every input
# graph; ``use_memo=False`` re-solves it on every call (the ablation).
_memo_table = lru_cache(maxsize=None)(_solve_table)


@lru_cache(maxsize=None)
def _cross_coverage(shape_a: Tuple[int, bool], shape_b: Tuple[int, bool]) -> Coverage:
    """Slot coverage of a cross layout: blocks ``parts_a × parts_b`` row-major."""
    num_parts_b = shape_b[0]
    return tuple(
        tuple(row * num_parts_b + col for row in rows for col in cols)
        for rows in _endpoint_coverage(*shape_a)
        for cols in _endpoint_coverage(*shape_b)
    )


@lru_cache(maxsize=None)
def _intra_coverage(num_blocks: int) -> Coverage:
    """Slot coverage of an intra layout: the self-loop, then each block."""
    return (tuple(range(num_blocks)),) + tuple((block,) for block in range(num_blocks))


def _require_exact(num_slots: int) -> None:
    if num_slots > _MAX_EXACT_SLOTS:
        raise SummaryInvariantError(
            f"panel pair has {num_slots} blanket slots; the exact local encoder "
            f"handles at most {_MAX_EXACT_SLOTS} (merge trees are binary until pruning)"
        )


def _best_plan(
    coverage: Coverage,
    slots: List[Tuple[int, int]],
    blocks: List[Tuple[int, int]],
    present: List[int],
    totals: List[int],
    use_memo: bool,
) -> EncodingPlan:
    """The cheapest table entry for these block statistics, as a plan."""
    entries = (_memo_table if use_memo else _solve_table)(coverage, len(blocks))
    # The all-zero pattern is always in the table, so entries is non-empty.
    best_entry = entries[0]
    best_cost = math.inf
    for entry in entries:
        cost = entry[0]
        for index in entry[2]:
            cost += totals[index] - present[index]
        for index in entry[3]:
            cost += present[index]
        if cost < best_cost:
            best_entry = entry
            best_cost = cost
    _slot_cost, assignment, ones, zeros = best_entry
    return EncodingPlan(
        cost=best_cost,
        superedges=[(*slots[slot], sign) for slot, sign in assignment],
        positive_blocks=[blocks[index] for index in zeros if present[index] > 0],
        negative_blocks=[blocks[index] for index in ones if totals[index] > present[index]],
    )


# ----------------------------------------------------------------------
# Block statistics on dense ids
# ----------------------------------------------------------------------
# On the dense substrate a supernode's leaf ids double as node ids, so
# block statistics reduce to set intersections between int-id neighbor
# sets and memoized leaf-id tuples, and the listed pairs are already the
# leaf supernodes the corrections go on.

def _count_between(dense: DenseAdjacency, hierarchy: Hierarchy, first: int, second: int) -> int:
    """Subedges between two disjoint supernodes, by leaf-id intersection."""
    leaves_first = hierarchy.leaf_id_view(first)
    leaves_second = hierarchy.leaf_id_view(second)
    if len(leaves_first) > len(leaves_second):
        leaves_first, leaves_second = leaves_second, leaves_first
    second_set = set(leaves_second)
    neighbors = dense.neighbors
    count = 0
    for u in leaves_first:
        count += len(neighbors[u] & second_set)
    return count


def _count_within(dense: DenseAdjacency, hierarchy: Hierarchy, supernode: int) -> int:
    """Subedges inside one supernode, by leaf-id intersection."""
    members = hierarchy.leaf_id_view(supernode)
    member_set = set(members)
    neighbors = dense.neighbors
    count = 0
    for u in members:
        count += len(neighbors[u] & member_set)
    return count // 2


def _edge_pairs_between(
    dense: DenseAdjacency, hierarchy: Hierarchy, first: int, second: int
) -> List[Tuple[int, int]]:
    """Actual subedges between two disjoint supernodes as leaf-id pairs."""
    leaves_first = hierarchy.leaf_id_view(first)
    leaves_second = hierarchy.leaf_id_view(second)
    swapped = len(leaves_first) > len(leaves_second)
    if swapped:
        leaves_first, leaves_second = leaves_second, leaves_first
    second_set = set(leaves_second)
    neighbors = dense.neighbors
    pairs: List[Tuple[int, int]] = []
    for u in leaves_first:
        for v in neighbors[u] & second_set:
            pairs.append((v, u) if swapped else (u, v))
    return pairs


def _nonedge_pairs_between(
    dense: DenseAdjacency, hierarchy: Hierarchy, first: int, second: int
) -> List[Tuple[int, int]]:
    """Non-adjacent leaf-id pairs between two disjoint supernodes."""
    leaves_second = hierarchy.leaf_id_view(second)
    neighbors = dense.neighbors
    pairs: List[Tuple[int, int]] = []
    for u in hierarchy.leaf_id_view(first):
        neighbor_set = neighbors[u]
        for v in leaves_second:
            if v not in neighbor_set:
                pairs.append((u, v))
    return pairs


def _edge_pairs_within(
    dense: DenseAdjacency, hierarchy: Hierarchy, supernode: int
) -> List[Tuple[int, int]]:
    """Subedges inside one supernode as leaf-id pairs (each listed once)."""
    members = hierarchy.leaf_id_view(supernode)
    member_set = set(members)
    neighbors = dense.neighbors
    pairs: List[Tuple[int, int]] = []
    for u in members:
        for v in neighbors[u] & member_set:
            if u < v:
                pairs.append((u, v))
    return pairs


def _nonedge_pairs_within(
    dense: DenseAdjacency, hierarchy: Hierarchy, supernode: int
) -> List[Tuple[int, int]]:
    """Non-adjacent leaf-id pairs inside one supernode."""
    members = hierarchy.leaf_id_view(supernode)
    neighbors = dense.neighbors
    pairs: List[Tuple[int, int]] = []
    for i in range(len(members)):
        neighbor_set = neighbors[members[i]]
        for j in range(i + 1, len(members)):
            if members[j] not in neighbor_set:
                pairs.append((members[i], members[j]))
    return pairs


# ----------------------------------------------------------------------
# Planner
# ----------------------------------------------------------------------
def plan_cross_encoding(
    dense: DenseAdjacency,
    hierarchy: Hierarchy,
    panel_a: Panel,
    panel_b: Panel,
    *,
    use_memo: bool = True,
) -> EncodingPlan:
    """Best local encoding of the subedges between two disjoint panels.

    The returned plan exactly reproduces the adjacency between the leaf
    sets of ``panel_a.top`` and ``panel_b.top`` when applied to a summary
    from which all existing superedges between the two trees have been
    removed.  Block statistics run on leaf-id set intersections over
    ``dense``, whose node ids are the leaf ids of ``hierarchy``.
    """
    endpoints_a = panel_a.endpoints()
    endpoints_b = panel_b.endpoints()
    _require_exact(len(endpoints_a) * len(endpoints_b))
    blocks = [(part_a, part_b) for part_a in panel_a.parts for part_b in panel_b.parts]
    present = [_count_between(dense, hierarchy, part_a, part_b) for part_a, part_b in blocks]
    totals = [size_a * size_b for size_a in panel_a.sizes for size_b in panel_b.sizes]
    return _best_plan(
        _cross_coverage(panel_a.shape, panel_b.shape),
        [(x, y) for x in endpoints_a for y in endpoints_b],
        blocks, present, totals, use_memo,
    )


def plan_intra_encoding(
    dense: DenseAdjacency,
    hierarchy: Hierarchy,
    merged: int,
    panel: Panel,
    *,
    use_memo: bool = True,
) -> EncodingPlan:
    """Best wholesale re-encoding of the subedges inside ``merged``.

    Unlike :func:`plan_cross_encoding`, this plan replaces the intra-tree
    encodings of the parts as well — it is what turns a merged clique or
    dense community into a single self-loop p-edge plus a few negative
    corrections.  Slot 0 is the self-loop on ``merged`` (covering every
    block); the others are the part pairs themselves.
    """
    parts = panel.parts
    sizes = panel.sizes
    _require_exact(1 + len(parts) * (len(parts) + 1) // 2)
    blocks: List[Tuple[int, int]] = []
    present: List[int] = []
    totals: List[int] = []
    for i in range(len(parts)):
        for j in range(i, len(parts)):
            blocks.append((parts[i], parts[j]))
            if i == j:
                present.append(_count_within(dense, hierarchy, parts[i]))
                totals.append(sizes[i] * (sizes[i] - 1) // 2)
            else:
                present.append(_count_between(dense, hierarchy, parts[i], parts[j]))
                totals.append(sizes[i] * sizes[j])
    return _best_plan(
        _intra_coverage(len(blocks)), [(merged, merged)] + blocks,
        blocks, present, totals, use_memo,
    )


def apply_plan(
    plan: EncodingPlan,
    dense: DenseAdjacency,
    hierarchy: Hierarchy,
    add_superedge,
) -> None:
    """Materialize ``plan`` by calling ``add_superedge(x, y, sign)``.

    Blanket edges come first, then the positive and negative leaf
    corrections block by block.  The caller is responsible for having
    removed every pre-existing superedge the plan replaces.  The
    correction pairs are already leaf ids.
    """
    for x, y, sign in plan.superedges:
        add_superedge(x, y, sign)
    for x, y in plan.positive_blocks:
        if x == y:
            pairs = _edge_pairs_within(dense, hierarchy, x)
        else:
            pairs = _edge_pairs_between(dense, hierarchy, x, y)
        for u, v in pairs:
            add_superedge(u, v, POSITIVE)
    for x, y in plan.negative_blocks:
        if x == y:
            pairs = _nonedge_pairs_within(dense, hierarchy, x)
        else:
            pairs = _nonedge_pairs_between(dense, hierarchy, x, y)
        for u, v in pairs:
            add_superedge(u, v, NEGATIVE)


def memo_table_sizes() -> Dict[str, int]:
    """Statistics of the memoized pattern tables (diagnostics/tests)."""
    info = _memo_table.cache_info()
    return {"tables": info.currsize, "hits": info.hits, "misses": info.misses}
