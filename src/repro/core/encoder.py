"""Local encoding search used when two root supernodes are merged.

When SLUGGER merges root supernodes, the p-edges and n-edges between the
affected trees are re-encoded locally (Sect. III-B3).  Each side of the
re-encoding is viewed as a two-level *panel*: the root supernode plus its
direct children (the paper's ``S_X``).  A candidate encoding places
"blanket" p/n-edges on pairs of panel members such that every
bottom-level block (pair of child supernodes) ends up with a net coverage
of 0 or 1 — the restriction the paper also imposes — and the remaining
discrepancies are fixed with p/n-edges between singleton leaves.

The optimal blanket realisation of a given 0/1 block-coverage pattern
depends only on the panel *shapes*, not on the graph, so it is memoized
process-wide exactly like the paper's pre-computed lookup table; the
per-merge work is then just counting edges per block and picking the
pattern with the least total cost.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graphs.dense import DenseAdjacency
from repro.model.hierarchy import Hierarchy

__all__ = [
    "EncodingPlan",
    "IntraEncodingPlan",
    "Panel",
    "apply_cross_plan",
    "apply_intra_plan",
    "memo_table_sizes",
    "plan_cross_encoding",
    "plan_intra_encoding",
]

POSITIVE = 1
NEGATIVE = -1

# A blanket slot assignment: (endpoint index on side A, endpoint index on
# side B, sign).  Endpoint index 0 is the panel top when the top is
# distinct from its parts, otherwise endpoints are the parts themselves.
SlotAssignment = Tuple[Tuple[int, int, int], ...]

# The exhaustive pattern search enumerates 3**num_slots sign assignments,
# so it is only used while that stays small (3**12 ≈ 5·10^5, well under a
# second and computed once per panel shape).  Larger panels — which the
# SLUGGER driver itself never produces, since merged roots always have two
# children, but which library users may build directly — fall back to a
# structured heuristic search over a constant family of coverage patterns.
_MAX_EXACT_SLOTS = 12


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
        part_indices = tuple(range(len(self.parts)))
        if self.has_distinct_top:
            return [part_indices] + [(index,) for index in range(len(self.parts))]
        return [(index,) for index in range(len(self.parts))]


@dataclass
class EncodingPlan:
    """Result of the local search for one panel pair.

    ``cost`` is the total number of superedges the plan will create
    (blankets plus leaf-level corrections).  ``superedges`` are the
    blanket edges between panel members; ``positive_blocks`` are blocks
    whose present subedges must be added as leaf p-edges (net coverage 0);
    ``negative_blocks`` are blocks whose missing subedges must be added as
    leaf n-edges (net coverage 1).
    """

    cost: int
    superedges: List[Tuple[int, int, int]] = field(default_factory=list)
    positive_blocks: List[Tuple[int, int]] = field(default_factory=list)
    negative_blocks: List[Tuple[int, int]] = field(default_factory=list)


# ----------------------------------------------------------------------
# Memoized blanket-pattern solver
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _pattern_table(
    coverage_a: Tuple[Tuple[int, ...], ...],
    coverage_b: Tuple[Tuple[int, ...], ...],
    num_parts_a: int,
    num_parts_b: int,
) -> Dict[Tuple[Tuple[int, ...], ...], Tuple[int, SlotAssignment]]:
    """Optimal blanket assignments for every achievable 0/1 coverage pattern.

    The table maps a target block matrix (rows = parts of side A, columns
    = parts of side B, entries in {0, 1}) to the minimum number of blanket
    edges realising it and one optimal assignment.  This is the
    graph-independent part of the paper's memoization: it is computed once
    per panel *shape* and reused for every merge and every input graph.
    """
    return _solve_pattern_table(coverage_a, coverage_b, num_parts_a, num_parts_b)


# A flattened cross-table entry: (targets, slot cost, assignment, flat
# indices of the 1-blocks, flat indices of the 0-blocks).  The index
# tuples are part of the per-shape memo so the per-merge cost evaluation
# is a flat-list walk instead of a nested row/column scan.
CrossEntry = Tuple[Tuple[Tuple[int, ...], ...], int, SlotAssignment,
                   Tuple[int, ...], Tuple[int, ...]]


def _enrich_cross_entries(
    table: Dict[Tuple[Tuple[int, ...], ...], Tuple[int, SlotAssignment]],
    num_parts_b: int,
) -> List[CrossEntry]:
    """Flatten a cross-pattern table for the per-merge cost evaluation."""
    entries: List[CrossEntry] = []
    for targets, (slot_cost, assignment) in table.items():
        ones: List[int] = []
        zeros: List[int] = []
        for row_index, row in enumerate(targets):
            base = row_index * num_parts_b
            for col_index, value in enumerate(row):
                (ones if value == 1 else zeros).append(base + col_index)
        entries.append((targets, slot_cost, assignment, tuple(ones), tuple(zeros)))
    return entries


@lru_cache(maxsize=None)
def _pattern_entries(
    coverage_a: Tuple[Tuple[int, ...], ...],
    coverage_b: Tuple[Tuple[int, ...], ...],
    num_parts_a: int,
    num_parts_b: int,
) -> List[CrossEntry]:
    """Memoized flattened view of :func:`_pattern_table` for one panel shape."""
    table = _pattern_table(coverage_a, coverage_b, num_parts_a, num_parts_b)
    return _enrich_cross_entries(table, num_parts_b)


def _solve_pattern_table(
    coverage_a: Sequence[Tuple[int, ...]],
    coverage_b: Sequence[Tuple[int, ...]],
    num_parts_a: int,
    num_parts_b: int,
) -> Dict[Tuple[Tuple[int, ...], ...], Tuple[int, SlotAssignment]]:
    slots = [
        (endpoint_a, endpoint_b)
        for endpoint_a in range(len(coverage_a))
        for endpoint_b in range(len(coverage_b))
    ]
    table: Dict[Tuple[Tuple[int, ...], ...], Tuple[int, SlotAssignment]] = {}
    for values in itertools.product((NEGATIVE, 0, POSITIVE), repeat=len(slots)):
        net = [[0] * num_parts_b for _ in range(num_parts_a)]
        used: List[Tuple[int, int, int]] = []
        for slot_index, sign in enumerate(values):
            if sign == 0:
                continue
            endpoint_a, endpoint_b = slots[slot_index]
            used.append((endpoint_a, endpoint_b, sign))
            for row in coverage_a[endpoint_a]:
                for col in coverage_b[endpoint_b]:
                    net[row][col] += sign
        if any(entry not in (0, 1) for row in net for entry in row):
            continue
        targets = tuple(tuple(row) for row in net)
        cost = len(used)
        existing = table.get(targets)
        if existing is None or cost < existing[0]:
            table[targets] = (cost, tuple(used))
    return table


# ----------------------------------------------------------------------
# Heuristic pattern family for large panels
# ----------------------------------------------------------------------
def _realize_cross_pattern(
    targets: Sequence[Sequence[int]],
    panel_a: "Panel",
    panel_b: "Panel",
) -> Tuple[int, SlotAssignment]:
    """A valid (not necessarily optimal) blanket realization of one 0/1 pattern.

    Allowed blanket endpoints are the panel tops (covering every part) and
    the individual parts, so the candidate realizations are cell-wise
    edges, a full blanket with cell-wise negations, and row/column-wise
    blankets with cell-wise fixes; the cheapest of those is returned.
    """
    num_a, num_b = len(panel_a.parts), len(panel_b.parts)

    def row_endpoint(index: int) -> int:
        return index + 1 if panel_a.has_distinct_top else index

    def col_endpoint(index: int) -> int:
        return index + 1 if panel_b.has_distinct_top else index

    all_a = 0  # Endpoint 0 always covers every part of its panel.
    all_b = 0
    ones = [(i, j) for i in range(num_a) for j in range(num_b) if targets[i][j] == 1]
    zeros = [(i, j) for i in range(num_a) for j in range(num_b) if targets[i][j] == 0]

    candidates: List[List[Tuple[int, int, int]]] = []
    # Cell-wise positive blankets on every 1-block.
    candidates.append([(row_endpoint(i), col_endpoint(j), POSITIVE) for i, j in ones])
    # One full blanket plus cell-wise negations of every 0-block.
    candidates.append(
        [(all_a, all_b, POSITIVE)] + [(row_endpoint(i), col_endpoint(j), NEGATIVE) for i, j in zeros]
    )
    # Row-wise: blanket dense rows, list sparse rows cell by cell.
    row_plan: List[Tuple[int, int, int]] = []
    for i in range(num_a):
        row_ones = [j for j in range(num_b) if targets[i][j] == 1]
        row_zeros = [j for j in range(num_b) if targets[i][j] == 0]
        if len(row_ones) > 1 + len(row_zeros):
            row_plan.append((row_endpoint(i), all_b, POSITIVE))
            row_plan.extend((row_endpoint(i), col_endpoint(j), NEGATIVE) for j in row_zeros)
        else:
            row_plan.extend((row_endpoint(i), col_endpoint(j), POSITIVE) for j in row_ones)
    candidates.append(row_plan)
    # Column-wise, symmetric to the row-wise plan.
    col_plan: List[Tuple[int, int, int]] = []
    for j in range(num_b):
        col_ones = [i for i in range(num_a) if targets[i][j] == 1]
        col_zeros = [i for i in range(num_a) if targets[i][j] == 0]
        if len(col_ones) > 1 + len(col_zeros):
            col_plan.append((all_a, col_endpoint(j), POSITIVE))
            col_plan.extend((row_endpoint(i), col_endpoint(j), NEGATIVE) for i in col_zeros)
        else:
            col_plan.extend((row_endpoint(i), col_endpoint(j), POSITIVE) for i in col_ones)
    candidates.append(col_plan)

    best = min(candidates, key=len)
    return len(best), tuple(best)


def _heuristic_cross_table(
    panel_a: "Panel",
    panel_b: "Panel",
    present: Sequence[Sequence[int]],
    totals: Sequence[Sequence[int]],
) -> Dict[Tuple[Tuple[int, ...], ...], Tuple[int, SlotAssignment]]:
    """Candidate coverage patterns (with realizations) for oversized panels.

    Instead of every achievable 0/1 pattern, only a structured family is
    considered: all-zero, all-one, and the per-block majority pattern.
    Every candidate is valid (corrections repair any block exactly), so
    losslessness is unaffected — only local optimality is relaxed, in the
    same spirit as the paper's own locality restriction.
    """
    num_a, num_b = len(panel_a.parts), len(panel_b.parts)
    zero = tuple(tuple(0 for _ in range(num_b)) for _ in range(num_a))
    ones = tuple(tuple(1 for _ in range(num_b)) for _ in range(num_a))
    majority = tuple(
        tuple(
            1 if totals[i][j] - present[i][j] < present[i][j] else 0
            for j in range(num_b)
        )
        for i in range(num_a)
    )
    table: Dict[Tuple[Tuple[int, ...], ...], Tuple[int, SlotAssignment]] = {}
    for pattern in (zero, ones, majority):
        if pattern in table:
            continue
        table[pattern] = _realize_cross_pattern(pattern, panel_a, panel_b)
    return table


def _realize_intra_pattern(
    targets: Sequence[int], num_blocks: int
) -> Tuple[int, SlotAssignment]:
    """A valid realization of one intra-panel 0/1 pattern (full blanket or per-block edges)."""
    ones = [index for index in range(num_blocks) if targets[index] == 1]
    zeros = [index for index in range(num_blocks) if targets[index] == 0]
    cellwise = [(index + 1, 0, POSITIVE) for index in ones]
    full = [(0, 0, POSITIVE)] + [(index + 1, 0, NEGATIVE) for index in zeros]
    best = cellwise if len(cellwise) <= len(full) else full
    return len(best), tuple(best)


def _heuristic_intra_table(
    blocks: Sequence[Tuple[int, int]],
    present: Dict[Tuple[int, int], int],
    totals: Dict[Tuple[int, int], int],
) -> Dict[Tuple[int, ...], Tuple[int, SlotAssignment]]:
    """Candidate intra-panel patterns for merged supernodes with many parts."""
    num_blocks = len(blocks)
    zero = tuple(0 for _ in range(num_blocks))
    ones = tuple(1 for _ in range(num_blocks))
    majority = tuple(
        1 if totals[block] - present[block] < present[block] else 0 for block in blocks
    )
    table: Dict[Tuple[int, ...], Tuple[int, SlotAssignment]] = {}
    for pattern in (zero, ones, majority):
        if pattern in table:
            continue
        table[pattern] = _realize_intra_pattern(pattern, num_blocks)
    return table


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
    present = [
        [_count_between(dense, hierarchy, part_a, part_b) for part_b in panel_b.parts]
        for part_a in panel_a.parts
    ]
    totals = [
        [size_a * size_b for size_b in panel_b.sizes]
        for size_a in panel_a.sizes
    ]
    coverage_a = tuple(panel_a.endpoint_coverage())
    coverage_b = tuple(panel_b.endpoint_coverage())
    num_parts_b = len(panel_b.parts)
    num_slots = len(coverage_a) * len(coverage_b)
    if num_slots > _MAX_EXACT_SLOTS:
        # Too many blanket slots for the exhaustive search; fall back to the
        # structured candidate family (valid but possibly sub-optimal).
        entries = _enrich_cross_entries(
            _heuristic_cross_table(panel_a, panel_b, present, totals), num_parts_b
        )
    elif use_memo:
        entries = _pattern_entries(
            coverage_a, coverage_b, len(panel_a.parts), num_parts_b
        )
    else:
        entries = _enrich_cross_entries(
            _solve_pattern_table(coverage_a, coverage_b, len(panel_a.parts), num_parts_b),
            num_parts_b,
        )

    present_flat = [value for row in present for value in row]
    totals_flat = [value for row in totals for value in row]
    best_entry: Optional[CrossEntry] = None
    best_cost = 0
    for entry in entries:
        cost = entry[1]
        for index in entry[3]:
            cost += totals_flat[index] - present_flat[index]
        for index in entry[4]:
            cost += present_flat[index]
        if best_entry is None or cost < best_cost:
            best_entry = entry
            best_cost = cost
    if best_entry is None:
        # The all-zero pattern is always in the table, so this cannot happen;
        # kept as a defensive fallback for exotic panel shapes.
        return EncodingPlan(
            cost=sum(present_flat),
            positive_blocks=[
                (index // num_parts_b, index % num_parts_b)
                for index, value in enumerate(present_flat)
                if value > 0
            ],
        )
    endpoints_a = panel_a.endpoints()
    endpoints_b = panel_b.endpoints()
    _targets, _slot_cost, assignment, ones_idx, zeros_idx = best_entry
    return EncodingPlan(
        cost=best_cost,
        superedges=[
            (endpoints_a[endpoint_a], endpoints_b[endpoint_b], sign)
            for endpoint_a, endpoint_b, sign in assignment
        ],
        positive_blocks=[
            (index // num_parts_b, index % num_parts_b)
            for index in zeros_idx
            if present_flat[index] > 0
        ],
        negative_blocks=[
            (index // num_parts_b, index % num_parts_b)
            for index in ones_idx
            if totals_flat[index] > present_flat[index]
        ],
    )


def apply_cross_plan(
    plan: EncodingPlan,
    dense: DenseAdjacency,
    hierarchy: Hierarchy,
    panel_a: Panel,
    panel_b: Panel,
    add_superedge,
) -> None:
    """Materialize ``plan`` by calling ``add_superedge(x, y, sign)``.

    Blanket edges come first, then the per-block leaf corrections.  The
    caller is responsible for having removed every pre-existing superedge
    between the two trees.  The correction pairs are already leaf ids.
    """
    for x, y, sign in plan.superedges:
        add_superedge(x, y, sign)
    for row, col in plan.positive_blocks:
        for u, v in _edge_pairs_between(
                dense, hierarchy, panel_a.parts[row], panel_b.parts[col]):
            add_superedge(u, v, POSITIVE)
    for row, col in plan.negative_blocks:
        for u, v in _nonedge_pairs_between(
                dense, hierarchy, panel_a.parts[row], panel_b.parts[col]):
            add_superedge(u, v, NEGATIVE)


# ----------------------------------------------------------------------
# Intra-tree (within one merged supernode) encoding
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _intra_pattern_table(
    num_parts: int,
) -> Dict[Tuple[int, ...], Tuple[int, SlotAssignment]]:
    """Optimal blanket assignments for intra-supernode coverage patterns.

    The merged supernode ``M`` with parts ``p_0 .. p_{k-1}`` has blocks
    for every unordered part pair (including the diagonal).  Endpoint 0
    is the self-loop on ``M`` (covering every block); the remaining
    endpoints are the part pairs themselves.  Targets are flattened in
    the order produced by :func:`_intra_blocks`.
    """
    blocks = _intra_blocks(num_parts)
    endpoints: List[Tuple[Tuple[int, int], ...]] = [tuple(blocks)]
    endpoints.extend((block,) for block in blocks)
    table: Dict[Tuple[int, ...], Tuple[int, SlotAssignment]] = {}
    for values in itertools.product((NEGATIVE, 0, POSITIVE), repeat=len(endpoints)):
        net = {block: 0 for block in blocks}
        used: List[Tuple[int, int, int]] = []
        for endpoint_index, sign in enumerate(values):
            if sign == 0:
                continue
            used.append((endpoint_index, 0, sign))
            for block in endpoints[endpoint_index]:
                net[block] += sign
        if any(value not in (0, 1) for value in net.values()):
            continue
        targets = tuple(net[block] for block in blocks)
        cost = len(used)
        existing = table.get(targets)
        if existing is None or cost < existing[0]:
            table[targets] = (cost, tuple(used))
    return table


def _intra_blocks(num_parts: int) -> List[Tuple[int, int]]:
    """Unordered part pairs (diagonal included) in a fixed order."""
    return [(i, j) for i in range(num_parts) for j in range(i, num_parts)]


# A flattened intra-table entry: (slot cost, assignment, indices of the
# 1-blocks, indices of the 0-blocks) over the :func:`_intra_blocks` order.
IntraEntry = Tuple[int, SlotAssignment, Tuple[int, ...], Tuple[int, ...]]


def _enrich_intra_entries(
    table: Dict[Tuple[int, ...], Tuple[int, SlotAssignment]]
) -> List[IntraEntry]:
    """Flatten an intra-pattern table for the per-merge cost evaluation."""
    entries: List[IntraEntry] = []
    for targets, (slot_cost, assignment) in table.items():
        ones = tuple(index for index, value in enumerate(targets) if value == 1)
        zeros = tuple(index for index, value in enumerate(targets) if value != 1)
        entries.append((slot_cost, assignment, ones, zeros))
    return entries


@lru_cache(maxsize=None)
def _intra_pattern_entries(num_parts: int) -> List[IntraEntry]:
    """Memoized flattened view of :func:`_intra_pattern_table`."""
    return _enrich_intra_entries(_intra_pattern_table(num_parts))


@dataclass
class IntraEncodingPlan:
    """Plan for re-encoding every subedge inside one merged supernode.

    ``superedges`` reference the merged supernode (self-loop) and/or its
    parts; ``positive_blocks``/``negative_blocks`` are part pairs
    (diagonal included) whose present/missing subedges must be added as
    leaf p/n-edges.
    """

    cost: int
    superedges: List[Tuple[int, int, int]] = field(default_factory=list)
    positive_blocks: List[Tuple[int, int]] = field(default_factory=list)
    negative_blocks: List[Tuple[int, int]] = field(default_factory=list)


def plan_intra_encoding(
    dense: DenseAdjacency,
    hierarchy: Hierarchy,
    merged: int,
    panel: Panel,
    *,
    use_memo: bool = True,
) -> IntraEncodingPlan:
    """Best wholesale re-encoding of the subedges inside ``merged``.

    Unlike :func:`plan_cross_encoding`, this plan replaces the intra-tree
    encodings of the parts as well — it is what turns a merged clique or
    dense community into a single self-loop p-edge plus a few negative
    corrections.
    """
    parts = panel.parts
    blocks = _intra_blocks(len(parts))
    present: Dict[Tuple[int, int], int] = {}
    totals: Dict[Tuple[int, int], int] = {}
    for i, j in blocks:
        if i == j:
            size = panel.sizes[i]
            present[(i, j)] = _count_within(dense, hierarchy, parts[i])
            totals[(i, j)] = size * (size - 1) // 2
        else:
            present[(i, j)] = _count_between(dense, hierarchy, parts[i], parts[j])
            totals[(i, j)] = panel.sizes[i] * panel.sizes[j]

    if 1 + len(blocks) > _MAX_EXACT_SLOTS:
        # Merged supernodes with many direct children have too many block
        # endpoints for the exhaustive table; use the candidate family.
        entries = _enrich_intra_entries(_heuristic_intra_table(blocks, present, totals))
    elif use_memo:
        entries = _intra_pattern_entries(len(parts))
    else:
        entries = _enrich_intra_entries(_intra_pattern_table.__wrapped__(len(parts)))

    present_flat = [present[block] for block in blocks]
    totals_flat = [totals[block] for block in blocks]
    best_entry: Optional[IntraEntry] = None
    best_cost = 0
    for entry in entries:
        cost = entry[0]
        for index in entry[2]:
            cost += totals_flat[index] - present_flat[index]
        for index in entry[3]:
            cost += present_flat[index]
        if best_entry is None or cost < best_cost:
            best_entry = entry
            best_cost = cost
    if best_entry is None:
        return IntraEncodingPlan(cost=sum(present_flat),
                                 positive_blocks=[b for b in blocks if present[b] > 0])

    endpoints: List[Tuple[int, int]] = [(merged, merged)]
    for i, j in blocks:
        endpoints.append((parts[i], parts[j]))
    _slot_cost, assignment, ones_idx, zeros_idx = best_entry
    return IntraEncodingPlan(
        cost=best_cost,
        superedges=[
            (endpoints[endpoint_index][0], endpoints[endpoint_index][1], sign)
            for endpoint_index, _unused, sign in assignment
        ],
        positive_blocks=[
            blocks[index] for index in zeros_idx if present_flat[index] > 0
        ],
        negative_blocks=[
            blocks[index] for index in ones_idx if totals_flat[index] > present_flat[index]
        ],
    )


def apply_intra_plan(
    plan: IntraEncodingPlan,
    dense: DenseAdjacency,
    hierarchy: Hierarchy,
    panel: Panel,
    add_superedge,
) -> None:
    """Materialize an intra-supernode plan via ``add_superedge(x, y, sign)``."""
    for x, y, sign in plan.superedges:
        add_superedge(x, y, sign)
    for i, j in plan.positive_blocks:
        if i == j:
            pairs = _edge_pairs_within(dense, hierarchy, panel.parts[i])
        else:
            pairs = _edge_pairs_between(dense, hierarchy, panel.parts[i], panel.parts[j])
        for u, v in pairs:
            add_superedge(u, v, POSITIVE)
    for i, j in plan.negative_blocks:
        if i == j:
            pairs = _nonedge_pairs_within(dense, hierarchy, panel.parts[i])
        else:
            pairs = _nonedge_pairs_between(dense, hierarchy, panel.parts[i], panel.parts[j])
        for u, v in pairs:
            add_superedge(u, v, NEGATIVE)


def memo_table_sizes() -> Dict[str, int]:
    """Statistics of the memoized pattern tables (diagnostics/tests)."""
    cross_info = _pattern_table.cache_info()
    intra_info = _intra_pattern_table.cache_info()
    return {
        "cross_entries": cross_info.currsize,
        "cross_hits": cross_info.hits,
        "cross_misses": cross_info.misses,
        "intra_entries": intra_info.currsize,
        "intra_hits": intra_info.hits,
        "intra_misses": intra_info.misses,
    }
