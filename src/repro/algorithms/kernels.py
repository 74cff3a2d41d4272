"""Flat-array graph kernels on dense integer ids.

These are the substrate-native engines behind every function in
``repro.algorithms``: they speak ids ``0..n-1`` and touch the graph only
through sorted neighbor runs (CSR ``indptr``/``indices`` slices, or a
provider's ``neighbor_ids``), in the WebGraph serving style (Boldi &
Vigna, WWW'04) — integer ids and flat arrays are the serving substrate,
labels are a presentation-layer concern handled by the shims in the
sibling modules.  None of the kernels builds a per-node Python set or
dict: state lives in flat lists/bytearrays indexed by id, so they run
unchanged over an in-memory
:class:`~repro.graphs.dense.CSRAdjacency`, a zero-copy
:class:`~repro.storage.mapped.MappedCSR`, or a hierarchical summary's
memoized row table
(:meth:`~repro.model.summary.HierarchicalSummary.row_table`: partial
decompression runs once per summary, not once per query).

Every kernel is bit-identical to the label-keyed implementation it
replaced; where the legacy code depended on an iteration order (the
``repr``-sorted traversals, label propagation's shuffled sweep) the
order is reproduced through an explicit ``rank`` permutation supplied by
the shim.

The adjacency argument ``adj`` is anything with ``num_nodes`` and sorted
ascending neighbor runs: either flat ``indptr``/``indices`` arrays (the
fast path — row reads are zero-copy slices) or a ``neighbor_ids(u)``
method (the flat-summary provider).
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from itertools import chain, filterfalse
from typing import Callable, List, Optional, Sequence, Tuple

__all__ = [
    "bfs_distances_ids",
    "bfs_order_ids",
    "bfs_sweep_ids",
    "components_ids",
    "core_numbers_ids",
    "dfs_order_ids",
    "dijkstra_ids",
    "label_propagation_ids",
    "local_clustering_ids",
    "local_triangles_ids",
    "modularity_ids",
    "pagerank_ids",
    "row_reader",
    "triangle_count_ids",
]


def row_reader(adj) -> Callable[[int], Sequence[int]]:
    """A zero-copy ``row(u) -> sorted neighbor ids`` accessor for ``adj``.

    CSR-shaped adjacencies (``indptr``/``indices`` attributes) read rows
    as flat-array slices; anything else must provide ``neighbor_ids``.
    """
    indptr = getattr(adj, "indptr", None)
    indices = getattr(adj, "indices", None)
    if indptr is not None and indices is not None:

        def row(u: int) -> Sequence[int]:
            return indices[indptr[u]:indptr[u + 1]]

        return row
    return adj.neighbor_ids


def _check_source(adj, source: int) -> None:
    if not isinstance(source, int) or not 0 <= source < adj.num_nodes:
        raise ValueError(
            f"source id must be in [0, {adj.num_nodes}), got {source!r}"
        )


# ----------------------------------------------------------------------
# PageRank
# ----------------------------------------------------------------------
def pagerank_ids(adj, damping: float = 0.85, iterations: int = 20) -> List[float]:
    """Power-iteration PageRank; returns the score of every id.

    Pull formulation of Algorithm 6: each iteration computes every
    node's incoming mass as the sum of its neighbors' shares in one
    C-level ``sum(map(...))`` sweep per row.  Because neighbor runs are
    sorted ascending — the same order the legacy push loop visited
    sources in — the float accumulation order is identical and the
    scores are bit-for-bit equal to the label-keyed implementation.
    """
    n = adj.num_nodes
    if n == 0:
        return []
    row = row_reader(adj)
    # Materialize rows as plain lists once: re-slicing (and re-boxing
    # array ints) every iteration would dominate the sweep.
    rows = [list(row(u)) for u in range(n)]
    degrees = [len(neighbors) for neighbors in rows]
    scores = [1.0 / n] * n
    for _ in range(iterations):
        shares = [
            score / degree if degree else 0.0
            for score, degree in zip(scores, degrees)
        ]
        get = shares.__getitem__
        damped = [sum(map(get, neighbors)) * damping for neighbors in rows]
        leak = (1.0 - sum(damped)) / n
        scores = [incoming + leak for incoming in damped]
    return scores


# ----------------------------------------------------------------------
# Traversal
# ----------------------------------------------------------------------
def bfs_order_ids(
    adj, source: int, rank: Optional[Sequence[int]] = None
) -> List[int]:
    """Ids reachable from ``source`` in breadth-first visiting order.

    ``rank`` is an optional permutation giving the neighbor expansion
    order (lower rank first); ``None`` expands in ascending id order.
    The label shims pass the ``repr``-sort rank to reproduce the legacy
    visiting order exactly.
    """
    return bfs_sweep_ids(adj, source, rank)[0]


def bfs_sweep_ids(
    adj, source: int, rank: Optional[Sequence[int]] = None
) -> Tuple[List[int], int]:
    """One breadth-first pass: ``(visiting order, eccentricity of source)``.

    The order is :func:`bfs_order_ids`'s; the eccentricity is the hop
    distance of the last level reached (0 for an isolated source), the
    maximum :func:`bfs_distances_ids` would report.  Each reached row is
    read exactly once, which matters when rows are rebuilt per call
    (the flat summary's label bridge) rather than read from flat arrays.
    """
    _check_source(adj, source)
    row = row_reader(adj)
    seen = bytearray(adj.num_nodes)
    seen[source] = 1
    unseen = seen.__getitem__
    order = [source]
    frontier = [source]
    level = 0
    while True:
        reached: List[int] = []
        for u in frontier:
            # Filter before sorting: only the not-yet-seen neighbors are
            # enqueued, and their relative order is all the sort
            # decides, so sorting the (usually much smaller) fresh set
            # is equivalent.
            fresh = list(filterfalse(unseen, row(u)))
            if fresh:
                if rank is not None and len(fresh) > 1:
                    fresh.sort(key=rank.__getitem__)
                for v in fresh:
                    seen[v] = 1
                reached.extend(fresh)
        if not reached:
            return order, level
        level += 1
        order.extend(reached)
        frontier = reached


def bfs_distances_ids(adj, source: int) -> List[int]:
    """Hop distance from ``source`` per id (``-1`` for unreachable ids).

    Level-synchronous sweep: each frontier's neighbor runs are batched
    into one candidate list with C-level ``extend`` calls, then filtered
    in a single pass — no per-node set, no sort.
    """
    _check_source(adj, source)
    row = row_reader(adj)
    distances = [-1] * adj.num_nodes
    distances[source] = 0
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        candidates: List[int] = []
        extend = candidates.extend
        for u in frontier:
            extend(row(u))
        frontier = []
        append = frontier.append
        for v in candidates:
            if distances[v] < 0:
                distances[v] = level
                append(v)
    return distances


def dfs_order_ids(
    adj, source: int, rank: Optional[Sequence[int]] = None
) -> List[int]:
    """Ids reachable from ``source`` in iterative depth-first pre-order.

    Matches the legacy recursive formulation: neighbors are explored in
    ``rank`` order (ascending ids when ``None``) via a reverse-sorted
    stack push with a seen-check at both push and pop time.
    """
    _check_source(adj, source)
    row = row_reader(adj)
    order: List[int] = []
    seen = bytearray(adj.num_nodes)
    stack = [source]
    while stack:
        u = stack.pop()
        if seen[u]:
            continue
        seen[u] = 1
        order.append(u)
        if rank is None:
            neighbors = sorted(row(u), reverse=True)
        else:
            neighbors = sorted(row(u), key=rank.__getitem__, reverse=True)
        for v in neighbors:
            if not seen[v]:
                stack.append(v)
    return order


def components_ids(adj) -> List[List[int]]:
    """Connected components as id lists, largest first.

    Components are discovered in ascending order of their smallest id
    and sorted by size (descending) with a stable sort, so the output
    order is deterministic — unlike the legacy ``set.pop`` sweep, whose
    discovery order depended on the hash seed.  Contents are identical.
    """
    n = adj.num_nodes
    row = row_reader(adj)
    seen = bytearray(n)
    components: List[List[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = 1
        member_of = [start]
        head = 0
        while head < len(member_of):
            u = member_of[head]
            head += 1
            for v in row(u):
                if not seen[v]:
                    seen[v] = 1
                    member_of.append(v)
        components.append(member_of)
    components.sort(key=len, reverse=True)
    return components


# ----------------------------------------------------------------------
# Triangles & clustering
# ----------------------------------------------------------------------
def _forward_rows(adj) -> List[Sequence[int]]:
    """The ``> u`` tail of every sorted neighbor run (one bisect per row).

    Sharing these across the sweep turns triangle enumeration into pure
    flag reads: each triangle ``u < v < w`` is found exactly once, at
    ``u``, as a forward neighbor ``w`` of ``v`` flagged in ``N+(u)``.
    """
    row = row_reader(adj)
    forward: List[List[int]] = []
    for u in range(adj.num_nodes):
        neighbors = row(u)
        # Plain lists: the sweep reads each run many times, and list
        # iteration skips the per-element int boxing of array slices.
        forward.append(list(neighbors[bisect_right(neighbors, u):]))
    return forward


# Above this many nodes the dense-bitset path's O(n^2 / 8) mask bytes
# stop being worth it and the kernel falls back to flag-array merging.
_BITSET_MAX_NODES = 1 << 14


def _triangle_count_bitset(forward: List[List[int]], n: int) -> int:
    """Dense-bitset triangle count for small universes.

    Each id's forward run becomes an ``n``-bit integer; common forward
    neighbors are then one ``&`` + ``bit_count`` per forward edge, with
    the whole inner reduction running as a C-level ``sum(map(...))``
    pipeline.  Masks cost O(n^2 / 8) bytes in the worst case, so this
    path is reserved for universes where that is trivially small.
    """
    buf = bytearray((n + 7) >> 3)
    from_bytes = int.from_bytes
    masks: List[int] = []
    append = masks.append
    for run in forward:
        for w in run:
            buf[w >> 3] |= 1 << (w & 7)
        append(from_bytes(buf, "little"))
        for w in run:
            # Clearing the whole byte is safe: every set bit in it
            # belongs to this run.
            buf[w >> 3] = 0
    bit_count = int.bit_count
    get_mask = masks.__getitem__
    total = 0
    for u, run in enumerate(forward):
        if len(run) < 2:
            # A lone forward neighbor cannot close a forward triangle.
            continue
        total += sum(map(bit_count, map(masks[u].__and__, map(get_mask, run))))
    return total


def triangle_count_ids(adj) -> int:
    """Total number of triangles, each counted exactly once.

    For every edge ``(u, v)`` with ``u < v`` the kernel counts common
    forward neighbors ``w > v``: on small universes via dense-bitset
    intersection (one ``&`` + popcount per forward edge), otherwise
    against a flag array of ``N+(u)`` with the per-``w`` membership
    reads running as one C-level ``sum(map(...))`` over ``v``'s
    precomputed forward run.  Both paths count the identical integer.
    """
    n = adj.num_nodes
    forward = _forward_rows(adj)
    if n <= _BITSET_MAX_NODES:
        return _triangle_count_bitset(forward, n)
    flags = bytearray(n)
    lookup = flags.__getitem__
    runs_of = forward.__getitem__
    from_iterable = chain.from_iterable
    total = 0
    for run in forward:
        if len(run) < 2:
            # A lone forward neighbor cannot close a forward triangle.
            continue
        for w in run:
            flags[w] = 1
        # One C-level pass: every forward run of every forward neighbor,
        # summed against the flag array.
        total += sum(map(lookup, from_iterable(map(runs_of, run))))
        for w in run:
            flags[w] = 0
    return total


def local_triangles_ids(adj) -> List[int]:
    """Number of triangles each id participates in."""
    forward = _forward_rows(adj)
    flags = bytearray(adj.num_nodes)
    counts = [0] * adj.num_nodes
    for u, run in enumerate(forward):
        if not run:
            continue
        for w in run:
            flags[w] = 1
        for v in run:
            for w in forward[v]:
                if flags[w]:
                    counts[u] += 1
                    counts[v] += 1
                    counts[w] += 1
        for w in run:
            flags[w] = 0
    return counts


def local_clustering_ids(adj, u: int) -> float:
    """Local clustering coefficient of id ``u`` (0 for degree < 2)."""
    row = row_reader(adj)
    neighbors = row(u)
    degree = len(neighbors)
    if degree < 2:
        return 0.0
    flags = bytearray(adj.num_nodes)
    lookup = flags.__getitem__
    for w in neighbors:
        flags[w] = 1
    corner = 0
    for v in neighbors:
        corner += sum(map(lookup, row(v)))
    # Each neighbor-neighbor edge is seen from both endpoints.
    links = corner // 2
    return 2.0 * links / (degree * (degree - 1))


# ----------------------------------------------------------------------
# k-cores
# ----------------------------------------------------------------------
def core_numbers_ids(adj) -> List[int]:
    """Core number of every id via O(n + m) bucket peeling (Matula–Beck).

    Bin-sorts ids by degree and repeatedly peels the minimum-degree
    node; core numbers are a well-defined graph invariant, so the
    result is identical to the legacy heap-based peel regardless of the
    tie order.
    """
    n = adj.num_nodes
    if n == 0:
        return []
    row = row_reader(adj)
    degrees = [len(row(u)) for u in range(n)]
    max_degree = max(degrees)
    bins = [0] * (max_degree + 1)
    for degree in degrees:
        bins[degree] += 1
    start = 0
    for degree in range(max_degree + 1):
        count = bins[degree]
        bins[degree] = start
        start += count
    positions = [0] * n
    ordered = [0] * n
    for u in range(n):
        positions[u] = bins[degrees[u]]
        ordered[positions[u]] = u
        bins[degrees[u]] += 1
    for degree in range(max_degree, 0, -1):
        bins[degree] = bins[degree - 1]
    bins[0] = 0
    cores = degrees[:]
    for position in range(n):
        u = ordered[position]
        for v in row(u):
            if cores[v] > cores[u]:
                # Move v to the front of its bin and shrink the bin.
                degree_v = cores[v]
                front = bins[degree_v]
                swapped = ordered[front]
                if swapped != v:
                    position_v = positions[v]
                    ordered[front], ordered[position_v] = v, swapped
                    positions[v], positions[swapped] = front, position_v
                bins[degree_v] += 1
                cores[v] -= 1
    return cores


# ----------------------------------------------------------------------
# Communities & modularity
# ----------------------------------------------------------------------
def label_propagation_ids(
    adj, rank: Sequence[int], max_rounds: int, rng
) -> List[List[int]]:
    """Asynchronous label propagation; returns id groups, largest first.

    ``rank`` is the permutation reproducing the legacy sweep order
    (position of each id when labels are sorted by ``repr``); the
    initial label of an id is its rank, sweeps shuffle the rank-ordered
    sequence with ``rng``, and ties pick ``rng.randrange`` over the
    sorted candidate labels — so the rng stream, and therefore the
    result, is identical to the label-keyed implementation.
    """
    n = adj.num_nodes
    row = row_reader(adj)
    by_rank = sorted(range(n), key=rank.__getitem__)
    labels = list(rank)
    for _ in range(max_rounds):
        changed = False
        order = list(by_rank)
        rng.shuffle(order)
        for u in order:
            tally: dict = {}
            for v in row(u):
                label = labels[v]
                tally[label] = tally.get(label, 0) + 1
            if not tally:
                continue
            best_count = max(tally.values())
            best_labels = sorted(
                label for label, count in tally.items() if count == best_count
            )
            new_label = best_labels[rng.randrange(len(best_labels))]
            if new_label != labels[u]:
                labels[u] = new_label
                changed = True
        if not changed:
            break
    groups: dict = {}
    for u in by_rank:
        groups.setdefault(labels[u], []).append(u)
    return sorted(groups.values(), key=len, reverse=True)


def modularity_ids(adj, communities: Sequence[Sequence[int]]) -> float:
    """Newman modularity of an id partition under the represented graph."""
    n = adj.num_nodes
    row = row_reader(adj)
    degrees = [len(row(u)) for u in range(n)]
    two_m = sum(degrees)
    if two_m == 0:
        return 0.0
    community_of = [-1] * n
    for index, community in enumerate(communities):
        for u in community:
            community_of[u] = index
    intra = 0
    for u in range(n):
        membership = community_of[u]
        if membership < 0:
            continue
        for v in row(u):
            if community_of[v] == membership:
                intra += 1
    quality = intra / two_m
    for community in communities:
        community_degree = sum(degrees[u] for u in community)
        quality -= (community_degree / two_m) ** 2
    return quality


# ----------------------------------------------------------------------
# Shortest paths
# ----------------------------------------------------------------------
def dijkstra_ids(
    adj,
    source: int,
    weight: Optional[Callable[[int, int], float]] = None,
) -> Tuple[List[float], List[int]]:
    """Dijkstra distances and predecessors from ``source`` on ids.

    Returns ``(distances, predecessors)`` with ``inf`` / ``-1`` for
    unreachable ids.  ``weight(u, v)`` defaults to unit weights and must
    be non-negative.  Neighbors relax in ascending id order, so the
    predecessor choice among equal-cost ties is deterministic.
    """
    _check_source(adj, source)
    row = row_reader(adj)
    infinity = float("inf")
    distances = [infinity] * adj.num_nodes
    predecessors = [-1] * adj.num_nodes
    distances[source] = 0.0
    settled = bytearray(adj.num_nodes)
    heap: List[Tuple[float, int, int]] = [(0.0, 0, source)]
    counter = 0
    while heap:
        distance, _tie, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = 1
        for v in row(u):
            step = 1.0 if weight is None else weight(u, v)
            if step < 0:
                raise ValueError("Dijkstra's algorithm requires non-negative weights")
            candidate = distance + step
            if candidate < distances[v]:
                distances[v] = candidate
                predecessors[v] = u
                counter += 1
                heapq.heappush(heap, (candidate, counter, v))
    return distances, predecessors
