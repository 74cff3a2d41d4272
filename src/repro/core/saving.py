"""The saving objective used to rank candidate merges (Eq. 8).

``Saving(A, B)`` compares the encoding cost attributable to the root
supernodes ``A`` and ``B`` before their merger with the cost of the
merged supernode afterwards.  Computing the post-merge cost exactly would
require running the local re-encoding for every candidate pair, so —
in the same spirit as the paper's approximations — the estimate below
prices every affected root pair with the best *single-superedge* encoding
(keep the current encoding, list subedges individually, or use one
blanket p-edge plus corrections), which can be read off the per-root
counters.  The exact local search is then run only for pairs that are
actually merged.

Partner search (:func:`best_partner`) estimates as few candidates as it
can.  Alg. 2 merges ``A`` with its best partner only when the saving
reaches the iteration's threshold θ(t) (Eq. 9), so the search takes θ(t)
as its starting "best so far".  Each candidate ``B`` costs one
intersection of the two ``root_adj`` key sets, which serves both cheap
checks: Lemma 1 (merging roots at distance 3 or more never saves) holds
when ``B`` is adjacent to ``A`` or the intersection is non-empty, and the
size of the key union in a floor on ``Cost_{A∪B}`` — the hierarchy edges
of both trees plus one for every root the merged tree touches — is
``|keys_A| + |keys_B| − |intersection|``.  ``B`` is skipped when even that
floor cannot reach the best so far.

A candidate that survives is estimated against ``A``'s
:class:`PartnerProfile`, priced once per search: ``A``'s per-neighbor
(subedges, p/n-edges) counts and the sum of the terms ``A``'s neighbors
contribute on their own, memoized per merged size.  Each estimate then
costs one walk over ``B``'s adjacency (:func:`estimate_merged_cost`).  All
arithmetic is on integers and every skip is against a bound, so Alg. 2
merges exactly the partner that scoring every candidate would pick.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from repro.core.state import SluggerState

__all__ = [
    "PartnerProfile",
    "best_partner",
    "estimate_merged_cost",
    "pair_cost_estimate",
    "pair_denominator",
    "saving",
    "two_hop_roots",
]


def pair_cost_estimate(subedges: int, possible: int, current: int) -> int:
    """Cheapest single-superedge encoding of one root-tree pair.

    ``subedges`` is the number of input-graph edges between the trees,
    ``possible`` the number of potential edges, and ``current`` the number
    of p/n-edges spent on the pair right now (0 means "no encoding needed
    yet", which only happens when there are no subedges either).
    """
    if subedges <= 0:
        return 0
    best = min(subedges, 1 + (possible - subedges))
    if current > 0:
        best = min(best, current)
    return best


class PartnerProfile:
    """Root ``A``'s side of the Eq. 8 numerator, priced once per partner search.

    Every candidate ``B`` that :func:`best_partner` scores against ``A``
    shares ``A``'s counters, so they are read once here:

    * ``neighbors`` maps every root tree ``C != A`` adjacent to ``A`` to
      ``(subedges, p/n-edges)`` between ``A`` and ``C``;
    * :meth:`a_only_sum` is the sum, over those ``C``, of the term ``C``
      would contribute if ``B`` had no edges to it.  That term depends on
      ``B`` only through the merged size ``m = size_A + size_B`` (in the
      dense-block alternative ``1 + m·|C| − s``), so the sum is memoized
      per ``m``.

    A profile is valid only while the state is not mutated, i.e. within
    one :func:`best_partner` call.
    """

    __slots__ = ("size", "size_of", "fixed", "self_subedges", "self_pn",
                 "neighbors", "_sums")

    def __init__(self, state: SluggerState, root: int) -> None:
        size_of = state.summary.hierarchy.size_map().__getitem__
        adj = state.root_adj[root]
        pn_get = state.pn_count[root].get
        self.size = size_of(root)
        self.size_of = size_of
        # A's hierarchy edges plus the two new h-edges to the merged root;
        # B's are added per candidate.
        self.fixed = state.tree_h[root] + 2
        self.self_subedges = adj.get(root, 0)
        self.self_pn = pn_get(root, 0)
        self.neighbors: Dict[int, Tuple[int, int]] = {
            other: (subedges, pn_get(other, 0))
            for other, subedges in adj.items() if other != root
        }
        self._sums: Dict[int, int] = {}

    def a_only_sum(self, merged_size: int) -> int:
        """Sum of :func:`_a_only_term` over every neighbor, for merged size ``m``."""
        total = self._sums.get(merged_size)
        if total is None:
            size_of = self.size_of
            total = 0
            for other, (subedges, current) in self.neighbors.items():
                total += _a_only_term(subedges, current, merged_size, size_of, other)
            self._sums[merged_size] = total
        return total


def _a_only_term(subedges: int, current: int, merged_size: int, size_of, other: int) -> int:
    """Estimated cost of root pair ``(A∪B, C)`` when only ``A`` touches ``C``.

    The dense-block alternative ``1 + m·|C| − s`` beats ``s`` only when
    ``2s > m·|C| + 1``, which needs ``2s > m + 1``, so ``|C|`` is looked up
    only then.
    """
    best = subedges
    if 2 * subedges > merged_size + 1:
        alternative = 1 + merged_size * size_of(other) - subedges
        if alternative < best:
            best = alternative
    if 0 < current < best:
        best = current
    return best


def estimate_merged_cost(
    state: SluggerState, root_a: int, root_b: int, profile: Optional[PartnerProfile] = None
) -> int:
    """Estimated Cost_{A∪B} after merging two root supernodes (numerator of Eq. 8).

    ``profile`` is ``root_a``'s :class:`PartnerProfile`; it is built here
    when not supplied.  The cost is the profile's A-only sum corrected by
    one walk over ``root_b``'s adjacency: a neighbor ``C`` that ``A`` also
    touches swaps ``A``'s term for the joint term, any other neighbor adds
    ``B``'s own term, and ``A``'s term for ``C = B`` is taken back out.
    Each term is :func:`pair_cost_estimate` over the merged counters,
    inlined because this runs once per scored candidate pair.

    Exactness relies on the invariant that every root pair with p/n-edges
    also has subedges (checked by
    :meth:`~repro.core.state.SluggerState.check_consistency`): a root the
    adjacency maps do not list contributes nothing.
    """
    if profile is None:
        profile = PartnerProfile(state, root_a)
    size_of = profile.size_of
    size_a = profile.size
    size_b = size_of(root_b)
    merged_size = size_a + size_b
    adj_b = state.root_adj[root_b]
    pn_b_get = state.pn_count[root_b].get
    neighbors_get = profile.neighbors.get

    cost = profile.fixed + state.tree_h[root_b]

    # Everything inside the merged tree: either keep the existing intra
    # encodings and (re-)encode only the cross part, or re-encode the whole
    # inside with a self-loop p-edge plus corrections (the clique case).
    cross_subedges, cross_current = neighbors_get(root_b, (0, 0))
    keep_intra = (
        profile.self_pn
        + pn_b_get(root_b, 0)
        + pair_cost_estimate(cross_subedges, size_a * size_b, cross_current)
    )
    intra_subedges = profile.self_subedges + adj_b.get(root_b, 0) + cross_subedges
    if intra_subedges > 0:
        self_loop = 1 + (merged_size * (merged_size - 1) // 2 - intra_subedges)
        cost += min(keep_intra, self_loop)
    else:
        cost += keep_intra

    # Edges towards every other adjacent root tree C.
    cost += profile.a_only_sum(merged_size)
    if cross_subedges:
        cost -= _a_only_term(cross_subedges, cross_current, merged_size, size_of, root_b)
    threshold = merged_size + 1
    for other, subedges in adj_b.items():
        if other == root_a or other == root_b:
            continue
        current = pn_b_get(other, 0)
        shared = neighbors_get(other)
        if shared is not None:
            # Take A's own term for C back out (_a_only_term, inlined).
            sub_a, current_a = shared
            best = sub_a
            if 2 * sub_a > threshold:
                alternative = 1 + merged_size * size_of(other) - sub_a
                if alternative < best:
                    best = alternative
            if 0 < current_a < best:
                best = current_a
            cost -= best
            subedges += sub_a
            current += current_a
        best = subedges
        if 2 * subedges > threshold:
            alternative = 1 + merged_size * size_of(other) - subedges
            if alternative < best:
                best = alternative
        if 0 < current < best:
            best = current
        cost += best
    return cost


def pair_denominator(state: SluggerState, root_a: int, root_b: int) -> int:
    """Denominator of Eq. 8: Cost_A + Cost_B - Cost^P_{A,B}.

    :func:`best_partner` inlines it over the same counters.
    """
    return state.cost_of(root_a) + state.cost_of(root_b) - state.pn_cost_between(root_a, root_b)


def saving(state: SluggerState, root_a: int, root_b: int) -> float:
    """Saving(A, B, G) of Eq. 8; larger is better, values ≤ 0 mean "do not merge"."""
    denominator = pair_denominator(state, root_a, root_b)
    if denominator <= 0:
        return float("-inf")
    return 1.0 - estimate_merged_cost(state, root_a, root_b) / denominator


def two_hop_roots(state: SluggerState, root: int) -> set:
    """Root trees within distance 2 of ``root``'s tree in the input graph.

    Lemma 1 shows that merging root trees at distance 3 or more always
    increases the encoding cost, so partner search can be restricted to
    this set without affecting the result.  :func:`best_partner` tests the
    same membership per candidate without building the set.
    """
    direct = set(state.root_adj[root])
    reachable = set(direct)
    for neighbor in direct:
        reachable.update(state.root_adj[neighbor])
    reachable.discard(root)
    return reachable


def best_partner(
    state: SluggerState, root: int, candidates, height_bound=None, threshold=None
) -> Tuple[float, int]:
    """The candidate with the largest saving when merged with ``root``.

    Returns ``(saving, partner)``; ``partner`` is ``-1`` when no candidate
    is admissible (e.g. all would exceed the height bound).  With a
    ``threshold`` (θ(t) of Eq. 9) only candidates whose saving reaches it
    count: the result is the same as without it when the best saving is
    ``≥ threshold``, and ``(-inf, -1)`` otherwise.

    The search prices ``root``'s side once; each candidate ``B`` costs one
    intersection ``common`` of the two ``root_adj`` key sets and integer
    arithmetic, and only the survivors a walk over ``B``'s neighbors.
    Every shortcut is exact:

    * **Lemma 1.**  Candidates at distance 3 or more never save, so a
      candidate is scored only if it is adjacent to ``root`` or ``common``
      is non-empty (``root_adj`` is symmetric, so that is exactly
      membership in :func:`two_hop_roots`); no two-hop set is built.
    * **θ cutoff.**  The best so far starts just below ``threshold``, so a
      candidate must reach θ(t) to be estimated or returned.
    * **Lower bound.**  The estimate is a sum of non-negative terms: both
      trees' h-edges plus the two new ones, at least one for every root
      ``C ∉ {A, B}`` either tree touches (each of its alternatives — the
      subedges, the dense block ``1 + m·|C| − s``, the current p/n-edges —
      is ≥ 1), and at least one for the intra term when A–A, A–B or B–B
      subedges exist (a lossless encoding covers each of them).  The key
      union, of size ``|keys_A| + |keys_B| − |common|``, counts ``A`` when
      A–A or A–B subedges exist and ``B`` when A–B or B–B ones do, so one
      is taken back when both are counted.  A candidate whose saving
      cannot beat the best so far even at that floor is skipped without
      an estimate.  The skip is ``<=`` and the update a strict ``>``, so
      ties still go to the first candidate scanned.  ``root``'s share of
      the floor and its ``Cost_A`` are read once per call.
    * **A-profile.**  ``root``'s :class:`PartnerProfile` is built when the
      first candidate survives every check, then shared by every
      :func:`estimate_merged_cost` call, which walks only ``root_adj[B]``.
    """
    root_adj = state.root_adj
    direct = root_adj[root]
    direct_keys = direct.keys()
    tree_h = state.tree_h
    tree_height = state.tree_height
    pn_total = state.pn_total
    pn_root_get = state.pn_count[root].get
    h_root = tree_h[root]
    cost_root = h_root + pn_total[root]
    height_root = tree_height[root]
    # A's share of the floor: its h-edges, the two new ones and its keys.
    floor_root = h_root + 2 + len(direct)
    root_self = root in direct
    profile = None
    if threshold is None:
        best_value = float("-inf")
    else:
        best_value = math.nextafter(threshold, -math.inf)
    best_root = -1
    for other in candidates:
        if other == root:
            continue
        adj_other = root_adj[other]
        common = direct_keys & adj_other.keys()
        adjacent = other in direct
        if not adjacent and not common:
            continue
        if height_bound is not None and 1 + max(height_root, tree_height[other]) > height_bound:
            continue
        h_other = tree_h[other]
        denominator = cost_root + h_other + pn_total[other] - pn_root_get(other, 0)
        if denominator <= 0:
            continue
        # The key union counts A and B for the one intra term (see above).
        floor = floor_root + h_other + len(adj_other) - len(common)
        if adjacent or (root_self and other in adj_other):
            floor -= 1
        if 1.0 - floor / denominator <= best_value:
            # Even the cheapest conceivable merged cost cannot strictly
            # improve on the current best; skip the expensive estimate.
            continue
        if profile is None:
            profile = PartnerProfile(state, root)
        value = 1.0 - estimate_merged_cost(state, root, other, profile) / denominator
        if value > best_value:
            best_value = value
            best_root = other
    if best_root < 0:
        return float("-inf"), -1
    return best_value, best_root
