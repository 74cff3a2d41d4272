"""The merging step of SLUGGER (Algorithm 2).

Within each candidate root set, SLUGGER repeatedly picks a random root
``A``, finds the partner ``B`` with the largest saving, and — if the
saving clears the iteration's threshold θ(t) — merges the two trees and
re-encodes the superedges they are involved in:

* *Case 1*: the subedges between the two merged trees are re-encoded over
  the panel ``{A, children(A)} × {B, children(B)}``.
* *Case 2*: for every adjacent root tree ``C``, the subedges between the
  merged tree and ``C`` are re-encoded over ``{A∪B, A, B} × {C,
  children(C)}`` whenever that lowers the cost.

Both cases use the memoized local encoder (one exact table per panel
shape; merge trees stay binary until pruning, so panels are leaves or
binary roots) and therefore cost O(1) pattern search plus the work of
counting/listing the affected subedges.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.core.config import SluggerConfig
from repro.core.encoder import (
    Panel,
    apply_plan,
    plan_cross_encoding,
    plan_intra_encoding,
)
from repro.core.saving import best_partner
from repro.core.state import SluggerState
from repro.exceptions import SummaryInvariantError
from repro.utils.rng import SeedLike, ensure_rng

__all__ = [
    "merge_and_update",
    "process_candidate_set",
]


def merge_and_update(
    state: SluggerState, root_a: int, root_b: int, config: SluggerConfig
) -> int:
    """Merge two root supernodes and locally re-encode the affected superedges.

    Returns the id of the new root supernode.  Exactness is preserved:
    every re-encoding removes all superedges between the affected trees
    and replaces them with a plan that reproduces the same subedges.
    """
    hierarchy = state.summary.hierarchy
    use_memo = config.use_memoized_encoder
    dense = state.dense

    # Case 1: re-encode the subedges between the two trees being merged,
    # while they are still separate roots (the panel endpoints are the two
    # roots and their direct children; the new root is not needed because
    # a blanket on it would also disturb the intra-tree encodings).
    cross_current = state.pn_cost_between(root_a, root_b)
    if cross_current > 0:
        panel_a = Panel(hierarchy, root_a)
        panel_b = Panel(hierarchy, root_b)
        plan = plan_cross_encoding(dense, hierarchy, panel_a, panel_b, use_memo=use_memo)
        if plan.cost < cross_current:
            state.remove_all_between(root_a, root_b)
            apply_plan(
                plan, dense, hierarchy,
                lambda x, y, sign: state.add_superedge(root_a, root_b, x, y, sign),
            )

    merged = state.merge_roots(root_a, root_b)

    # Case 1 (continued): consider re-encoding the whole inside of the
    # merged tree at once — a self-loop p-edge on the new root plus a few
    # corrections is what collapses cliques and dense communities.
    intra_current = state.pn_cost_between(merged, merged)
    if intra_current > 1:
        panel_merged = Panel(hierarchy, merged)
        intra_plan = plan_intra_encoding(
            dense, hierarchy, merged, panel_merged, use_memo=use_memo
        )
        if intra_plan.cost < intra_current:
            state.remove_all_between(merged, merged)
            apply_plan(
                intra_plan, dense, hierarchy,
                lambda x, y, sign: state.add_superedge(merged, merged, x, y, sign),
            )

    # Case 2: the new root can now act as a blanket endpoint towards every
    # adjacent root tree; re-encode those pairs when it helps.
    panel_merged = Panel(hierarchy, merged)
    for other in list(state.pn_count[merged]):
        if other == merged:
            continue
        current = state.pn_count[merged][other]
        if current < 2:
            # A pair already encoded with a single superedge cannot improve.
            continue
        panel_other = Panel(hierarchy, other)
        plan = plan_cross_encoding(dense, hierarchy, panel_merged, panel_other,
                                   use_memo=use_memo)
        if plan.cost < current:
            state.remove_all_between(merged, other)
            apply_plan(
                plan, dense, hierarchy,
                lambda x, y, sign: state.add_superedge(merged, other, x, y, sign),
            )
    return merged


def process_candidate_set(
    state: SluggerState,
    candidate_set: Iterable[int],
    threshold: float,
    config: SluggerConfig,
    seed: SeedLike = None,
) -> int:
    """Run Algorithm 2 on one candidate root set; returns the number of merges.

    ``threshold`` (θ(t) of Eq. 9) is handed to :func:`best_partner`, which
    then skips every candidate that cannot reach it; a root with no such
    partner gets ``(-inf, -1)`` back and stays unmerged.

    A position map (root id → queue slot) mirrors the queue so replacing a
    merged partner is O(1) instead of an O(n) ``list.index`` scan, and a
    partner that is unexpectedly absent raises a clear invariant error
    instead of ``ValueError``.
    """
    rng = ensure_rng(seed)
    # dict.fromkeys dedups while keeping order: a duplicated root must get
    # one queue slot, or the position map would go out of sync with it.
    queue: List[int] = list(dict.fromkeys(
        root for root in candidate_set if root in state.roots
    ))
    position: Dict[int, int] = {root: index for index, root in enumerate(queue)}
    merges = 0
    while len(queue) > 1:
        index = rng.randrange(len(queue))
        root_a = queue[index]
        del position[root_a]
        last = queue.pop()
        if index < len(queue):
            queue[index] = last
            position[last] = index
        value, root_b = best_partner(
            state, root_a, queue, height_bound=config.height_bound, threshold=threshold
        )
        if root_b < 0 or value < threshold:
            continue
        merged = merge_and_update(state, root_a, root_b, config)
        slot = position.pop(root_b, None)
        if slot is None:
            raise SummaryInvariantError(
                f"best_partner returned root {root_b}, which is not in the candidate queue"
            )
        queue[slot] = merged
        position[merged] = slot
        merges += 1
    return merges

