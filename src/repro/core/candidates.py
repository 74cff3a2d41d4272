"""Candidate-set generation (Sect. III-B2).

Naively searching all root pairs for the merge with the largest cost
reduction is quadratic in the number of roots.  SLUGGER instead groups
roots that share a min-hash shingle (and therefore are likely to lie
within distance 2 of each other — merging more distant pairs never helps,
Lemma 1), splits oversized groups with further shingle rounds, and
finally splits any group still above the cap at random.

Lazy, cached shingle rounds on dense ids
----------------------------------------
Each shingle round only has to split the groups that are still above the
candidate-size cap, so shingles are computed *lazily* per oversized
group: one :class:`~repro.core.shingles.LazyShingles` is created per
round (for the round's hash-function seed), and only the leaf ids of the
roots that still need splitting are hashed.  The first round typically
covers the whole graph — the cache then bulk-hashes every node once up
front so the per-edge minimum runs at C speed — while later rounds touch
only the shrinking oversized remainder.  The produced candidate sets are
bit-identical to the eager scheme for a fixed seed: laziness changes
where the hashing work happens, not which shingle values are computed.

Everything runs on the dense integer-id substrate: a leaf root *is* its
dense node id, and an internal root aggregates over the hierarchy's
memoized leaf-id tuple.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.config import SluggerConfig
from repro.core.shingles import LazyShingles
from repro.graphs.dense import DenseAdjacency
from repro.model.hierarchy import Hierarchy
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["generate_candidate_sets"]


def generate_candidate_sets(
    dense: DenseAdjacency,
    hierarchy: Hierarchy,
    roots: Sequence[int],
    config: SluggerConfig,
    seed: SeedLike = None,
) -> List[List[int]]:
    """Split ``roots`` into candidate sets of at most ``config.max_candidate_size``.

    Each returned list contains root supernode ids that are promising to
    merge with one another.  Groups of size one are dropped because they
    offer nothing to merge.  A different ``seed`` per iteration varies the
    grouping so more root pairs get considered over time (Sect. III-B2).

    ``dense`` is the state's substrate, whose node ids are the leaf
    supernode ids of ``hierarchy``.
    """
    rng = ensure_rng(seed)
    groups: List[List[int]] = [list(roots)]
    finished: List[List[int]] = []
    # Leaf-id tuples per root, shared by every round of this call (roots
    # do not change while candidate sets are being generated).  Leaf
    # roots — the entire first iteration, and stragglers later — resolve
    # through a single probe instead.
    root_leaves: Dict[int, Sequence[int]] = {}
    leaf_map = hierarchy.leaf_subnode_map()

    for _ in range(config.shingle_rounds):
        oversized = [group for group in groups if len(group) > config.max_candidate_size]
        finished.extend(group for group in groups if len(group) <= config.max_candidate_size)
        if not oversized:
            groups = []
            break
        # Every round draws a fresh hash-function seed; all groups split
        # within the round share its lazily-filled cache.
        round_seed = rng.randrange(2**61)
        cache = LazyShingles(dense, round_seed)
        if 2 * sum(len(group) for group in oversized) >= len(roots):
            # The round still covers most of the roots (always true for the
            # first round), so its closed neighborhoods touch most of the
            # graph: bulk-compute every shingle once so the per-edge minima
            # and the per-root lookups below run at C speed.
            shingle_of = cache.ensure_shingles().__getitem__
        else:
            shingle_of = cache.shingle
        groups = []
        for group in oversized:
            buckets: Dict[int, List[int]] = {}
            for root in group:
                if root in leaf_map:  # A leaf root is its own dense id.
                    value = shingle_of(root)
                else:
                    leaves = root_leaves.get(root)
                    if leaves is None:
                        leaves = root_leaves[root] = hierarchy.leaf_id_view(root)
                    value = min(map(shingle_of, leaves))
                buckets.setdefault(value, []).append(root)
            if len(buckets) == 1:
                # The shingle could not separate the group; keep it whole and
                # let the random splitting below handle it.
                groups.append(group)
            else:
                # repro-lint: disable=unordered-iter (dict insertion order is deterministic and the pinned RNG stream depends on it)
                groups.extend(buckets.values())

    # Any group still above the cap is split uniformly at random.
    for group in groups:
        if len(group) <= config.max_candidate_size:
            finished.append(group)
        else:
            shuffled = list(group)
            rng.shuffle(shuffled)
            for start in range(0, len(shuffled), config.max_candidate_size):
                finished.append(shuffled[start:start + config.max_candidate_size])

    candidate_sets = [group for group in finished if len(group) >= 2]
    rng.shuffle(candidate_sets)
    return candidate_sets
