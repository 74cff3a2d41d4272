"""Golden bit-identity table for SLUGGER summaries.

Every configuration below is pinned to the cost and
``summary_fingerprint`` that the merge path produced before it applied
re-encodings per root pair (one bulk ``SluggerState.replace_between``
per pair instead of one superedge at a time).  A pure refactor or
speed-up of the merging step must leave every row unchanged: a drift
means a merge decision or an iteration order moved.

The inputs mirror the perfbench workloads at a smaller scale (a sparse
Erdős–Rényi graph with average degree 10 and a relaxed caveman graph),
plus a larger-cave caveman graph and a dense Erdős–Rényi graph.
"""

from __future__ import annotations

import pytest

from repro.core import Slugger, SluggerConfig
from repro.graphs import caveman_graph, erdos_renyi_graph
from repro.storage.summary_store import summary_fingerprint


def _graph(kind: str, seed: int):
    if kind == "er-sparse":
        return erdos_renyi_graph(300, 10 / 299, seed=seed)
    if kind == "caveman":
        return caveman_graph(20, 15, 0.05, seed=seed)
    if kind == "caveman-30x12":
        return caveman_graph(30, 12, 0.05, seed=seed)
    if kind == "er-dense":
        return erdos_renyi_graph(120, 0.3, seed=seed)
    raise AssertionError(kind)


VARIANTS = {
    "default": {},
    "height3": {"height_bound": 3},
    "zero": {"threshold_schedule": "zero"},
    "const0.25": {"threshold_schedule": "constant:0.25"},
    "noprune": {"prune": False},
}


def _configs():
    for kind in ("er-sparse", "caveman"):
        for seed in (0, 1, 2, 3, 7919):
            yield kind, seed, "default"
        for seed in (0, 7919):
            for variant in ("height3", "zero", "const0.25", "noprune"):
                yield kind, seed, variant
    for kind in ("caveman-30x12", "er-dense"):
        for seed in (0, 1):
            yield kind, seed, "default"


CONFIGS = list(_configs())


def summarize_config(kind: str, seed: int, variant: str):
    config = SluggerConfig(seed=seed, **VARIANTS[variant])
    return Slugger(config).summarize(_graph(kind, seed)).summary


#: ``(kind, seed, variant) -> (cost, summary_fingerprint)``.
GOLDEN = {
    ('er-sparse', 0, 'default'): (1503, 'e7f9dbf7a3a6cef09ce13a93e5af1515fbe2a25df5ddd42f1cf6221034ff5fd1'),
    ('er-sparse', 1, 'default'): (1520, 'ddff6a6bf82b7778076c56cdb680b782e608569e17d7c821a005f127bba5f0dd'),
    ('er-sparse', 2, 'default'): (1500, '41c28894b41c4169598cc25bf4ea1fe26233ca76d63a4b83c8e5ed88d9c49c84'),
    ('er-sparse', 3, 'default'): (1438, '92b3e630da4532516f044a5c1e547ff18808bbc6e611bee2251a7b5bad59774a'),
    ('er-sparse', 7919, 'default'): (1565, 'f528368545d0718cfad8601d79c920882e4afeb41b14dd8d3055b209f47763dd'),
    ('er-sparse', 0, 'height3'): (1503, 'e7f9dbf7a3a6cef09ce13a93e5af1515fbe2a25df5ddd42f1cf6221034ff5fd1'),
    ('er-sparse', 0, 'zero'): (1527, '8c1f13915cad963e78d2f65429137c196fd46a4d152c6e3901580b40b01f998e'),
    ('er-sparse', 0, 'const0.25'): (1551, 'a1b729d8dbfe84d51a48cbb371fee1171e927564d64cffecc1c42d8eb9abb110'),
    ('er-sparse', 0, 'noprune'): (1506, 'a688e3fa4ce387c9f763ea09036a05a7e2865163fc9ba2b8c08a7da6c2837b7c'),
    ('er-sparse', 7919, 'height3'): (1565, 'f528368545d0718cfad8601d79c920882e4afeb41b14dd8d3055b209f47763dd'),
    ('er-sparse', 7919, 'zero'): (1575, 'c114f3204f62c357f1e494d7a05f33f22cbad3cbfae287b60f1e8e25b749084a'),
    ('er-sparse', 7919, 'const0.25'): (1600, '5f78c4877e238a8388b955a3012737541631431c559754e5091b345947c67ed7'),
    ('er-sparse', 7919, 'noprune'): (1567, '8a64ee65671f977613f08788c825b2655a7578d3bac11497ddf40380c120a82c'),
    ('caveman', 0, 'default'): (588, 'eca28b4905b3b29c9f5473e09ae8a9ee885c2f9913d93d1b9b0ea3ce2a9e77f7'),
    ('caveman', 1, 'default'): (561, '9ca991b400a76eab0f9a62e29e0a459bc6fe7af3f56a1e3f573bdb8c8b870de4'),
    ('caveman', 2, 'default'): (562, 'e45246cdcc8e13a577e23fd30d0106d230be2d38361791f9f54901526439ff54'),
    ('caveman', 3, 'default'): (539, 'be829ccbc6a51f72cb9d3ed4e9045af3825ceb944eeadf3ee73c301d6d635374'),
    ('caveman', 7919, 'default'): (551, '8896bfd5297dabc227d0898ac3af76cbfd7d9bf16c875df28919a443bee57a07'),
    ('caveman', 0, 'height3'): (682, '9339197406dcbf4090cb85e224fba46ad89e4d3fc414e54255dab7c855ae4c1d'),
    ('caveman', 0, 'zero'): (553, 'dad3074eeefa79306a2125f572704ee89c7836695c3ea2f3e6e321f0d1f063fc'),
    ('caveman', 0, 'const0.25'): (845, 'eda705e3b9ea417c2b682f4702f876a1ae2c18c2c6a00fb7ba916c80c2f962ca'),
    ('caveman', 0, 'noprune'): (741, '7a62289809de919f7a76805db3fdba4b53780fa96fc524462589f7f15ab38743'),
    ('caveman', 7919, 'height3'): (633, 'f2f3baac6662b8017e43a07ba3b94c0c3870a59aad2811c05be2cf2553e761bf'),
    ('caveman', 7919, 'zero'): (521, 'e8bf55e9a7dae253fa7d927524227c35b2ac02964639e8d85a7b9104c705f39d'),
    ('caveman', 7919, 'const0.25'): (811, 'fc082f0055c0fd2efb72663f56042ce42aeed99b6b118a179bdf1174c7111b93'),
    ('caveman', 7919, 'noprune'): (707, 'be970c4e4ca943792a4a31502444ab8fb43f46a63c44b1707a32257c89b9a298'),
    ('caveman-30x12', 0, 'default'): (656, '4007dc26329427b05b0f12f58f533ad87b8f00ceb1547770406c552f50d360d9'),
    ('caveman-30x12', 1, 'default'): (601, '36d51ff7c66f3fee4efa4b58b3a15e112a2a67164ad879756f79cfce914c04eb'),
    ('er-dense', 0, 'default'): (1533, 'a5a1d9b89a9cea0103aa5b7e3c40aa6d1740d102d9683ac15790fa99573c1e52'),
    ('er-dense', 1, 'default'): (1566, '9d7450d127d60e5133e25e48809adc1ab8d2de929bad3c59ecae27556d1fd47b'),
}


def test_table_covers_every_config():
    assert sorted(GOLDEN) == sorted(CONFIGS)


@pytest.mark.parametrize("kind, seed, variant", CONFIGS)
def test_summary_matches_golden(kind, seed, variant):
    summary = summarize_config(kind, seed, variant)
    assert (summary.cost(), summary_fingerprint(summary)) == GOLDEN[(kind, seed, variant)]
