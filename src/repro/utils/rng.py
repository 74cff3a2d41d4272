"""Random-number-generator helpers.

Every randomized component in the library accepts either ``None``, an
integer seed, or a ready-made :class:`random.Random` instance.  These
helpers normalize that convention in one place so all algorithms stay
deterministic when a seed is supplied.
"""

from __future__ import annotations

import random
from typing import Iterable, List, TypeVar, Union

__all__ = ["content_order", "ensure_rng", "shuffled", "spawn_seeds"]

SeedLike = Union[None, int, random.Random]
T = TypeVar("T")


def ensure_rng(seed: SeedLike = None) -> random.Random:
    """Return a :class:`random.Random` for ``seed``.

    ``None`` yields a freshly-seeded generator, an ``int`` yields a
    deterministic generator, and an existing ``Random`` is returned as-is
    so callers can thread one generator through multiple components.
    """
    if isinstance(seed, random.Random):
        return seed
    if seed is None:
        return random.Random()
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise TypeError(f"seed must be None, an int, or random.Random, got {type(seed).__name__}")
    return random.Random(seed)


def spawn_seeds(seed: SeedLike, count: int) -> List[int]:
    """Derive ``count`` independent integer seeds from ``seed``.

    Used when one user-facing seed must drive several independent
    components (e.g. one seed per summarization iteration).
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    rng = ensure_rng(seed)
    return [rng.randrange(2**63) for _ in range(count)]


def content_order(items: Iterable[T]) -> List[T]:
    """``items`` in an order defined by their content alone.

    Homogeneous comparable items (ints, int pairs, string labels) take
    their natural sort; items that do not compare fall back to ``repr``
    order.  The result never depends on the history of the set or dict
    the items come from, nor on ``PYTHONHASHSEED``.
    """
    items = list(items)
    try:
        return sorted(items)
    except TypeError:
        return sorted(items, key=repr)


def shuffled(items: Iterable[T], rng: random.Random) -> List[T]:
    """A random order of ``items`` that depends only on their content and ``rng``.

    One key is drawn per item in :func:`content_order`, so equal
    collections give equal orders for equal generator states, however
    they were built.
    """
    return sorted(content_order(items), key=lambda _item: rng.random())
