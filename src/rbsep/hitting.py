"""Bitmask hitting-set kernel: exact search and the package's one greedy.

Minimum red-blue separation, all-pairs separation, and domination all reduce
to the same problem: given a list of nonempty vertex masks, find a smallest
vertex set intersecting every mask. The solvers wrap this kernel with their
own mask derivations.

The search is iterative deepening (k = 0, 1, 2, ...) around a depth-limited
branch and bound: branch on the vertices of a smallest unhit mask, prune with
a greedy packing of pairwise-disjoint masks. Ties break toward the lowest
vertex index, so results are deterministic.

``greedy_hitting_set`` works on the transposed instance: one column bitset
per vertex, holding the elements (for separation, vertex pairs) it hits.
"""

from __future__ import annotations

from .graphs import bits_of

__all__ = ["greedy_hitting_set", "minimum_hitting_set", "hitting_set_within"]


def _disjoint_packing_bound(masks: list[int]) -> int:
    # Pairwise-disjoint masks need pairwise-distinct hitters.
    union = 0
    count = 0
    for m in masks:
        if not m & union:
            count += 1
            union |= m
    return count


def _search(masks: list[int], limit: int, stats: list[int]) -> int | None:
    stats[0] += 1
    if not masks:
        return 0
    if limit <= 0:
        return None
    union = 0
    lb = 0
    for m in masks:
        if not m & union:
            lb += 1
            if lb > limit:
                return None
            union |= m
    pivot = min(masks, key=lambda m: (m.bit_count(), m))
    for v in bits_of(pivot):
        bit = 1 << v
        rest = [m for m in masks if not m & bit]
        sub = _search(rest, limit - 1, stats)
        if sub is not None:
            return sub | bit
    return None


def hitting_set_within(masks: list[int], limit: int, stats: list[int]) -> int | None:
    """Depth-limited search: a hitting set of size <= limit, or None.

    ``masks`` must be nonempty bitmasks; duplicates are tolerated but cost
    time, so callers should dedup. ``stats[0]`` accumulates explored nodes.
    """
    return _search(masks, limit, stats)


def minimum_hitting_set(
    masks: list[int], budget: int | None = None, stats: list[int] | None = None
) -> int | None:
    """Smallest hitting set as a bitmask, or None if it exceeds ``budget``.

    Raises ValueError on an empty mask (nothing can hit it); callers are
    expected to translate that situation into their own twin errors first.
    """
    if stats is None:
        stats = [0]
    distinct = sorted(set(masks))
    if distinct and distinct[0] == 0:
        raise ValueError("empty mask cannot be hit")
    hi = len(distinct) if budget is None else min(budget, len(distinct))
    for k in range(hi + 1):
        found = _search(distinct, k, stats)
        if found is not None:
            return found
    return None


def greedy_hitting_set(cols: list[int], universe: int) -> list[int]:
    """Max-coverage greedy over the bitset ``universe``; vertices in chosen order.

    Each round takes the v whose column ``cols[v]`` hits the most elements
    not hit yet, the lowest v on ties. Raises ValueError on an element that
    no column hits.
    """
    chosen: list[int] = []
    while universe:
        best_v = -1
        best_gain = 0
        for v, col in enumerate(cols):
            gain = (col & universe).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_v = v
        if best_v < 0:
            raise ValueError("an element is in no column and cannot be hit")
        chosen.append(best_v)
        universe &= ~cols[best_v]
    return chosen
