"""Bitmask hitting-set kernel: exact search and the package's one greedy.

Minimum red-blue separation, all-pairs separation, and domination all reduce
to the same problem: given a list of nonempty vertex masks, find a smallest
vertex set intersecting every mask. The solvers wrap this kernel with their
own mask derivations.

``columns(masks, n)`` transposes the masks through one text of ``bin`` rows,
``"0b1"`` and n digits per mask, and reads column v as every (n + 3)-th
character of it. The exact search reads complements: choosing v turns the
bitset ``rest`` of live mask ids into ``rest & keep[v]``, ``keep[v]`` being
``~cols[v]``, and ``apart[i]``, the AND of ``keep`` over mask i, holds the
masks disjoint from it. The search reaches one mask in eight or so, hence an
``Instance`` is its own ``apart`` and fills ``apart[i]`` on first read.
``select(table, vertices)``, the entries of a table at the bits of a vertex
mask, picked by the digits of its ``bin`` text, is the one such fold; the
search reads the vertices of a mask straight from its bits.

The exact search starts from the set of ``greedy_hitting_set`` on the
kernel's own columns and searches down: a depth-limited branch and bound at
one less than the incumbent's size, a new incumbent for each set it finds,
and a stop at the first refutation, which proves the incumbent optimal. The
search branches on the vertices of the mask with the lowest id in ``rest``
and prunes with a greedy packing of pairwise-disjoint masks taken in id
order (one AND with ``apart`` each). Above the last two levels it tries the
pivot's vertices in ascending order of the masks each leaves live, fewest
first (the vertex hitting the most first), ties to the lower index. The last
two levels are decided in place, in one loop over the pivot's vertices in
index order, with no call and no packing bound: with one vertex left to
pick, the answer is the first pivot vertex in every live mask, and with two,
each pivot vertex in turn leaves a ``rest`` whose answer is the lowest
vertex in the AND of its masks. Once the branch on a pivot vertex fails, the
later siblings' subtrees exclude it (branch and exclude; Fomin and Kratsch,
*Exact Exponential Algorithms*, 2010, ch. 2). Ids numbered in ``by_size``
order make the pivot a smallest unhit mask, with ties toward the lowest
vertex index, so results are deterministic. Every rule cuts only subtrees
with no set within the limit, so each set found is the first that plain
depth-first search in this branch order finds.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import and_

from .errors import SearchTooDeep
from .graphs import mask_of

__all__ = ["by_size", "columns", "select", "Instance", "greedy_hitting_set",
           "minimum_hitting_set", "hitting_set_within"]


def by_size(mask: int) -> tuple[int, int]:
    """Sort key numbering masks by popcount, then value: the pivot order."""
    return mask.bit_count(), mask


def columns(masks: list[int], n: int) -> list[int]:
    """Transpose ``masks``: bit i of ``cols[v]`` is set iff v is in ``masks[i]``.

    Raises ValueError on a mask with a vertex at or above ``n``.
    """
    if max(masks, default=0) >> n:
        raise ValueError(f"a mask is wider than n = {n} bits")
    if not masks:
        return [0] * n
    # Rows "0b1" plus n digits, last mask first: digit v of a row is n + 2 - v
    # from its left, and a row is n + 3 characters long.
    text = "".join(map(bin, map((1 << n).__or__, reversed(masks))))
    return [int(text[n + 2 - v :: n + 3], 2) for v in range(n)]


_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def select(table: list, vertices: int) -> compress:
    """The entries ``table[v]`` for the bits v of ``vertices``, lowest first."""
    return compress(table, bin(vertices)[:1:-1].encode().translate(_DIGITS))


class Instance(dict):
    """The search's instance of nonempty ``masks`` over n vertices, in ``by_size`` order.

    ``cols = columns(masks, n)``, ``keep[v] = ~cols[v]``, and ``full`` is the
    bitset of every mask id. The record is itself ``apart``: ``apart[i]``, the
    AND of ``keep`` over the vertices of ``masks[i]``, fills on first read.
    """

    __slots__ = ("masks", "cols", "keep", "full")

    def __init__(self, masks: list[int], n: int) -> None:
        self.masks = masks
        self.cols = columns(masks, n)
        self.keep = [~col for col in self.cols]
        self.full = (1 << len(masks)) - 1

    def __missing__(self, i: int) -> int:
        self[i] = out = reduce(and_, select(self.keep, self.masks[i]), -1)
        return out


def _search(
    masks: list[int], apart: dict, keep: list[int], rest: int, limit: int, stats: list[int],
    classes: int = 0, banned: int = 0
) -> int | None:
    """``hitting_set_within`` avoiding ``banned``; ``classes`` is ``minimum_hitting_set``'s."""
    stats[0] += 1
    if not rest:
        return 0
    if limit <= 0 or classes and classes << limit < 2 * rest.bit_count() + classes:
        return None
    pivot = masks[(rest & -rest).bit_length() - 1] & ~banned
    if limit <= 2:
        # Decided here without a call or the packing bound (it costs more than
        # it cuts). A pivot vertex leaving nothing live is the answer; at limit
        # 2 each child is a node, answered by the lowest vertex in the AND of
        # the masks it leaves live.
        while pivot:
            low = pivot & -pivot
            pivot ^= low
            stats[0] += limit - 1
            left = rest & keep[low.bit_length() - 1]
            if not left:
                return low
            common = -1 if limit == 2 else 0
            while left and common:
                bit = left & -left
                common &= masks[bit.bit_length() - 1]
                left ^= bit
            if common:
                return low | common & -common
        return None
    # Pairwise-disjoint masks need pairwise-distinct hitters.
    left = rest
    lb = 0
    while left:
        lb += 1
        if lb > limit:
            return None
        left &= apart[(left & -left).bit_length() - 1]
    # The vertex that leaves the fewest masks live first, ties to the lower.
    children = []
    while pivot:
        low = pivot & -pivot
        pivot ^= low
        left = rest & keep[low.bit_length() - 1]
        children.append((left.bit_count(), low, left))
    children.sort()
    for _, low, left in children:
        sub = _search(masks, apart, keep, left, limit - 1, stats, classes, banned)
        if sub is not None:
            return sub | low
        # A set within ``limit`` that holds v would be in v's own branch,
        # and a banned v covers no leaf's ``rest`` for the same reason.
        banned |= low
    return None


def hitting_set_within(inst: Instance, rest: int, limit: int, stats: list[int]) -> int | None:
    """Depth-limited search: a set of size <= limit hitting each mask in ``rest``.

    ``rest`` is a bitset of ids of the masks of ``inst``; one instance serves
    any number of calls, and each call fills more of it. Returns a vertex
    mask or None; ``stats[0]`` counts nodes. The last two levels are decided
    in place, without a child call: a ``limit == 2`` node counts one node for
    each child it tries.
    """
    return _search(inst.masks, inst, inst.keep, rest, limit, stats)


def minimum_hitting_set(
    masks: list[int], budget: int | None = None, stats: list[int] | None = None, classes: int = 0
) -> int | None:
    """Smallest hitting set as a bitmask, or None if it exceeds ``budget``.

    The incumbent is the greedy's set; each search asks for a set one
    smaller than the incumbent (at most ``budget``), and the first that
    fails proves the incumbent optimal. With a budget, returns None exactly
    when no set of size <= budget exists.

    Raises ValueError on an empty mask (nothing can hit it); callers are
    expected to translate that situation into their own twin errors first.
    The search recurses once per chosen vertex: raises SearchTooDeep, with
    the root packing bound and the incumbent's size, when that exceeds the
    recursion limit.

    ``classes`` > 0 turns on the class-count bound, valid only for the
    nonzero N[u] ^ N[w] of a graph with ``classes`` twin classes. Then the p
    unhit masks are pairs of twin classes with equal codes, so some code
    class holds c >= 2p/classes + 1 of them, and k more vertices split it
    into at most 2^k parts: a node with ``classes << limit < 2p + classes``
    holds no solution. Red-blue and domination masks pass 0 (off).
    """
    if stats is None:
        stats = [0]
    distinct = sorted(set(masks))
    distinct.sort(key=int.bit_count)  # stable: the ``by_size`` order
    if distinct and distinct[0] == 0:
        raise ValueError("empty mask cannot be hit")
    kernel = Instance(distinct, max(distinct, default=0).bit_length())
    rest = kernel.full
    incumbent = mask_of(_greedy(kernel.cols, rest))
    limit = incumbent.bit_count() - 1
    found = incumbent
    if budget is not None and budget <= limit:
        limit, found = budget, None
    try:
        while limit >= 0 and (sub := _search(distinct, kernel, kernel.keep, rest, limit, stats,
                                             classes)) is not None:
            found = incumbent = sub
            limit = sub.bit_count() - 1
    except RecursionError:
        # No search has refuted a size yet: only the root packing bounds below.
        lower = 0
        while rest:
            lower += 1
            rest &= kernel[(rest & -rest).bit_length() - 1]
        raise SearchTooDeep(lower, incumbent.bit_count()) from None
    return found


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


# The kernel's own binding of the greedy, as ``exact`` has one through its
# import: the benchmark's tracer wraps every binding of a traced function, and
# its tests delete the public name to check that the library runs on without it.
_greedy = greedy_hitting_set
