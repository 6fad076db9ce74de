"""Exact optimum solvers: sep_RB(G,c), sep(G), gamma(G), maxsep_RB(G).

Every problem is phrased as a hitting-set instance over difference masks:

* a set S separates a pair (u, v) iff S meets N[u] xor N[v];
* S dominates v iff S meets N[v].

Minimization runs through the shared branch and bound, which searches down
from the greedy's set and also answers the decision form ("is the optimum
<= k?") without solving past the budget. Every exact optimum leaves through one exit,
``_solve_masks``, which certifies its witness with ``graphs.certified``.

Before any search, ``rb_difference_masks`` calls
``graphs.require_rb_separable``, and ``sep_exact`` and ``maxsep_exact`` call
``graphs.require_twin_free``. On a twin-free graph no difference mask is
zero, so ``sep_exact`` is the twin-free case of ``sep_exact_allow_twins``.

The worst-coloring sweep numbers the pairs in ``hitting.by_size`` order of
their masks, ties in ``combinations`` order, so its bitset of red-blue pairs
is the exact kernel's ``rest``.

The sweep orders the colorings by the reflected binary Gray code (Knuth,
TAOCP 4A, 7.2.1.1) and takes them in blocks of up to 2^16 steps: per block,
each vertex has one bitset whose bit r says whether it is red at step r of
the block. A set S separates every coloring that is constant on each code
class of S. A set with more classes covers more, so each set the sweep finds,
kept as a vertex bitmask, is padded up to the incumbent's size with the first
vertices the greedy takes over the pairs it leaves unsplit (none when it
splits them all). One ``graphs.code_pairs`` pass over the mask then caches
it: each vertex with the first member of its class. A set covers the steps
at which both ends of each of its pairs have one color: an AND of XORs over
a whole block. In blocks of 2^b steps, the bitsets of vertices below b are
the same in every block, so the pass ANDs the pairs among them into the
set's cached steps once, and a block ANDs in only its other pairs. Only the
lowest step no cached set covers is solved, one at a time, by the kernel's
decision at the incumbent's size.

All solvers are single-threaded and reentrant: they share no mutable state,
so callers may run many instances in parallel.
"""

from __future__ import annotations

import time
from functools import reduce
from itertools import combinations
from operator import and_, or_, xor
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import CapExceeded, Infeasible, NoDistinctFamily
from .graphs import (
    Coloring,
    Graph,
    bfs_parity,
    certified,
    code_pairs,
    mask_of,
    require_rb_separable,
    require_twin_free,
)
from .hitting import Instance, greedy_hitting_set, hitting_set_within, minimum_hitting_set, select

__all__ = [
    "SolveReport",
    "MaxSepReport",
    "sep_rb_exact",
    "sep_exact",
    "sep_exact_allow_twins",
    "gamma_exact",
    "maxsep_exact",
    "bondy_remove",
]

MAXSEP_DEFAULT_CAP = 14
_BLOCK_BITS = 16  # the sweep's bitsets span at most 2^16 Gray steps (8 KiB)


class SolveReport(NamedTuple):
    """Optimum value with a verified witness and search statistics."""

    optimum: int
    witness: tuple[int, ...]
    method: str
    nodes_explored: int
    elapsed_ms: float


class MaxSepReport(NamedTuple):
    """Worst-coloring separation cost over all red-blue colorings."""

    value: int
    worst_coloring: Coloring
    per_coloring_count: int


def rb_difference_masks(g: Graph, c: Coloring) -> list[int]:
    """Difference masks N[r] xor N[b] over all red-blue pairs, none zero.

    Listed by red vertex, then blue vertex, each ascending: the kernel sorts
    its masks, but ``approx.reduce_rb_to_set_cover`` numbers its universe in
    this order. Raises Unseparable on the lexicographically smallest red-blue
    twin pair.
    """
    require_rb_separable(g, c)
    closed = g.closed
    blues = [closed[b] for b in c.blue_vertices()]
    return [closed[r] ^ nb for r in c.red_vertices() for nb in blues]


def all_pairs_difference_masks(g: Graph) -> list[int]:
    """Difference masks over all unordered vertex pairs (twins give zeros)."""
    closed = g.closed
    return [closed[u] ^ closed[v] for u in range(g.n) for v in range(u + 1, g.n)]


def _solve_masks(start: float, masks: list[int], g: Graph, kind: str, c: Coloring | None = None,
                 budget: int | None = None, classes: int = 0) -> SolveReport:
    # The one exit of the exact solvers: search, certify as a ``kind`` set of
    # g, report. ``elapsed_ms`` covers the mask build since ``start`` and the
    # search. Without a budget the kernel always finds a set.
    stats = [0]
    found = minimum_hitting_set(masks, budget=budget, stats=stats, classes=classes)
    if found is None:
        raise Infeasible(f"no solution within budget {budget}")
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    witness = certified(g, kind, found, c)
    return SolveReport(len(witness), witness, "branch-and-bound", stats[0], elapsed_ms)


def sep_rb_exact(g: Graph, c: Coloring, budget: int | None = None) -> SolveReport:
    """Minimum red-blue separating set for (g, c).

    With a budget the optimum is returned only when it is <= budget;
    otherwise Infeasible is raised, which answers the decision form
    "sep_RB <= k" for k = budget. Raises Unseparable when a red-blue pair
    of twins makes the instance unsolvable.
    """
    start = time.perf_counter()
    masks = rb_difference_masks(g, c)
    return _solve_masks(start, masks, g, "rb", c, budget)


def sep_exact(g: Graph) -> SolveReport:
    """Minimum set giving all n vertices pairwise distinct codes.

    Requires a twin-free graph; raises NotTwinFree carrying the twin classes
    otherwise. On such a graph no pair is exempt, so this is
    ``sep_exact_allow_twins``.
    """
    require_twin_free(g)
    return sep_exact_allow_twins(g)


def sep_exact_allow_twins(g: Graph) -> SolveReport:
    """Variant of sep_exact that exempts twin pairs instead of failing.

    Pairs with identical closed neighborhoods are unseparable by any set, so
    they are dropped from the instance; all other pairs must still receive
    distinct codes. On a twin-free graph this coincides with sep_exact.
    """
    start = time.perf_counter()
    masks = [d for d in all_pairs_difference_masks(g) if d]
    return _solve_masks(start, masks, g, "all-pairs-allow-twins", classes=len(set(g.closed)))


def gamma_exact(g: Graph) -> SolveReport:
    """Minimum dominating set (closed neighborhoods as the hitting instance)."""
    start = time.perf_counter()
    return _solve_masks(start, list(g.closed), g, "dominating")


def _gray_blocks(n: int, b: int) -> Iterator[list[int]]:
    # Block t of the Gray steps s = t*2^b + r, r < 2^b: column w has bit r set
    # iff w is red at step s, i.e. bit w-1 of s ^ (s >> 1); vertex 0 is blue.
    size = 1 << b
    full = (1 << size) - 1
    base = []
    for j in range(b):
        # Bit j of the reflected code: 2^j zeros, 2^(j+1) ones, 2^j zeros.
        col, period = ((1 << (2 << j)) - 1) << (1 << j), 4 << j
        while period < size:
            col |= col << period
            period <<= 1
        base.append(col & full)
    for t in range(1 << (n - 1 - b)):
        gray = t ^ t >> 1  # bits of s above b - 1 are those of t
        last = [base[-1] ^ (full if t & 1 else 0)] if b else []
        high = [full if gray >> i & 1 else 0 for i in range(n - 1 - b)]
        yield [0, *base[:-1], *last, *high]


def _covered(pairs: list[tuple[int, int]], reds: list[int], start: int) -> int:
    # Steps of ``start`` whose coloring is constant on every pair's class.
    out = start
    for u, v in pairs:
        out &= ~(reds[u] ^ reds[v])
        if not out:
            break
    return out


def maxsep_exact(g: Graph, n_cap: int = MAXSEP_DEFAULT_CAP) -> MaxSepReport:
    """Maximum of sep_RB(g, c) over all red-blue colorings c.

    Sweeps the 2^(n-1) colorings with vertex 0 fixed blue (color-swap
    symmetry halves the space) in Gray-code order, after the bipartite-parity
    coloring. Pairs are numbered once, in ``hitting.by_size`` order of their
    difference masks; the exact kernel reads a coloring's red-blue pair ids
    as one bitset. The lowest step no cached set covers is solved by the
    kernel's decision within the incumbent, which rises by one while the
    decision fails. The set found is padded to the incumbent's size by the
    greedy over the pairs it leaves unsplit, and cached from one
    ``graphs.code_pairs`` pass over its mask. No cached set is
    larger than the incumbent, so no coloring it covers can raise the
    incumbent: the sweep skips every step of a block that some cached set
    covers, and the worst coloring is the first one in sweep order whose
    cost is the value. Each bitset spans at most 2^16 steps, whatever n is.

    Requires a twin-free graph of order at most ``n_cap``.
    """
    require_twin_free(g)
    if g.n > n_cap:
        raise CapExceeded(f"graph order {g.n} exceeds cap {n_cap}")
    n = g.n
    if n == 0:
        return MaxSepReport(0, Coloring(0, 0), 1)

    closed = g.closed
    # ``hitting.by_size`` order; equal masks keep ``combinations`` order.
    keyed = sorted(
        ((d := closed[u] ^ closed[w]).bit_count(), d, u, w) for u, w in combinations(range(n), 2)
    )
    kernel = Instance([d for _, d, _, _ in keyed], n)
    flips = [0] * n  # flips[v]: the pairs whose red-blue status v's color flips
    for i, (_, _, u, w) in enumerate(keyed):
        flips[u] |= 1 << i
        flips[w] |= 1 << i

    stats = [0]
    best = 0
    b = min(n - 1, _BLOCK_BITS)
    full = (1 << (1 << b)) - 1
    cache: list[tuple[int, list[tuple[int, int]]]] = []

    def solve(red: int, reds: list[int]) -> tuple[int, list[tuple[int, int]]]:
        # Solve the coloring ``red``, raising the incumbent while it costs more,
        # and cache its set: the steps its class pairs below vertex b cover, the
        # same in every block (so are their columns), and its other pairs.
        nonlocal best, best_red
        active = reduce(xor, select(flips, red), 0)
        while (within := hitting_set_within(kernel, active, best, stats)) is None:
            best, best_red = best + 1, red
        # Pad with the greedy's first vertices over the pairs left unsplit:
        # more classes cover more colorings, none costing more than best.
        if (short := best - within.bit_count()) > 0 and (
            unsplit := reduce(and_, select(kernel.keep, within), kernel.full)
        ):
            within |= mask_of(greedy_hitting_set(kernel.cols, unsplit)[:short])
        inner, outer = full, []
        for u, v in code_pairs(closed, within):
            if v < b:
                inner &= ~(reds[u] ^ reds[v])
            else:
                outer.append((u, v))
        cache.append((inner, outer))
        return cache[-1]

    # The parity coloring first: odd BFS layers red, component roots (vertex 0) blue.
    seen = best_red = 0
    for root in range(n):
        if not seen >> root & 1:
            reached, odd = bfs_parity(g, root)
            seen |= reached
            best_red |= odd
    for t, reds in enumerate(_gray_blocks(n, b)):
        if not t:
            solve(best_red, reds)
        # Every set covers step 0, the all-blue coloring, so it is never solved.
        todo = full & ~reduce(or_, (_covered(outer, reds, inner) for inner, outer in cache), 0)
        while todo:
            low = todo & -todo
            step = t << b | low.bit_length() - 1
            inner, outer = solve((step ^ step >> 1) << 1, reds)
            todo &= ~_covered(outer, reds, inner)  # includes ``low``

    return MaxSepReport(best, Coloring(n, best_red), 1 << (n - 1))


def bondy_remove(family: Sequence[Iterable[int]]) -> int:
    """Element whose removal keeps n distinct subsets of an n-set distinct.

    The ground set is 0..n-1 with n = len(family). An element x is removable
    exactly when the n sets stay distinct without it, which is how each x is
    tested; such an element always exists for distinct sets (Bondy's
    theorem). Returns the smallest removable x.
    Applied to the closed neighborhoods of a twin-free graph, the complement
    of {x} certifies sep(G) <= n - 1.
    """
    masks = [mask_of(s) for s in family]
    n = len(masks)
    if len(set(masks)) != n:
        raise NoDistinctFamily("family members are not pairwise distinct")
    for x in range(n):
        if len({m & ~(1 << x) for m in masks}) == n:
            return x
    raise NoDistinctFamily("no removable element found")  # unreachable for valid input
