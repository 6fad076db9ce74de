"""Shared graph builders and independent brute-force oracles.

The oracles deliberately avoid the package's bitmask machinery: they work
on frozensets built straight from the adjacency structure and enumerate
subsets in ascending size, so they exercise a different code path than the
branch-and-bound solvers they certify. ``cached_sweep_universes`` is the
exception: it pins which colorings the worst-coloring sweep solves, so it
replays the one-coloring-at-a-time sweep with the package's own greedy and
kernel. ``heap_prufer_tree`` and ``edge_list_text`` are the straightforward
heap decode and edge-list writer that the random tree source and the graph
text writer must match byte for byte.
"""

from __future__ import annotations

import heapq
import math
import random
from itertools import combinations

from rbsep.graphs import Coloring, Graph
from rbsep.hitting import Instance, by_size, greedy_hitting_set, hitting_set_within


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


# Seeded random sources the pinned digests, the benchmark and the CSV suites
# rely on. Small n with high p rejects draws with twins: 39 of the 96
# twin-free points need a retry, one of them 46 draws, so the retries are
# pinned too.
TWIN_FREE_GRID = [(n, p, seed) for n in (1, 2, 3, 4, 6, 9, 16, 28)
                  for p in (0.1, 0.3, 0.6, 0.9) for seed in (0, 1, 2)]
TREE_GRID = [(n, seed) for n in (1, 2, 3, 4, 7, 12, 40, 200) for seed in (0, 1, 2)]


def heap_prufer_tree(n: int, seed: int) -> Graph:
    """The random tree of the draw contract, decoded with a heap of leaves."""
    if n == 1:
        return Graph.from_edges(1, [])
    if n == 2:
        return Graph.from_edges(2, [(0, 1)])
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Graph.from_edges(n, edges)


def edge_list_text(g: Graph) -> str:
    """The graph text format written from ``g.edges()``."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def closed_sets(g: Graph) -> list[frozenset[int]]:
    return [frozenset(g.neighbors(v)) | {v} for v in range(g.n)]


def closed_neighborhood(g: Graph, v: int) -> tuple[int, ...]:
    """N[v] = {v} plus the neighbors of v, ascending."""
    if not 0 <= v < g.n:
        raise IndexError(f"vertex {v} out of range")
    return tuple(sorted(closed_sets(g)[v]))


def code_of(g: Graph, s, v: int) -> tuple[int, ...]:
    """The code of v with respect to s, i.e. N[v] & s, ascending."""
    return tuple(sorted(frozenset(closed_neighborhood(g, v)) & frozenset(s)))


def is_rb_separating(g: Graph, c: Coloring, subset) -> bool:
    nb = closed_sets(g)
    s = frozenset(subset)
    reds = [v for v in range(g.n) if c.is_red(v)]
    blues = [v for v in range(g.n) if not c.is_red(v)]
    return all(nb[r] & s != nb[b] & s for r in reds for b in blues)


def is_separating(g: Graph, subset) -> bool:
    nb = closed_sets(g)
    s = frozenset(subset)
    codes = [nb[v] & s for v in range(g.n)]
    return len(set(codes)) == g.n


def brute_rb_set_system(g: Graph, c: Coloring):
    """Red-blue set-cover instance as (pair labels, (vertex, pair ids) rows).

    Pairs (r, b) run red-major, both ascending; vertex v covers pair (r, b)
    iff v lies in exactly one of N[r] and N[b].
    """
    nb = closed_sets(g)
    reds = [v for v in range(g.n) if c.is_red(v)]
    blues = [v for v in range(g.n) if not c.is_red(v)]
    pairs = tuple((r, b) for r in reds for b in blues)
    sets = tuple(
        (v, tuple(i for i, (r, b) in enumerate(pairs) if (v in nb[r]) != (v in nb[b])))
        for v in range(g.n)
    )
    return pairs, sets


def brute_rb_twin_pair(g: Graph, c: Coloring) -> tuple[int, int] | None:
    """Smallest (u, v), u < v, with opposite colors and N[u] = N[v], or None."""
    nb = closed_sets(g)
    for u, v in combinations(range(g.n), 2):
        if c.is_red(u) != c.is_red(v) and nb[u] == nb[v]:
            return (u, v)
    return None


def brute_min_rb_sep(g: Graph, c: Coloring) -> tuple[int, tuple[int, ...]]:
    """Smallest red-blue separating set by ascending-size enumeration."""
    for size in range(g.n + 1):
        for subset in combinations(range(g.n), size):
            if is_rb_separating(g, c, subset):
                return size, subset
    raise AssertionError("V(G) should always separate a twin-free instance")


def brute_min_sep(g: Graph) -> tuple[int, tuple[int, ...]]:
    for size in range(g.n + 1):
        for subset in combinations(range(g.n), size):
            if is_separating(g, subset):
                return size, subset
    raise AssertionError("graph has twins")


def brute_min_dom(g: Graph) -> int:
    nb = closed_sets(g)
    for size in range(g.n + 1):
        for subset in combinations(range(g.n), size):
            s = set(subset)
            if all(nb[v] & s for v in range(g.n)):
                return size
    raise AssertionError("V(G) dominates")


def brute_maxsep(g: Graph) -> int:
    """Worst-coloring cost by full double enumeration; tiny n only."""
    best = 0
    for mask in range(1 << g.n):
        size, _ = brute_min_rb_sep(g, Coloring(g.n, mask))
        best = max(best, size)
    return best


def brute_parity_coloring(g: Graph) -> Coloring:
    """Red = odd BFS layers, each component layered from its lowest vertex."""
    nb = closed_sets(g)
    layer: dict[int, int] = {}
    for root in range(g.n):
        if root in layer:
            continue
        layer[root] = 0
        queue = [root]
        for v in queue:
            for w in sorted(nb[v] - layer.keys()):
                layer[w] = layer[v] + 1
                queue.append(w)
    return Coloring.from_red(g.n, [v for v in range(g.n) if layer[v] % 2])


def brute_maxsep_sweep(g: Graph) -> tuple[int, Coloring]:
    """The worst-coloring sweep's (value, worst coloring), with no pruning.

    The sweep visits the parity coloring first, then every coloring with
    vertex 0 blue but the all-blue one in Gray-code order: step i colors red
    the vertices 1 + j for the set bits j of i xor (i >> 1). Its worst
    coloring is the first one visited whose cost is ``brute_maxsep(g)``.
    """
    value = brute_maxsep(g)
    steps = (Coloring(g.n, (i ^ i >> 1) << 1) for i in range(1, 1 << (g.n - 1)))
    for c in (brute_parity_coloring(g), *steps):
        if brute_min_rb_sep(g, c)[0] == value:
            return value, c
    raise AssertionError("the sweep visits every coloring or its color swap")


def cached_sweep_universes(g: Graph) -> list[int]:
    """Universes the witness-cached sweep solves, one coloring at a time.

    The sweep visits the parity coloring, then the Gray steps of
    ``brute_maxsep_sweep``. Pairs are numbered in ``by_size`` order of their
    difference masks, and a coloring's universe is the bitset of its
    red-blue pair ids. A coloring is skipped when its red-blue pairs avoid
    the pairs left unseparated by a set found at an earlier coloring.
    Otherwise the decision climb raises the incumbent until the kernel finds
    a set within it, and that set is cached. A cached set smaller than the
    incumbent is padded with the first vertices the greedy takes over the
    pairs it leaves unseparated, up to the incumbent's size; that greedy
    run's universe is listed after the coloring's.
    """
    nb = closed_sets(g)
    pairs = sorted(
        combinations(range(g.n), 2),
        key=lambda p: by_size(g.closed[p[0]] ^ g.closed[p[1]]),
    )
    diffs = [nb[u] ^ nb[w] for u, w in pairs]
    cols = [sum(1 << i for i, d in enumerate(diffs) if v in d) for v in range(g.n)]
    # The kernel's instance, its ``apart`` filled eagerly: for each mask, the
    # masks disjoint from it.
    kernel = Instance([sum(1 << v for v in d) for d in diffs], g.n)
    kernel.update(enumerate(~sum(1 << j for j, e in enumerate(diffs) if d & e) for d in diffs))
    everything = (1 << len(pairs)) - 1
    steps = (Coloring(g.n, (i ^ i >> 1) << 1) for i in range(1, 1 << max(g.n - 1, 0)))
    best = 0
    misses: list[int] = []
    universes = []
    for c in (brute_parity_coloring(g), *steps):
        active = sum(1 << i for i, (u, w) in enumerate(pairs) if c.is_red(u) != c.is_red(w))
        if any(not active & miss for miss in misses):
            continue
        universes.append(active)
        while (within := hitting_set_within(kernel, active, best, [0])) is None:
            best += 1
        found = [v for v in range(g.n) if within >> v & 1]
        unsplit = everything
        for v in found:
            unsplit &= ~cols[v]
        if len(found) < best and unsplit:
            universes.append(unsplit)
            for v in greedy_hitting_set(cols, unsplit)[: best - len(found)]:
                unsplit &= ~cols[v]
        misses.append(unsplit)
    return universes


def brute_cover_optimum(universe_size: int, sets: list[tuple[int, ...]]) -> int:
    """Exact set-cover optimum by enumeration over set combinations."""
    full = frozenset(range(universe_size))
    families = [frozenset(s) for s in sets]
    for size in range(len(families) + 1):
        for combo in combinations(range(len(families)), size):
            union: set[int] = set()
            for i in combo:
                union |= families[i]
            if union == full:
                return size
    raise AssertionError("universe not coverable")


def reference_greedy(g: Graph, pairs) -> tuple[tuple[int, ...], int]:
    """Max-coverage greedy over vertex pairs, with its optimum lower bound.

    A vertex covers pair (u, w) when it lies in exactly one of N[u], N[w].
    Each round takes the vertex covering the most pairs still uncovered,
    the lowest vertex on ties. Returns the chosen set in ascending order and
    max(ceil(|U| / largest cover), ceil(|chosen| / (ln|U| + 1))), 0 for an
    empty universe.
    """
    nb = closed_sets(g)
    covers = [
        frozenset((u, w) for u, w in pairs if (v in nb[u]) != (v in nb[w]))
        for v in range(g.n)
    ]
    left = set(pairs)
    chosen = []
    while left:
        gains = [len(cover & left) for cover in covers]
        if max(gains) == 0:
            raise AssertionError("a pair is covered by no vertex")
        v = gains.index(max(gains))
        chosen.append(v)
        left -= covers[v]
    if not pairs:
        return (), 0
    factor = math.log(len(pairs)) + 1
    largest = max(len(cover) for cover in covers)
    return tuple(sorted(chosen)), max(
        math.ceil(len(pairs) / largest), math.ceil(len(chosen) / factor)
    )


def brute_min_hitting_set(sets) -> int:
    """Fewest elements meeting every set, by ascending-size enumeration."""
    families = [frozenset(s) for s in sets]
    ground = sorted(frozenset().union(*families))
    for size in range(len(ground) + 1):
        for combo in combinations(ground, size):
            chosen = frozenset(combo)
            if all(f & chosen for f in families):
                return size
    raise AssertionError("an empty set cannot be hit")


def first_dfs_hitting_set(sets, live, limit):
    """First set of at most ``limit`` elements that plain DFS finds, or None.

    ``sets`` is a list of nonempty sets and ``live`` the indices still to
    hit. The search branches on the elements of the lowest live index, with
    no bound and no shortcut, so it fixes which set a pruned search must
    return. With ``limit`` >= 3 it tries first the element in the most live
    sets, ties to the lower; with 1 or 2 elements left, in ascending order.
    """
    if not live:
        return frozenset()
    if limit <= 0:
        return None
    order = sorted(sets[min(live)])
    if limit >= 3:
        order.sort(key=lambda v: sum(v not in sets[i] for i in live))  # stable: lower first
    for v in order:
        sub = first_dfs_hitting_set(sets, [i for i in live if v not in sets[i]], limit - 1)
        if sub is not None:
            return sub | {v}
    return None


def searched_down_hitting_set(sets):
    """The set a search down from the greedy's set returns for ``sets``.

    The greedy takes the element in the most sets not hit yet, the lowest on
    ties, until every set is hit. Then, while ``first_dfs_hitting_set``
    finds a set smaller than the incumbent, that set is the incumbent.
    """
    live = list(range(len(sets)))
    best: set = set()
    left = live
    while left:
        v = max(sorted(set().union(*(sets[i] for i in left))),
                key=lambda v: sum(v in sets[i] for i in left))
        best.add(v)
        left = [i for i in left if v not in sets[i]]
    best = frozenset(best)
    while best and (found := first_dfs_hitting_set(sets, live, len(best) - 1)) is not None:
        best = found
    return best
