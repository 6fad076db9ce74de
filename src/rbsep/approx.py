"""Polynomial-time routes: set-cover greedy, constructions, XP search.

The greedy route treats red-blue separation as set cover (elements are the
red-blue pairs, each vertex covers the ``split_pairs`` it separates) and
runs the kernel's max-coverage greedy, a (ln|U| + 1)-factor method;
|U| <= n^2/4 makes that at most 2 ln n here. ``split_pairs`` numbers the
pairs lexicographically, as ``exact.all_pairs_difference_masks`` lists their
masks. The same template with all vertex pairs as the universe approximates
the uncolored separation number, and via sep(G) <= ceil(log2 n) *
maxsep_RB(G) also maxsep within O(ln^2 n).
``reduce_rb_to_set_cover`` writes the instance out as a ``SetSystem`` for
``rbsep reduce``.

The constructions give cardinality guarantees (3 or Delta times the smaller
color class) on triangle-free and bounded-degree graphs, which
``xp_exact_small_class`` takes as the budget of the exact kernel
(``sep_rb_exact``). The constructions build their sets as vertex bitmasks,
and the greedy routes pack theirs into one. Every route leaves through
``_report``, which certifies that mask with ``graphs.certified`` under its
key's claim in ``CLAIMS``, the one table of result keys (a construction's
size against its guarantee too), as ``rbsep verify --report`` does.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import CertificationError, Infeasible, NotTriangleFree, Uncoverable
from .bounds import BoundsReport
from .exact import MaxSepReport, SolveReport, rb_difference_masks, sep_rb_exact
from .graphs import (
    Coloring,
    Graph,
    bits_of,
    certified,
    is_triangle_free,
    mask_of,
    require_coloring,
    require_rb_separable,
    require_twin_free,
)
from .hitting import columns, greedy_hitting_set

__all__ = [
    "SetSystem",
    "ApproxReport",
    "reduce_rb_to_set_cover",
    "greedy_set_cover",
    "sep_rb_greedy",
    "sep_all_pairs_greedy",
    "triangle_free_construct",
    "bounded_degree_construct",
    "xp_exact_small_class",
    "set_system_to_text",
    "CLAIMS",
    "guarantee",
    "optimum_lower_bound",
]


class SetSystem(NamedTuple("SetSystem", [("universe_size", int), ("element_labels", tuple), ("sets", tuple)])):
    """Universe plus a labeled family of subsets.

    ``element_labels[i]`` names universe element ``i`` (for the separation
    reductions, a vertex pair). ``sets`` holds ``(label, elements)`` rows;
    for the reductions the label is the vertex whose neighborhood induces
    the set.
    """

    __slots__ = ()

    def __new__(cls, universe_size: int, element_labels: tuple, sets: tuple):
        for label, elems in sets:
            for e in elems:
                if not 0 <= e < universe_size:
                    raise ValueError(f"set {label} has out-of-range element {e}")
        return super().__new__(cls, universe_size, element_labels, sets)


class ApproxReport(NamedTuple):
    """Sorted solution, certified under its key's ``CLAIMS`` entry, with its guarantee.

    ``guarantee`` is the greedy routes' approximation factor and the size
    bound a construction's solution fits. ``optimum_lower_bound`` is what the
    function of that name gives: greedy accounting (coverage counting plus
    the factor itself) for the greedy routes, 0 or 1 for the constructions.
    """

    solution: tuple[int, ...]
    guarantee: float
    optimum_lower_bound: int


def set_system_to_text(sys: SetSystem) -> str:
    lines = [f"{sys.universe_size} {len(sys.sets)}"]
    for label, elems in sys.sets:
        lines.append(f"{label}: " + " ".join(str(e) for e in elems))
    return "\n".join(lines) + "\n"


def reduce_rb_to_set_cover(g: Graph, c: Coloring) -> SetSystem:
    """Red-blue separation as set cover.

    One universe element per red-blue pair, ordered (red ascending, blue
    ascending); the set of vertex v is column v of
    ``exact.rb_difference_masks``, the pairs v separates. Covers of size k
    correspond bijectively (by set label) to red-blue separating sets of
    size k. Raises Unseparable on the lexicographically smallest red-blue
    twin pair, which no set covers.
    """
    cols = columns(rb_difference_masks(g, c), g.n)
    pairs = tuple((r, b) for r in c.red_vertices() for b in c.blue_vertices())
    return SetSystem(len(pairs), pairs, tuple((v, bits_of(col)) for v, col in enumerate(cols)))


def split_pairs(x: int, n: int) -> int:
    """Bitset of the pairs u < w < n with exactly one endpoint in ``x``.

    Pair (u, w) is bit ``u*n - u*(u+1)/2 + w - u - 1``, the index of its
    mask in ``exact.all_pairs_difference_masks``. With ``x`` = N[v] these
    are the pairs v separates; with the red mask, the red-blue pairs.
    """
    out = offset = 0
    for u in range(n - 1):
        row = n - 1 - u
        other = ~x if x >> u & 1 else x
        out |= (other >> (u + 1) & ((1 << row) - 1)) << offset
        offset += row
    return out


def _cover_bound(elements: int, most: int, size: int) -> int:
    # The better of |U| / (largest set) and cover size / (ln|U| + 1).
    if not elements:
        return 0
    return max(math.ceil(elements / most), math.ceil(size / (math.log(elements) + 1)))


def greedy_set_cover(sys: SetSystem) -> ApproxReport:
    """Max-coverage greedy cover; ties break to the lowest set index.

    The recorded guarantee is ln|U| + 1. The optimum lower bound is the
    better of |U| / (largest set size) and greedy size / guarantee. Raises
    Uncoverable on the smallest element that no set contains.
    """
    cols = [mask_of(elems) for _, elems in sys.sets]
    universe = (1 << sys.universe_size) - 1
    missing = universe & ~mask_of(e for _, elems in sys.sets for e in elems)
    if missing:
        raise Uncoverable(sys.element_labels[(missing & -missing).bit_length() - 1])
    chosen = greedy_hitting_set(cols, universe)
    size = sys.universe_size
    solution = tuple(sorted(sys.sets[i][0] for i in chosen))
    lower = _cover_bound(size, max((col.bit_count() for col in cols), default=0), len(chosen))
    return ApproxReport(solution, math.log(size) + 1 if size else 1.0, lower)


def guarantee(method: str, g: Graph, c: Coloring | None = None) -> float | None:
    """The factor or size bound CLI ``method`` records on ``g`` colored ``c``; None if none."""
    if method == "greedy":
        return max(1.0, 2 * math.log(g.n)) if g.n >= 2 else 1.0
    if method == "maxsep-approx":
        return (2 * math.log(g.n) + 1) * (g.n - 1).bit_length() if g.n >= 2 else 1.0
    if method in ("triangle-free", "bounded-degree") and c is not None:
        return float((3 if method == "triangle-free" else g.max_degree) * min(c.red_count, c.blue_count))
    return None


def optimum_lower_bound(method: str, g: Graph, c: Coloring | None, size: int) -> int | None:
    """The ``optimum_lower_bound`` CLI ``method`` records for a solution of
    ``size`` on ``g`` colored ``c``; None if it records none.

    For the greedy routes it is the better of |U| / (the most pairs of U one
    vertex splits) and size / (ln|U| + 1), U being the red-blue pairs for
    ``greedy`` and all pairs for ``maxsep-approx``. Vertex v with
    |N[v]| = k, r of them red, splits r(|B| - k + r) + (|R| - r)(k - r)
    red-blue pairs and k(n - k) pairs in all. For the constructions it is 1
    when both classes are nonempty, else 0.
    """
    if method == "greedy" and c is not None:
        reds, blues = c.red_count, c.blue_count
        pairs = reds * blues
        splits = []
        for nv in g.closed:
            k, r = nv.bit_count(), (nv & c.red_mask).bit_count()
            splits.append(r * (blues - k + r) + (reds - r) * (k - r))
    elif method == "maxsep-approx":
        pairs = g.n * (g.n - 1) // 2
        splits = [nv.bit_count() * (g.n - nv.bit_count()) for nv in g.closed]
    elif method in ("triangle-free", "bounded-degree") and c is not None:
        return 1 if c.red_count and c.blue_count else 0
    else:
        return None
    most = max(splits, default=0)
    if pairs and not most:  # no vertex splits a pair, so no set separates them
        return None
    return _cover_bound(pairs, most, size)


# Each result key: its record's fields, the field holding its set, the set's
# ``graphs.violation`` kind (None: no set), and whether ``guarantee`` bounds its size.
CLAIMS = {
    **dict.fromkeys(("exact", "xp"), (SolveReport._fields, "witness", "rb", False)),
    "greedy": (ApproxReport._fields, "solution", "rb", False),
    **dict.fromkeys(("triangle-free", "bounded-degree"), (ApproxReport._fields, "solution", "rb", True)),
    "maxsep-approx": (ApproxReport._fields + ("lower_bound",), "solution", "all-pairs", False),
    "maxsep-exact": (MaxSepReport._fields, None, None, False),
    "bounds": (BoundsReport._fields, None, None, False),
}


def _report(method: str, g: Graph, c: Coloring | None, chosen: int) -> ApproxReport:
    # The one exit of the polynomial routes: the chosen vertex mask,
    # certified under ``method``'s claim, then reported.
    _, _, kind, bounded = CLAIMS[method]
    promise = guarantee(method, g, c)
    solution = certified(g, kind, chosen, c, promise if bounded else None)
    return ApproxReport(solution, promise, optimum_lower_bound(method, g, c, len(solution)))


def _greedy(g: Graph, universe: int) -> int:
    return mask_of(greedy_hitting_set([split_pairs(nv, g.n) for nv in g.closed], universe))


def sep_rb_greedy(g: Graph, c: Coloring) -> ApproxReport:
    """Greedy red-blue separating set with factor at most max(1, 2 ln n)."""
    require_rb_separable(g, c)
    return _report("greedy", g, c, _greedy(g, split_pairs(c.red_mask, g.n)))


def all_pairs_set_system(g: Graph) -> SetSystem:
    """Separation of all vertex pairs as set cover (universe = pairs)."""
    n = g.n
    pairs = tuple((u, v) for u in range(n) for v in range(u + 1, n))
    sets = tuple((w, bits_of(split_pairs(nw, n))) for w, nw in enumerate(g.closed))
    return SetSystem(len(pairs), pairs, sets)


def sep_all_pairs_greedy(g: Graph) -> ApproxReport:
    """Greedy all-pairs separating set.

    The set is a (2 ln n + 1)-approximation of sep(G); through
    sep(G) <= ceil(log2 n) * maxsep_RB(G) the same set approximates
    maxsep_RB within (2 ln n + 1) * ceil(log2 n), the factor recorded here.
    """
    require_twin_free(g)
    return _report("maxsep-approx", g, None, _greedy(g, (1 << g.n * (g.n - 1) // 2) - 1))


def _oriented(c: Coloring) -> tuple[int, int]:
    # The smaller class, then the other, as masks; ties keep red as the driver.
    blue = c.swapped().red_mask
    return (blue, c.red_mask) if c.blue_count < c.red_count else (c.red_mask, blue)


def triangle_free_construct(g: Graph, c: Coloring) -> ApproxReport:
    """Separating set of size <= 3 * min(|R|, |B|) on triangle-free graphs.

    All vertices of the smaller class enter the set; each of them is then
    insulated from its neighbors by two of its own neighbors (triangle-
    freeness keeps their codes apart), or for a degree-1 vertex with an
    opposite-colored neighbor w, by one further neighbor of w. Lowest
    indices are picked wherever the choice is free.
    """
    if not is_triangle_free(g):
        raise NotTriangleFree("construction requires profile flag triangle_free")
    require_twin_free(g)
    require_coloring(g, c)

    small, _ = _oriented(c)
    chosen = small
    for v in bits_of(small):
        nbrs = g.neighbors(v)
        if len(nbrs) >= 2:
            chosen |= mask_of(nbrs[:2])
        elif len(nbrs) == 1 and not small >> nbrs[0] & 1:
            others = g.adj[nbrs[0]] & ~(1 << v)
            chosen |= others & -others
    return _report("triangle-free", g, c, chosen)


def bounded_degree_construct(g: Graph, c: Coloring) -> ApproxReport:
    """Separating set of size <= Delta * min(|R|, |B|), Delta >= 3.

    Per vertex v of the smaller class: if some opposite-colored w dominates
    all neighbors of v (N(v) inside N[w]), take {v, w} plus, when v and w
    are adjacent, a lowest-index separator of the pair; otherwise take all
    neighbors of v. The adjacent-dominator shortcut alone can leave a
    neighbor of v unseparated (it only guarantees the (v, w) pair itself);
    when that happens the kit is rebuilt as {v} plus one difference-mask
    hit per opposite neighbor, which is always valid and, because adjacent
    dominators cannot exist at deg(v) = Delta, always within Delta.
    """
    require_twin_free(g)
    require_coloring(g, c)
    if g.max_degree < 3:
        raise ValueError("construction requires profile flag max_degree >= 3")

    small, big = _oriented(c)
    bigs = bits_of(big)
    closed = g.closed
    chosen = 0

    def with_neighbor_hits(v: int, kit: int) -> int:
        # Add a lowest-index separator for each opposite neighbor whose
        # difference mask is not hit yet (v itself covers non-neighbors).
        for b in bits_of(g.adj[v] & big):
            d = closed[v] ^ closed[b]
            if not d & (kit | chosen):
                kit |= d & -d
        return kit

    for v in bits_of(small):
        w = next((w for w in bigs if not g.adj[v] & ~closed[w]), None)
        if w is not None:
            seed = 1 << v | 1 << w
            if g.adj[v] >> w & 1:
                d = closed[v] ^ closed[w]
                seed |= d & -d
            kit = with_neighbor_hits(v, seed)
            if kit != seed:
                # The shortcut missed a neighbor pair; it only ever does so
                # for an adjacent dominator, which forces deg(v) < Delta, so
                # the direct kit {v} + one hit per neighbor stays in budget.
                kit = with_neighbor_hits(v, 1 << v)
            chosen |= kit
        else:
            chosen |= g.adj[v]
    return _report("bounded-degree", g, c, chosen)


def xp_exact_small_class(g: Graph, c: Coloring) -> SolveReport:
    """Exact optimum searched only up to the constructive bound.

    The budget is the guarantee of ``triangle_free_construct`` on
    triangle-free graphs and of ``bounded_degree_construct`` otherwise (3 or
    Delta times the smaller class); each construction checks its own
    preconditions and certifies a solution within that size, so ``sep_rb_exact``
    under that budget returns the optimum after O(n^bound) nodes. Raises
    CertificationError if no solution fits the bound.
    """
    construct = triangle_free_construct if is_triangle_free(g) else bounded_degree_construct
    bound = int(construct(g, c).guarantee)
    try:
        return sep_rb_exact(g, c, budget=bound)
    except Infeasible:
        raise CertificationError(f"no solution within the constructive bound {bound}") from None
