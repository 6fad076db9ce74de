"""Tree-specific constructions for separation.

Terminology: a leaf has degree 1; a support vertex is adjacent to a leaf.
S_i collects the supports with exactly i adjacent leaves, L_i their leaves;
S_+ and L_+ are the supports/leaves with i >= 2. |L_1| = |S_1| always.
``tree_profile`` finds each support's leaves once (``TreeProfile.leaves_of``);
the classes and every construction below read them from there.

The constructions implemented here:

* ``single_red_sep``: at most 2 vertices when one color class is a single
  vertex (n >= 3);
* ``parity_sets``: two all-pairs separating sets C1/C2 built from the
  odd/even BFS layers of a non-leaf root plus all leaves, with a shift
  moving single-leaf weight onto an internal neighbor;
* ``tree_rb_construct``: a red-blue separating set of size at most
  (n + s)/2 for any coloring, built from the cheaper parity set with
  per-support adjustments;
* ``tree_all_pairs_construct``: all vertices minus one leaf per support,
  an all-pairs separating set of size exactly n - s.

Together the last two give maxsep_RB(T) <= min(n - s, (n + s)/2) <= 2n/3.
The prose around the (n + s)/2 construction is ambiguous in places; the
implementation follows the construction steps. Every set is built as a
vertex bitmask and leaves through ``graphs.certified``, which checks its claim
and the size its construction promises (at most 2, (n + s)/2 with the star
path included, and n - s) before returning it as a sorted tuple.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NotATree, WrongClassSize, XIsLeaf
from .graphs import (
    Coloring,
    Graph,
    bfs_parity,
    bits_of,
    certified,
    is_tree,
    mask_of,
    require_coloring,
)

__all__ = [
    "TreeProfile",
    "tree_profile",
    "single_red_sep",
    "parity_sets",
    "tree_rb_construct",
    "tree_all_pairs_construct",
    "ns3_vertices",
]


class TreeProfile(NamedTuple):
    """Leaf/support classification of a tree.

    ``leaves_of`` maps each support to its adjacent leaves in ascending
    order; the classes S_i, L_i, S_+ and L_+ are read from it.
    """

    n: int
    leaves: tuple[int, ...]
    supports: tuple[int, ...]
    leaves_of: dict[int, tuple[int, ...]]

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    @property
    def support_count(self) -> int:
        return len(self.supports)

    def s_class(self, i: int) -> tuple[int, ...]:
        """Supports with exactly i adjacent leaves."""
        return tuple(u for u in self.supports if len(self.leaves_of[u]) == i)

    def l_class(self, i: int) -> tuple[int, ...]:
        """Leaves adjacent to supports in the class S_i."""
        return tuple(sorted(v for u in self.s_class(i) for v in self.leaves_of[u]))

    @property
    def s_plus(self) -> tuple[int, ...]:
        return tuple(u for u in self.supports if len(self.leaves_of[u]) >= 2)

    @property
    def l_plus(self) -> tuple[int, ...]:
        return tuple(sorted(v for u in self.s_plus for v in self.leaves_of[u]))


def _require_tree(t: Graph) -> None:
    if not is_tree(t):
        raise NotATree(f"graph with n={t.n}, m={t.m} is not a tree")


def tree_profile(t: Graph) -> TreeProfile:
    """Classify leaves and support vertices; raises NotATree on a non-tree."""
    _require_tree(t)
    leaves = tuple(v for v in range(t.n) if t.degree(v) == 1)
    leaves_of: dict[int, tuple[int, ...]] = {}
    for v in leaves:
        u = t.neighbors(v)[0]
        leaves_of[u] = leaves_of.get(u, ()) + (v,)
    return TreeProfile(t.n, leaves, tuple(sorted(leaves_of)), leaves_of)


def single_red_sep(t: Graph, c: Coloring) -> tuple[int, ...]:
    """Set of size <= 2 separating a single minority vertex from the rest.

    Requires a tree on n >= 3 vertices whose smaller color class is exactly
    one vertex v. If v is internal the set is its two lowest-index
    neighbors (v becomes the only vertex with two set members in its
    neighborhood); if v is a leaf the set is {v, w} with w a second-step
    neighbor.
    """
    _require_tree(t)
    if t.n < 3:
        raise WrongClassSize("tree must have at least 3 vertices")
    require_coloring(t, c)
    if c.red_count == 1:
        v = c.red_vertices()[0]
    elif c.blue_count == 1:
        v = c.blue_vertices()[0]
    else:
        raise WrongClassSize(
            f"need exactly one minority vertex, classes are {c.red_count}/{c.blue_count}"
        )
    if t.degree(v) >= 2:
        chosen = mask_of(t.neighbors(v)[:2])
    else:
        others = t.adj[t.neighbors(v)[0]] & ~(1 << v)
        chosen = 1 << v | others & -others
    return certified(t, "rb", chosen, c, 2)


def _shift_away_from_single_leaves(t: Graph, profile: TreeProfile, chosen: int, base: int) -> int:
    # For each single-leaf support u that the pre-shift parity set selected,
    # move its leaf's slot to u's lowest-index internal neighbor.
    # Eligibility is judged on the original parity membership so one shift
    # cannot cascade into another. Both callers start ``chosen`` from a base
    # holding every leaf and drop only S_+ leaves, so each S_1 leaf is in it.
    for u in profile.s_class(1):
        if base >> u & 1:
            inner = next(x for x in t.neighbors(u) if t.degree(x) > 1)
            chosen = chosen & ~(1 << profile.leaves_of[u][0]) | 1 << inner
    return chosen


def _parity_bases(t: Graph, leaves: int, x: int) -> tuple[int, int]:
    # The pre-shift parity sets: the odd, then the even, BFS layers of x
    # plus every leaf.
    reached, odd = bfs_parity(t, x)
    return odd | leaves, reached & ~odd | leaves


def parity_sets(t: Graph, x: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two all-pairs separating sets from the BFS parity layers of x.

    C1 starts from the odd-distance vertices plus all leaves, C2 from the
    even-distance vertices (including x) plus all leaves; both then shift
    single-leaf supports' leaves onto internal neighbors. Requires a tree
    with n >= 5 and a non-leaf x.
    """
    profile = tree_profile(t)
    if t.n < 5:
        raise NotATree("parity sets need a tree on at least 5 vertices")
    if t.degree(x) <= 1:
        raise XIsLeaf(f"vertex {x} is a leaf")
    return tuple(certified(t, "all-pairs", _shift_away_from_single_leaves(t, profile, base, base))
                 for base in _parity_bases(t, mask_of(profile.leaves), x))


def ns3_vertices(t: Graph, profile: TreeProfile) -> tuple[int, ...]:
    """Greedy internal-neighbor cover for 3-leaf supports.

    For each support with exactly three leaves and no support neighbor in
    S_+, the set receives one internal neighbor (lowest index, reused when
    already present). Greedy keeps at most one vertex per such support,
    which is all the (n + s)/2 size accounting needs.
    """
    s_plus = mask_of(profile.s_plus)
    leaves = mask_of(profile.leaves)
    out = 0
    for u in profile.s_class(3):
        internal = t.adj[u] & ~leaves
        if not t.adj[u] & s_plus and not internal & out:
            out |= internal & -internal
    return bits_of(out)


def _star_rb_set(c: Coloring, leaves: int) -> int:
    # Stars: the smaller color class among the leaves, topped up with the
    # lowest other leaves to two. Ties between equal classes keep the red
    # leaves.
    red = leaves & c.red_mask
    blue = leaves & ~c.red_mask
    chosen = blue if blue.bit_count() < red.bit_count() else red
    while chosen.bit_count() < 2:
        rest = leaves & ~chosen
        chosen |= rest & -rest
    return chosen


def tree_rb_construct(t: Graph, c: Coloring) -> tuple[int, ...]:
    """Red-blue separating set of size at most (n + s)/2 on trees, n >= 5.

    Starting from whichever pre-shift parity set has fewer vertices outside
    leaves, multi-leaf supports, and the 3-leaf internal cover, the set is
    adjusted per multi-leaf support u: leaves of u in the more common color
    class among its multi-support leaves are dropped (exact ties drop the
    blue ones), then u itself and the minimum patching vertices re-enter so
    the support stays distinguishable. Finally single-leaf shifts run as in
    the parity sets.
    """
    profile = tree_profile(t)
    if t.n < 5:
        raise NotATree("construction needs a tree on at least 5 vertices")
    require_coloring(t, c)
    leaves = mask_of(profile.leaves)
    most = (t.n + profile.support_count) // 2
    if profile.leaf_count == t.n - 1:
        return certified(t, "rb", _star_rb_set(c, leaves), c, most)

    x = next(v for v in range(t.n) if not leaves >> v & 1)
    c1_prime, c2_prime = _parity_bases(t, leaves, x)
    ns3 = mask_of(ns3_vertices(t, profile))
    outside = (1 << t.n) - 1 & ~(leaves | mask_of(profile.s_plus) | ns3)
    base = c1_prime if (c1_prime & outside).bit_count() <= (c2_prime & outside).bit_count() else c2_prime
    chosen = base

    for u in profile.s_plus:
        adj_leaves = profile.leaves_of[u]
        own = mask_of(adj_leaves)
        red = own & c.red_mask
        blue = own & ~c.red_mask
        majority = red if red.bit_count() > blue.bit_count() else blue  # a tie drops the blue leaves
        chosen = chosen & ~majority | 1 << u

        k = len(adj_leaves)
        if k >= 4:  # top u's chosen neighbors up to two with its lowest leaves
            while (t.adj[u] & chosen).bit_count() < 2:
                rest = own & ~chosen
                chosen |= rest & -rest
        elif k == 3:
            here = t.adj[u] & ns3
            if not here & chosen:
                chosen |= here & -here
            if not red or not blue:
                chosen |= 1 << adj_leaves[0]
        elif red and blue:  # k == 2: keep the leaf colored as u
            chosen = chosen & ~own | (red if c.is_red(u) else blue)
        elif not base >> u & 1:  # same color, u outside the base
            chosen |= 1 << adj_leaves[0]
        else:  # same color, u in the base: its lowest internal neighbor
            internal = t.adj[u] & ~leaves
            chosen |= internal & -internal

    return certified(t, "rb", _shift_away_from_single_leaves(t, profile, chosen, base), c, most)


def tree_all_pairs_construct(t: Graph) -> tuple[int, ...]:
    """All vertices except one leaf per support: size n - s, all-pairs.

    Requires a tree on n >= 5 vertices; trees on 3 or more vertices have
    no twins, so no twin check is needed.
    """
    profile = tree_profile(t)
    if t.n < 5:
        raise NotATree("construction needs a tree on at least 5 vertices")
    removed = mask_of(profile.leaves_of[u][0] for u in profile.supports)
    return certified(t, "all-pairs", (1 << t.n) - 1 & ~removed, most=t.n - profile.support_count)
