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
implementation follows the construction steps and every emitted set is
checked by the verifiers before being returned.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NotATree, WrongClassSize, XIsLeaf
from .graphs import (
    Coloring,
    Graph,
    bfs_parity,
    bits_of,
    certify,
    is_tree,
    require_coloring,
    verify_rb_separating,
    verify_separating,
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
        out = t.neighbors(v)[:2]
    else:
        u = t.neighbors(v)[0]
        w = next(x for x in t.neighbors(u) if x != v)
        out = tuple(sorted((v, w)))
    certify(verify_rb_separating(t, c, out))
    return out


def _shift_away_from_single_leaves(
    t: Graph, profile: TreeProfile, chosen: set[int], base: set[int]
) -> set[int]:
    # For each single-leaf support u that the pre-shift parity set selected,
    # move its leaf's slot to u's lowest-index internal neighbor.
    # Eligibility is judged on the original parity membership so one shift
    # cannot cascade into another. Both callers start ``chosen`` from a base
    # holding every leaf and drop only S_+ leaves, so each S_1 leaf is in it.
    out = set(chosen)
    for u in profile.s_class(1):
        if u in base:
            out.discard(profile.leaves_of[u][0])
            out.add(next(x for x in t.neighbors(u) if t.degree(x) > 1))
    return out


def _parity_bases(t: Graph, profile: TreeProfile, x: int) -> tuple[set[int], set[int]]:
    # The pre-shift parity sets: the odd, then the even, BFS layers of x
    # plus every leaf.
    reached, odd = bfs_parity(t, x)
    leaves = set(profile.leaves)
    return set(bits_of(odd)) | leaves, set(bits_of(reached & ~odd)) | leaves


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
    c1_base, c2_base = _parity_bases(t, profile, x)
    c1 = _shift_away_from_single_leaves(t, profile, c1_base, c1_base)
    c2 = _shift_away_from_single_leaves(t, profile, c2_base, c2_base)
    out1 = tuple(sorted(c1))
    out2 = tuple(sorted(c2))
    certify(verify_separating(t, out1))
    certify(verify_separating(t, out2))
    return out1, out2


def ns3_vertices(t: Graph, profile: TreeProfile) -> tuple[int, ...]:
    """Greedy internal-neighbor cover for 3-leaf supports.

    For each support with exactly three leaves and no support neighbor in
    S_+, the set receives one internal neighbor (lowest index, reused when
    already present). Greedy keeps at most one vertex per such support,
    which is all the (n + s)/2 size accounting needs.
    """
    s_plus = set(profile.s_plus)
    out: set[int] = set()
    for u in profile.s_class(3):
        if any(nb in s_plus for nb in t.neighbors(u)):
            continue
        internal = [nb for nb in t.neighbors(u) if t.degree(nb) > 1]
        if not any(nb in out for nb in internal):
            out.add(internal[0])
    return tuple(sorted(out))


def _star_rb_set(t: Graph, c: Coloring, profile: TreeProfile) -> tuple[int, ...]:
    # Stars: the smaller color class among the leaves, topped up to two
    # leaves. Ties between equal classes keep the red leaves.
    leaves = list(profile.leaves)
    red_leaves = [v for v in leaves if c.is_red(v)]
    blue_leaves = [v for v in leaves if not c.is_red(v)]
    minority = blue_leaves if len(blue_leaves) < len(red_leaves) else red_leaves
    chosen = set(minority)
    for v in leaves:
        if len(chosen) >= 2:
            break
        chosen.add(v)
    out = tuple(sorted(chosen))
    certify(verify_rb_separating(t, c, out))
    return out


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
    leaf_set = set(profile.leaves)
    if profile.leaf_count == t.n - 1:
        return _star_rb_set(t, c, profile)

    x = next(v for v in range(t.n) if v not in leaf_set)
    c1_prime, c2_prime = _parity_bases(t, profile, x)
    ns3 = set(ns3_vertices(t, profile))
    s_plus = set(profile.s_plus)
    outside = [
        v for v in range(t.n) if v not in leaf_set and v not in s_plus and v not in ns3
    ]
    cost1 = sum(1 for v in outside if v in c1_prime)
    cost2 = sum(1 for v in outside if v in c2_prime)
    base = c1_prime if cost1 <= cost2 else c2_prime
    chosen = set(base)

    for u in sorted(s_plus):
        adj_leaves = profile.leaves_of[u]
        red = [v for v in adj_leaves if c.is_red(v)]
        blue = [v for v in adj_leaves if not c.is_red(v)]
        majority = red if len(red) > len(blue) else blue  # a tie drops the blue leaves
        for v in majority:
            chosen.discard(v)
        chosen.add(u)

        k = len(adj_leaves)
        if k >= 4:
            present = sum(1 for v in t.neighbors(u) if v in chosen)
            for v in adj_leaves:
                if present >= 2:
                    break
                if v not in chosen:
                    chosen.add(v)
                    present += 1
        elif k == 3:
            ns3_here = [v for v in t.neighbors(u) if v in ns3]
            if ns3_here and not any(v in chosen for v in ns3_here):
                chosen.add(ns3_here[0])
            if len(red) == 0 or len(blue) == 0:
                chosen.add(adj_leaves[0])
        else:  # k == 2
            w1, w2 = adj_leaves
            same_color = c.is_red(w1) == c.is_red(w2)
            if same_color and u not in base:
                chosen.add(w1)
            elif same_color:
                internal = next(v for v in t.neighbors(u) if v not in leaf_set)
                chosen.add(internal)
            else:
                keep = w1 if c.is_red(w1) == c.is_red(u) else w2
                drop = w2 if keep == w1 else w1
                chosen.discard(drop)
                chosen.add(keep)

    chosen = _shift_away_from_single_leaves(t, profile, chosen, base)
    out = tuple(sorted(chosen))
    certify(verify_rb_separating(t, c, out))
    certify(None if 2 * len(out) <= t.n + profile.support_count else "2|S| > n + s")
    return out


def tree_all_pairs_construct(t: Graph) -> tuple[int, ...]:
    """All vertices except one leaf per support: size n - s, all-pairs.

    Requires a tree on n >= 5 vertices; trees on 3 or more vertices have
    no twins, so no twin check is needed.
    """
    profile = tree_profile(t)
    if t.n < 5:
        raise NotATree("construction needs a tree on at least 5 vertices")
    removed = {profile.leaves_of[u][0] for u in profile.supports}
    out = tuple(v for v in range(t.n) if v not in removed)
    certify(None if len(out) == t.n - profile.support_count else "|S| != n - s")
    certify(verify_separating(t, out))
    return out
