"""Graph and coloring core: closed neighborhoods, codes, twins, verifiers.

Vertices are 0-based contiguous integers. Neighborhoods are stored as Python
integers used as bitmasks, which gives word-parallel set operations at any
order (multi-word beyond 64 vertices comes for free with int arithmetic).
All public functions accept vertex sets as arbitrary iterables of indices and
return them as ascending tuples, the canonical serialization order.

Every solver and construction in the package leaves through one exit here,
``certified``: a witness is only ever reported after it passes the verifier
of its claim's kind and, when its construction promises one, its size bound.

The three input checks of the paper's problems live here and nowhere else:
``require_twin_free`` (all-pairs separation and the worst-coloring sweep are
defined on twin-free graphs) raises NotTwinFree with the twin classes;
``require_coloring`` (a red-blue instance colors every vertex) raises
ValueError when the coloring's size is not the graph's order; and
``require_rb_separable`` (a red-blue separating set exists iff no red and
blue vertex are twins) raises Unseparable on the lexicographically smallest
red-blue twin pair. ``violation`` is the one table from a claim's kind
(``rb``, ``all-pairs``, its ``-allow-twins`` form, ``dominating``) to its verifier.

One pass, ``code_pairs``, pairs each vertex with the first vertex of its code
class. It answers both all-pairs verifiers, every twin check (under V a code
is N[v]), ``graph_profile``'s too, and the sweep cache in ``exact``.
``verify_rb_separating`` is the one pair loop left. Routed through
``_first_clash``, it took the benchmark's ``poly_scale`` from a median
``wall_s`` of 2.70 to 0.39 s, but its ``peak_rss_mb`` from 37.4 to 107.0 MB,
because the benchmark's worker keeps every output until the run ends (seed
0, three 30-s runs each, on a shared 2-vCPU VM with Python 3.11).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import CertificationError, NotTwinFree, Unseparable

__all__ = [
    "Graph",
    "Coloring",
    "TwinReport",
    "GraphProfile",
    "bits_of",
    "mask_of",
    "bfs_parity",
    "twin_classes",
    "require_twin_free",
    "require_coloring",
    "require_rb_separable",
    "verify_rb_separating",
    "verify_separating",
    "verify_separating_allow_twins",
    "verify_dominating",
    "violation",
    "certified",
    "graph_profile",
]


def bits_of(mask: int) -> tuple[int, ...]:
    """Return the set bits of ``mask`` as an ascending tuple of indices."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph(NamedTuple("Graph", [("n", int), ("adj", tuple)])):
    """Undirected simple graph over vertices ``0..n-1``.

    ``adj[v]`` is the open-neighborhood bitmask of ``v``. The adjacency is
    validated to be symmetric and irreflexive on construction. Graphs are
    immutable; all operations on them are pure functions.
    """

    def __new__(cls, n: int, adj: tuple[int, ...]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(adj) != n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << n) - 1
        symmetric = True
        bits = upper = 0
        for v, row in enumerate(adj):
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            if row & ~full:
                raise ValueError(f"vertex {v} has neighbors out of range")
            # Each u > v in row v must have v in row u. Then the rows are
            # symmetric iff they hold as many bits above their vertex as below.
            high = row >> v
            bits += row.bit_count()
            upper += high.bit_count()
            while symmetric and high:
                low = high & -high
                symmetric = adj[v + low.bit_length() - 1] >> v & 1
                high ^= low
        if not symmetric or 2 * upper != bits:
            for v, row in enumerate(adj):
                for u in bits_of(row):
                    if not adj[u] >> v & 1:
                        raise ValueError(f"asymmetric adjacency between {u} and {v}")
        return super().__new__(cls, n, adj)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list; duplicate edges are rejected."""
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u},{v})")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if adj[u] >> v & 1:
                raise ValueError(f"duplicate edge ({u},{v})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    @cached_property
    def closed(self) -> tuple[int, ...]:
        """Closed-neighborhood bitmasks ``N[v] = {v} | adj[v]``."""
        return tuple((1 << v) | row for v, row in enumerate(self.adj))

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    @property
    def max_degree(self) -> int:
        """Delta, the largest vertex degree (0 for the empty graph)."""
        return max((row.bit_count() for row in self.adj), default=0)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return bits_of(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits_of(row):
                out.append((u, v))
        return out

    def vertices(self) -> range:
        return range(self.n)


RED = "R"
BLUE = "B"
_COLOR_OF_DIGIT = str.maketrans("01", BLUE + RED)


class Coloring(NamedTuple("Coloring", [("n", int), ("red_mask", int)])):
    """Total red-blue labeling of the vertices of an order-``n`` graph.

    Stored as the bitmask of red vertices; blue is the complement.
    """

    __slots__ = ()

    def __new__(cls, n: int, red_mask: int):
        if not 0 <= red_mask < (1 << n if n else 1):
            raise ValueError("red mask out of range for coloring size")
        return super().__new__(cls, n, red_mask)

    @classmethod
    def from_string(cls, s: str) -> "Coloring":
        """Parse a coloring from a string over {R, B}, one char per vertex."""
        mask = 0
        for i, ch in enumerate(s):
            if ch == RED:
                mask |= 1 << i
            elif ch != BLUE:
                raise ValueError(f"invalid color character {ch!r} at position {i}")
        return cls(len(s), mask)

    @classmethod
    def from_red(cls, n: int, reds: Iterable[int]) -> "Coloring":
        return cls(n, mask_of(reds))

    def to_string(self) -> str:
        # A sentinel bit at n gives exactly n digits below it, even for n = 0.
        return format(self.red_mask | 1 << self.n, "b")[:0:-1].translate(_COLOR_OF_DIGIT)

    def is_red(self, v: int) -> bool:
        return bool(self.red_mask >> v & 1)

    def red_vertices(self) -> tuple[int, ...]:
        return bits_of(self.red_mask)

    def blue_vertices(self) -> tuple[int, ...]:
        return bits_of(~self.red_mask & ((1 << self.n) - 1))

    @property
    def red_count(self) -> int:
        return self.red_mask.bit_count()

    @property
    def blue_count(self) -> int:
        return self.n - self.red_count

    def swapped(self) -> "Coloring":
        """The coloring with the two classes exchanged."""
        return Coloring(self.n, ~self.red_mask & ((1 << self.n) - 1))


class TwinReport(NamedTuple):
    """Partition of the vertices into classes with equal closed neighborhoods."""

    classes: tuple[tuple[int, ...], ...]

    @property
    def is_twin_free(self) -> bool:
        return all(len(c) == 1 for c in self.classes)


def twin_classes(g: Graph) -> TwinReport:
    """Group the vertices by closed-neighborhood equality.

    The graph is twin-free iff every class is a singleton. Classes are listed
    in order of their smallest member, the order in which they enter the dict.
    """
    by_nbhd: dict[int, list[int]] = {}
    for v in range(g.n):
        by_nbhd.setdefault(g.closed[v], []).append(v)
    return TwinReport(tuple(tuple(vs) for vs in by_nbhd.values()))


def code_pairs(closed: Sequence[int], smask: int) -> Iterator[tuple[int, int]]:
    """Yield (u, v), v ascending, for each v whose code ``closed[v] & smask``
    an earlier vertex has; u is the first vertex with that code."""
    first: dict[int, int] = {}
    for v, nbhd in enumerate(closed):
        u = first.setdefault(nbhd & smask, v)
        if u != v:
            yield u, v


def _first_clash(g: Graph, smask: int, clash) -> tuple[int, int] | None:
    # The smallest pair (u, v) with equal codes under smask and clash(u, v):
    # in a code class, the smallest clashing pair starts at its first member.
    return min((p for p in code_pairs(g.closed, smask) if clash(*p)), default=None)


def require_twin_free(g: Graph) -> None:
    """Raise NotTwinFree, carrying the twin classes, unless g is twin-free."""
    if next(code_pairs(g.closed, -1), None):
        raise NotTwinFree(twin_classes(g))


def require_coloring(g: Graph, c: Coloring) -> None:
    """Raise ValueError unless c colors exactly the vertices of g."""
    if c.n != g.n:
        raise ValueError("coloring size does not match graph order")


def require_rb_separable(g: Graph, c: Coloring) -> None:
    """Check c, then raise Unseparable on the smallest red-blue twin pair."""
    require_coloring(g, c)
    if pair := _first_clash(g, -1, lambda u, v: c.is_red(u) != c.is_red(v)):
        raise Unseparable(pair)


def _set_mask(g: Graph, s: Iterable[int]) -> int:
    try:
        mask = mask_of(s)
    except ValueError:  # ``1 << v`` rejects a negative index v
        mask = -1
    if mask >> g.n:
        raise ValueError("vertex set contains indices out of range")
    return mask


def verify_rb_separating(g: Graph, c: Coloring, s: Iterable[int]) -> tuple[int, int] | None:
    """Check that every red-blue pair has distinct codes under s.

    Returns None when valid, otherwise the lexicographically smallest
    violating pair (u, v) with u < v. A pair violates when its two vertices
    have different colors but N[u] & s == N[v] & s.
    """
    require_coloring(g, c)
    smask = _set_mask(g, s)
    closed = g.closed
    red = c.red_mask
    # A pair loop, not ``code_pairs``, until the benchmark worker's memory is bounded.
    for u in range(g.n):
        cu = red >> u & 1
        code_u = closed[u] & smask
        for v in range(u + 1, g.n):
            if (red >> v & 1) != cu and closed[v] & smask == code_u:
                return (u, v)
    return None


def verify_separating(g: Graph, s: Iterable[int]) -> tuple[int, int] | None:
    """Check that all n codes under s are pairwise distinct.

    Returns None when valid, otherwise the lexicographically smallest pair
    (u, v) with equal codes.
    """
    return min(code_pairs(g.closed, _set_mask(g, s)), default=None)


def verify_separating_allow_twins(g: Graph, s: Iterable[int]) -> tuple[int, int] | None:
    """Check that all codes under s are distinct, except between twins.

    Returns None when valid, otherwise the lexicographically smallest pair
    (u, v) with equal codes but N[u] != N[v].
    """
    closed = g.closed
    return _first_clash(g, _set_mask(g, s), lambda u, v: closed[u] != closed[v])


def verify_dominating(g: Graph, d: Iterable[int]) -> int | None:
    """Check that every vertex's closed neighborhood meets d.

    Returns None when valid, otherwise the smallest undominated vertex.
    """
    dmask = _set_mask(g, d)
    for v in range(g.n):
        if not g.closed[v] & dmask:
            return v
    return None


def violation(g: Graph, kind: str, s: Iterable[int], c: Coloring | None = None) -> object:
    """The verifier's violation of the claim that s is a ``kind`` set of g.

    Kinds: ``rb`` (under the coloring c), ``all-pairs``, ``all-pairs-allow-twins``,
    ``dominating``. An unknown kind or an rb claim without c returns a reason string.
    """
    if kind == "rb":
        return "no coloring to check against" if c is None else verify_rb_separating(g, c, s)
    if kind == "all-pairs":
        return verify_separating(g, s)
    if kind == "all-pairs-allow-twins":
        return verify_separating_allow_twins(g, s)
    if kind == "dominating":
        return verify_dominating(g, s)
    return f"unknown claim kind {kind!r}"


def certified(g: Graph, kind: str, mask: int, c: Coloring | None = None,
              most: float | None = None) -> tuple[int, ...]:
    """The vertices of ``mask`` as a sorted tuple, once they are a ``kind`` set of g
    (under c) of at most ``most`` vertices: the one exit of every solver and
    construction, rerun by ``rbsep verify --report``. Raises CertificationError,
    never asserts, so it holds under ``python -O``."""
    out = bits_of(mask)
    found = violation(g, kind, out, c)
    if found is None and most is not None and len(out) > most:
        found = f"{len(out)} vertices exceed the promised {most}"
    if found is not None:
        raise CertificationError(f"certification failed: {found}")
    return out


class GraphProfile(NamedTuple):
    """Structural facts used for algorithm dispatch and bound checks."""

    n: int
    m: int
    max_degree: int
    min_degree: int
    triangle_free: bool
    connected: bool
    is_tree: bool
    twin_free: bool


def bfs_parity(g: Graph, root: int) -> tuple[int, int]:
    """Bitmask BFS from ``root``: (vertices reached, those at odd distance)."""
    reached = frontier = 1 << root
    odd = depth = 0
    while frontier:
        nxt = 0
        for v in bits_of(frontier):
            nxt |= g.adj[v]
        frontier = nxt & ~reached
        reached |= frontier
        depth += 1
        if depth & 1:
            odd |= frontier
    return reached, odd


def is_connected(g: Graph) -> bool:
    """True when the graph has at most one connected component."""
    return g.n == 0 or bfs_parity(g, 0)[0] == (1 << g.n) - 1


def is_triangle_free(g: Graph) -> bool:
    """Exact triangle check over every edge's common neighborhood."""
    return not any(g.adj[u] & g.adj[v] for u, v in g.edges())


def is_tree(g: Graph) -> bool:
    return g.n > 0 and is_connected(g) and g.m == g.n - 1


def graph_profile(g: Graph) -> GraphProfile:
    """Compute the dispatch profile: order, size, degrees, and class flags."""
    return GraphProfile(
        n=g.n,
        m=g.m,
        max_degree=g.max_degree,
        min_degree=min((row.bit_count() for row in g.adj), default=0),
        triangle_free=is_triangle_free(g),
        connected=is_connected(g),
        is_tree=is_tree(g),
        twin_free=next(code_pairs(g.closed, -1), None) is None,
    )
