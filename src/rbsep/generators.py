"""Deterministic instance factories: extremal families, reductions, fuzzers.

Vertex numbering per family is frozen so certificates and serialized
instances are stable across runs:

* power-set graph: the k independent vertices first, then the clique
  vertices in ascending subset-mask order, the isolated vertex last;
* complement half-graph: v_1..v_k then w_1..w_k;
* complete multipartite: parts laid out consecutively;
* spider: the center, then each path outward;
* set-cover split graph: elements, then the red apex, then one vertex per
  set, then the two isolated blue vertices;
* two-copies reduction: the red copy, the blue copy, then the 4-path;
* SAT gadget: per variable two 16-vertex domination gadgets (ports first:
  x^a, x^b then x, not-x), then one per clause (c^a, c^b), each gadget laid
  out as [port1, port2, u1..u4, p1..p6, q1..q4].

Every generator is a pure function of its parameters; the random sources
are pure functions of their seed.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import NamedTuple

from .errors import (
    BadPivot,
    InvalidParts,
    LiteralCapExceeded,
    TwinFreeUnreachable,
    Uncoverable,
)
from .graphs import Coloring, Graph, code_pairs
from .io import MAX_GRAPH_ORDER

__all__ = [
    "GeneratorSpec",
    "SatInstance",
    "SplitReduction",
    "GadgetReduction",
    "gen_power_set_graph",
    "gen_half_graph_complement",
    "gen_complete_multipartite",
    "gen_spider",
    "gen_split_from_set_cover",
    "gen_two_copies_ds",
    "gen_copies_plus_independent",
    "gen_maxsep_gadget",
    "gen_random_twin_free",
    "gen_random_tree",
    "build_from_spec",
    "pair_count",
]

# Largest edge count ``build_from_spec`` builds, worked out from the spec;
# ``rbsep experiment`` bounds the vertex pairs of its G(n, 0.4) draws by it.
MAX_SPEC_EDGES = 1_000_000


class GeneratorSpec(NamedTuple):
    """Family tag plus parameters; serializes as ``family:k=v,...``."""

    family: str
    params: tuple[tuple[str, str], ...]

    @classmethod
    def parse(cls, text: str) -> "GeneratorSpec":
        family, _, rest = text.partition(":")
        if not family:
            raise ValueError(f"missing family in spec {text!r}")
        params = []
        if rest:
            for item in rest.split(","):
                key, eq, value = item.partition("=")
                if not eq:
                    raise ValueError(f"malformed parameter {item!r} in spec {text!r}")
                params.append((key, value))
        return cls(family, tuple(params))

    def render(self) -> str:
        if not self.params:
            return self.family
        return self.family + ":" + ",".join(f"{k}={v}" for k, v in self.params)

    def get(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.params:
            if k == key:
                return v
        return default


def gen_power_set_graph(k: int) -> tuple[Graph, list[Coloring]]:
    """Order-2^k graph whose worst coloring costs exactly k.

    Vertices: s_1..s_k (independent), one clique vertex per subset of size
    >= 2 joined to its subset members, and one isolated vertex. The
    returned colorings are the adversarial ones forcing cost k: for k = 1
    the lone s vertex red and the isolated vertex blue; for k = 2 both s
    vertices red, the rest blue; for k >= 3 the full-subset vertex blue and
    everything else red.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    subset_masks = [m for m in range(1 << k) if m.bit_count() >= 2]
    n = k + len(subset_masks) + 1
    edges = []
    t_base = k
    for i, m in enumerate(subset_masks):
        vi = t_base + i
        for s in range(k):
            if m >> s & 1:
                edges.append((s, vi))
        for j in range(i + 1, len(subset_masks)):
            edges.append((vi, t_base + j))
    g = Graph.from_edges(n, edges)
    assert n == 1 << k

    if k == 1:
        coloring = Coloring.from_red(n, [0])
    elif k == 2:
        coloring = Coloring.from_red(n, [0, 1])
    else:
        full_vertex = t_base + subset_masks.index((1 << k) - 1)
        coloring = Coloring(n, ((1 << n) - 1) ^ (1 << full_vertex))
    return g, [coloring]


def gen_half_graph_complement(k: int) -> tuple[Graph, Coloring]:
    """Two k-cliques with v_i ~ w_j iff i > j, plus the parity coloring.

    This is the complement of the half-graph; its worst coloring costs
    2k - 1 = n - 1. In 1-based terms the coloring makes v_i blue for odd i
    and red otherwise; the w side depends on the parity of k (red at odd i
    when k is odd, blue at odd i when k is even).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = 2 * k
    edges = []
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            edges.append((i - 1, j - 1))          # v-clique
            edges.append((k + i - 1, k + j - 1))  # w-clique
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            if i > j:
                edges.append((i - 1, k + j - 1))
    g = Graph.from_edges(n, edges)
    reds = []
    for i in range(1, k + 1):
        if i % 2 == 0:
            reds.append(i - 1)
        w_red = (i % 2 == 1) if k % 2 == 1 else (i % 2 == 0)
        if w_red:
            reds.append(k + i - 1)
    return g, Coloring.from_red(n, reds)


def gen_complete_multipartite(
    parts: list[int] | tuple[int, ...], strict: bool = False
) -> tuple[Graph, Coloring]:
    """Complete multipartite graph with a near-balanced coloring.

    Each part gets ceil(k_i/2) red and floor(k_i/2) blue vertices (the
    first indices red). With ``strict`` the closed-form preconditions are
    enforced: at least two parts, every part odd and at least 5; then
    sep = n - t and maxsep = (n - t)/2.
    """
    parts = tuple(parts)
    if not parts or any(p <= 0 for p in parts):
        raise InvalidParts(f"invalid part sizes {parts}")
    if strict and (len(parts) < 2 or any(p < 5 or p % 2 == 0 for p in parts)):
        raise InvalidParts(f"strict mode needs >= 2 parts, all odd and >= 5, got {parts}")
    n = sum(parts)
    starts = []
    acc = 0
    for p in parts:
        starts.append(acc)
        acc += p
    edges = []
    for a in range(len(parts)):
        for b in range(a + 1, len(parts)):
            for u in range(starts[a], starts[a] + parts[a]):
                for v in range(starts[b], starts[b] + parts[b]):
                    edges.append((u, v))
    g = Graph.from_edges(n, edges)
    reds = []
    for start, p in zip(starts, parts):
        reds.extend(range(start, start + (p + 1) // 2))
    return g, Coloring.from_red(n, reds)


def gen_spider(k: int) -> tuple[Graph, Coloring]:
    """k paths of order 6 glued at one endpoint, with alternating colors.

    n = 5k + 1. The center is red and colors alternate outward along each
    path (distance parity), the adversarial pattern whose cost is 3k.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = 5 * k + 1
    edges = []
    for i in range(k):
        base = 1 + 5 * i
        edges.append((0, base))
        for j in range(4):
            edges.append((base + j, base + j + 1))
    g = Graph.from_edges(n, edges)
    reds = [0]
    for i in range(k):
        base = 1 + 5 * i
        reds.extend(base + j for j in (1, 3))  # distance 2 and 4 from center
    return g, Coloring.from_red(n, reds)


class SplitReduction(NamedTuple):
    """Split-graph instance built from a set-cover instance.

    A cover of size k corresponds to a red-blue separating set of size
    k + k_offset (the offset is 1: the red apex is always needed).
    """

    graph: Graph
    coloring: Coloring
    k_offset: int
    element_vertices: tuple[int, ...]
    apex: int
    set_vertices: tuple[int, ...]
    isolated: tuple[int, int]


def gen_split_from_set_cover(
    universe_size: int, sets: list[list[int]] | tuple
) -> SplitReduction:
    """Split graph whose red-blue separation optimum is cover optimum + 1.

    Element vertices form a clique together with a red apex; set vertices
    plus two isolated blue vertices form an independent set; a set vertex
    is adjacent to its member elements. Every vertex except the apex is
    blue. Raises Uncoverable when some element is in no set.
    """
    if universe_size <= 0:
        raise InvalidParts("universe must be nonempty")
    sets = tuple(tuple(s) for s in sets)
    seen = set()
    for s in sets:
        seen.update(s)
    for e in range(universe_size):
        if e not in seen:
            raise Uncoverable(e)
    apex = universe_size
    set_base = universe_size + 1
    n = universe_size + 1 + len(sets) + 2
    edges = []
    for u in range(universe_size):
        for v in range(u + 1, universe_size):
            edges.append((u, v))
        edges.append((u, apex))
    for j, s in enumerate(sets):
        for e in s:
            if not 0 <= e < universe_size:
                raise InvalidParts(f"set {j} has out-of-range element {e}")
            edges.append((e, set_base + j))
    g = Graph.from_edges(n, edges)
    return SplitReduction(
        graph=g,
        coloring=Coloring.from_red(n, [apex]),
        k_offset=1,
        element_vertices=tuple(range(universe_size)),
        apex=apex,
        set_vertices=tuple(range(set_base, set_base + len(sets))),
        isolated=(n - 2, n - 1),
    )


def gen_two_copies_ds(g: Graph, v: int) -> tuple[Graph, Coloring]:
    """Two copies of g bridged by a 4-path; separation cost is gamma(g) + 1.

    The red copy keeps g's vertex numbering, the blue copy is shifted by n,
    and the path u1..u4 hangs off both copies of the degree-2 pivot v. The
    path is red except its tail. Color classes differ in size by exactly 2.
    """
    if g.degree(v) != 2:
        raise BadPivot(f"pivot vertex {v} has degree {g.degree(v)}, expected 2")
    n = g.n
    total = 2 * n + 4
    edges = g.edges()
    edges += [(a + n, b + n) for a, b in g.edges()]
    u1, u2, u3, u4 = 2 * n, 2 * n + 1, 2 * n + 2, 2 * n + 3
    edges += [(v, u1), (v + n, u1), (u1, u2), (u2, u3), (u3, u4)]
    h = Graph.from_edges(total, edges)
    reds = list(range(n)) + [u1, u2, u3]
    return h, Coloring.from_red(total, reds)


def gen_copies_plus_independent(g: Graph, k: int) -> tuple[Graph, Coloring]:
    """Blue copy of g plus k + 1 isolated red vertices.

    The separation optimum is min(gamma(g), k + 1), so it is <= k exactly
    when gamma(g) <= k.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    n = g.n
    total = n + k + 1
    h = Graph.from_edges(total, g.edges())
    return h, Coloring.from_red(total, range(n, total))


class SatInstance(NamedTuple("SatInstance", [("n_vars", int), ("clauses", tuple)])):
    """CNF with at most 3 literals per clause, each literal at most twice.

    Literals are nonzero DIMACS-style integers: +i for variable i, -i for
    its negation (1-based).
    """

    __slots__ = ()

    def __new__(cls, n_vars: int, clauses: tuple[tuple[int, ...], ...]):
        counts: dict[int, int] = {}
        for clause in clauses:
            if not 1 <= len(clause) <= 3:
                raise ValueError(f"clause {clause} must have 1..3 literals")
            for lit in clause:
                if lit == 0 or abs(lit) > n_vars:
                    raise ValueError(f"literal {lit} out of range")
                counts[lit] = counts.get(lit, 0) + 1
        for lit, cnt in sorted(counts.items()):
            if cnt > 2:
                raise LiteralCapExceeded(f"literal {lit} occurs {cnt} times, cap is 2")
        return super().__new__(cls, n_vars, clauses)


class DominationGadget(NamedTuple):
    """Vertex ids of one 16-vertex domination gadget."""

    ports: tuple[int, int]
    u: tuple[int, int, int, int]
    p: tuple[int, ...]
    q: tuple[int, ...]


class GadgetReduction(NamedTuple):
    """Worst-coloring-hardness instance built from a 3-SAT-2l formula.

    ``k = 4m + 9n`` is the separation threshold: the formula is satisfiable
    iff sep(graph) = k, and the supplied coloring forces any optimal
    red-blue solution to separate all pairs.
    """

    graph: Graph
    coloring: Coloring
    k: int
    instance: SatInstance
    gadgets: tuple[DominationGadget, ...]
    var_pos: tuple[int, ...]  # vertex of literal +i, 1-based index i-1
    var_neg: tuple[int, ...]  # vertex of literal -i

    def prescribed_separating_set(self, assignment: list[bool] | tuple[bool, ...]) -> tuple[int, ...]:
        """All gadget u-vertices plus one true literal vertex per variable."""
        out = []
        for gadget in self.gadgets:
            out.extend(gadget.u)
        for i, value in enumerate(assignment):
            out.append(self.var_pos[i] if value else self.var_neg[i])
        return tuple(sorted(out))


_PAIRS = tuple(combinations(range(4), 2))     # p_i wiring, lexicographic
_TRIPLES = tuple(combinations(range(4), 3))   # q_j wiring, lexicographic


def _emit_gadget(base: int, edges: list[tuple[int, int]]) -> DominationGadget:
    port1, port2 = base, base + 1
    u = tuple(base + 2 + i for i in range(4))
    p = tuple(base + 6 + i for i in range(6))
    q = tuple(base + 12 + i for i in range(4))
    for uu in u:
        edges.append((port1, uu))
        edges.append((port2, uu))
    clique = p + q
    for a in range(len(clique)):
        for b in range(a + 1, len(clique)):
            edges.append((clique[a], clique[b]))
    for pi, pair in zip(p, _PAIRS):
        for idx in pair:
            edges.append(tuple(sorted((pi, u[idx]))))
    for qj, triple in zip(q, _TRIPLES):
        for idx in triple:
            edges.append(tuple(sorted((qj, u[idx]))))
    return DominationGadget(ports=(port1, port2), u=u, p=p, q=q)


def gen_maxsep_gadget(sat: SatInstance) -> GadgetReduction:
    """Build the max-degree-12 instance: 32 vertices per variable, 16 per clause.

    Variable i contributes gadgets on ports (x^a, x^b) and (x, not-x) with
    extra edges x^a~x^b, x^a~x, x^a~not-x; clause j contributes a gadget on
    (c^a, c^b) with c^a joined to c^b and to its literal vertices. The
    coloring makes every gadget's p-vertices blue and q-vertices red,
    splits each port pair of the x^a/x^b and c^a/c^b kind, and colors
    everything else blue.
    """
    nv = sat.n_vars
    m = len(sat.clauses)
    edges: list[tuple[int, int]] = []
    gadgets: list[DominationGadget] = []
    var_pos = []
    var_neg = []
    port_splits = []  # (red port, blue port)
    for i in range(nv):
        base = 32 * i
        ga = _emit_gadget(base, edges)          # ports x^a, x^b
        gb = _emit_gadget(base + 16, edges)     # ports x, not-x
        gadgets += [ga, gb]
        xa, xb = ga.ports
        xpos, xneg = gb.ports
        var_pos.append(xpos)
        var_neg.append(xneg)
        edges += [(xa, xb), (xa, xpos), (xa, xneg)]
        port_splits.append((xa, xb))
    clause_base = 32 * nv
    for j, clause in enumerate(sat.clauses):
        base = clause_base + 16 * j
        gc = _emit_gadget(base, edges)
        gadgets.append(gc)
        ca, cb = gc.ports
        edges.append((ca, cb))
        for lit in clause:
            vtx = var_pos[abs(lit) - 1] if lit > 0 else var_neg[abs(lit) - 1]
            edges.append(tuple(sorted((ca, vtx))))
        port_splits.append((ca, cb))
    n = 32 * nv + 16 * m
    g = Graph.from_edges(n, edges)
    reds = set()
    for gadget in gadgets:
        reds.update(gadget.q)
    for red_port, _ in port_splits:
        reds.add(red_port)
    coloring = Coloring.from_red(n, sorted(reds))
    return GadgetReduction(
        graph=g,
        coloring=coloring,
        k=4 * m + 9 * nv,
        instance=sat,
        gadgets=tuple(gadgets),
        var_pos=tuple(var_pos),
        var_neg=tuple(var_neg),
    )


def gen_random_twin_free(
    n: int, edge_prob: float, seed: int, max_tries: int = 200
) -> Graph:
    """G(n, p) conditioned on twin-freeness by rejection resampling.

    The draw contract, which pinned instances rely on: one
    ``random.Random(seed).random()`` per pair u < v in lexicographic order,
    and an edge iff that draw is below ``edge_prob``. A draw with twins is
    discarded, and the next draw continues the same stream.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= edge_prob <= 1:
        raise ValueError("edge probability must be in [0, 1]")
    draw = random.Random(seed).random
    for _ in range(max_tries):
        rows = [0] * n
        for u in range(n):
            bit = 1 << u
            for v in range(u + 1, n):
                if draw() < edge_prob:
                    rows[u] |= 1 << v
                    rows[v] |= bit
        if next(code_pairs([1 << v | row for v, row in enumerate(rows)], -1), None) is None:
            return Graph(n, tuple(rows))
    raise TwinFreeUnreachable(f"no twin-free graph with n={n}, p={edge_prob} after {max_tries} tries")


def gen_random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree from a random Pruefer sequence.

    The draw contract, which pinned instances rely on: the sequence is
    n - 2 draws of ``random.Random(seed).randrange(n)``, decoded by the
    smallest-leaf rule (each entry x is joined to the smallest leaf left,
    which is then removed; the last two vertices left are joined). n = 1
    gives the single vertex and n = 2 the single edge, with no draws.

    The decode walks a pointer up the vertices, so it takes linear time: the
    next leaf is x itself when x has just become a leaf below the pointer,
    else the next degree-1 vertex above the pointer. The last vertex left
    besides that leaf is n - 1, which is never the smallest of two leaves.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        return Graph(1, (0,))
    if n == 2:
        return Graph(2, (0b10, 0b01))
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    rows = [0] * n
    ptr = leaf = degree.index(1)
    for x in seq:
        rows[leaf] |= 1 << x
        rows[x] |= 1 << leaf
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr = leaf = degree.index(1, ptr + 1)
    rows[leaf] |= 1 << n - 1
    rows[n - 1] |= 1 << leaf
    return Graph(n, tuple(rows))


def pair_count(n: int) -> int:
    """Vertex pairs of an n-vertex graph, every one of which G(n, p) draws."""
    return n * (n - 1) // 2


# The parameters each family's spec may set, each at most once.
SPEC_PARAMS = {
    **dict.fromkeys(("power-set", "half-complement", "spider"), ("k",)),
    "multipartite": ("parts", "strict"),
    "random": ("n", "p", "seed"),
    "tree": ("n", "seed"),
}


def _require_size(spec: GeneratorSpec, order: int, edges: int = 0) -> None:
    if order > MAX_GRAPH_ORDER:
        raise ValueError(f"spec {spec.render()!r} gives a graph order above {MAX_GRAPH_ORDER}")
    if edges > MAX_SPEC_EDGES:
        raise ValueError(f"spec {spec.render()!r} gives more than {MAX_SPEC_EDGES} edges")


def build_from_spec(spec: GeneratorSpec) -> tuple[Graph, Coloring | None]:
    """Instantiate a (graph, coloring) pair from a textual generator spec.

    Raises ValueError, before building anything, when the family's order
    (2^k, 2k, 5k + 1, the sum of the parts, or n) exceeds
    ``io.MAX_GRAPH_ORDER``, or when its edge count worked out from the
    parameters exceeds ``MAX_SPEC_EDGES``: n(n - 1)/2 for power-set,
    half-complement and random (which draws every pair), (n^2 - sum p^2)/2
    for multipartite; spiders and trees have n - 1 edges. Also raises
    ValueError on an unknown family, a parameter the family does not read, a
    repeated parameter, and a ``strict`` other than 0 or 1.
    """
    fam = spec.family
    if fam not in SPEC_PARAMS:
        raise ValueError(f"unknown generator family {fam!r}")
    keys = [key for key, _ in spec.params]
    for key in keys:
        if key not in SPEC_PARAMS[fam]:
            raise ValueError(f"generator family {fam!r} has no parameter {key!r}")
        if keys.count(key) > 1:
            raise ValueError(f"parameter {key!r} repeated in spec {spec.render()!r}")
    if fam == "power-set":
        k = int(spec.get("k", "1"))
        # Capping k keeps a huge k from building its huge 2^k.
        n = 2 ** min(k, MAX_GRAPH_ORDER.bit_length())
        _require_size(spec, n, pair_count(n))
        g, colorings = gen_power_set_graph(k)
        return g, colorings[0]
    if fam == "half-complement":
        k = int(spec.get("k", "1"))
        _require_size(spec, 2 * k, k * (2 * k - 1))
        return gen_half_graph_complement(k)
    if fam == "spider":
        k = int(spec.get("k", "1"))
        _require_size(spec, 5 * k + 1)
        return gen_spider(k)
    if fam == "multipartite":
        parts = [int(x) for x in str(spec.get("parts", "")).split("+") if x]
        n = sum(parts)
        _require_size(spec, n, (n * n - sum(p * p for p in parts)) // 2)
        strict = spec.get("strict", "0")
        if strict not in ("0", "1"):
            raise ValueError(f"multipartite parameter 'strict' must be 0 or 1, not {strict!r}")
        return gen_complete_multipartite(parts, strict=strict == "1")
    if fam == "random":
        n = int(spec.get("n", "8"))
        _require_size(spec, n, pair_count(n))
        g = gen_random_twin_free(n, float(spec.get("p", "0.4")), int(spec.get("seed", "0")))
        return g, None
    n = int(spec.get("n", "8"))  # the last family: tree
    _require_size(spec, n)
    return gen_random_tree(n, int(spec.get("seed", "0"))), None
