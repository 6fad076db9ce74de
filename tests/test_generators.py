import hashlib
import random

import pytest

from conftest import (
    TREE_GRID,
    TWIN_FREE_GRID,
    brute_cover_optimum,
    cycle_graph,
    heap_prufer_tree,
    path_graph,
)
from rbsep.errors import (
    BadPivot,
    InvalidParts,
    LiteralCapExceeded,
    RBSepError,
    TwinFreeUnreachable,
    Uncoverable,
)
from rbsep.exact import gamma_exact, maxsep_exact, sep_rb_exact
from rbsep.generators import (
    MAX_SPEC_EDGES,
    GeneratorSpec,
    SatInstance,
    build_from_spec,
    gen_complete_multipartite,
    gen_copies_plus_independent,
    gen_half_graph_complement,
    gen_maxsep_gadget,
    gen_power_set_graph,
    gen_random_tree,
    gen_random_twin_free,
    gen_spider,
    gen_split_from_set_cover,
    gen_two_copies_ds,
)
from rbsep.graphs import (
    Coloring,
    graph_profile,
    twin_classes,
    verify_separating,
)
from rbsep.io import MAX_GRAPH_ORDER, graph_to_text


def test_power_set_graph_structure():
    g, colorings = gen_power_set_graph(2)
    assert g.n == 4
    assert colorings[0].to_string() == "RRBB"
    g3, c3 = gen_power_set_graph(3)
    assert g3.n == 8
    assert g3.degree(g3.n - 1) == 0  # isolated vertex last
    # independent front block, clique middle block
    for a in range(3):
        for b in range(a + 1, 3):
            assert not g3.adj[a] >> b & 1
    clique = range(3, 7)
    for a in clique:
        for b in clique:
            if a < b:
                assert g3.adj[a] >> b & 1
    assert twin_classes(g3).is_twin_free
    g1, c1 = gen_power_set_graph(1)
    assert g1.n == 2 and g1.m == 0
    assert c1[0].to_string() == "RB"


def test_half_graph_complement_structure():
    g, c = gen_half_graph_complement(1)
    assert g.n == 2 and g.m == 0
    g2, c2 = gen_half_graph_complement(2)
    # two 2-cliques plus the single threshold cross edge: this is P4
    assert g2.m == 3
    assert sep_rb_exact(g2, c2).optimum == 3
    g3, _ = gen_half_graph_complement(3)
    assert g3.m == 3 + 3 + 3  # two triangles plus cross edges i > j


def test_complete_multipartite_validation():
    with pytest.raises(InvalidParts):
        gen_complete_multipartite([])
    with pytest.raises(InvalidParts):
        gen_complete_multipartite([3, 0])
    with pytest.raises(InvalidParts):
        gen_complete_multipartite([1, 1], strict=True)
    g, c = gen_complete_multipartite([1, 1])  # K2, twins, flagged by caller
    assert not twin_classes(g).is_twin_free
    g, c = gen_complete_multipartite([5, 5], strict=True)
    assert c.red_count == 6 and c.blue_count == 4


def test_spider_structure():
    g, c = gen_spider(1)
    assert graph_to_text(g) == graph_to_text(path_graph(6))
    assert c.to_string() == "RBRBRB"
    g2, c2 = gen_spider(2)
    assert g2.n == 11
    assert graph_profile(g2).is_tree
    assert c2.is_red(0)


def test_split_reduction_structure_and_values():
    red = gen_split_from_set_cover(3, [[0, 1], [1, 2], [2]])
    g = red.graph
    # clique side: elements plus apex pairwise adjacent
    clique = list(red.element_vertices) + [red.apex]
    for a in clique:
        for b in clique:
            if a < b:
                assert g.adj[a] >> b & 1
    # independent side: set vertices and the two isolates
    indep = list(red.set_vertices) + list(red.isolated)
    for a in indep:
        for b in indep:
            if a < b:
                assert not g.adj[a] >> b & 1
    assert red.coloring.red_vertices() == (red.apex,)
    assert red.k_offset == 1

    cover_opt = brute_cover_optimum(3, [(0, 1), (1, 2), (2,)])
    assert sep_rb_exact(g, red.coloring).optimum == cover_opt + 1


def test_split_reduction_rejects_uncovered():
    with pytest.raises(Uncoverable):
        gen_split_from_set_cover(2, [[0]])


def test_split_reduction_reads_a_repeated_element_once():
    assert gen_split_from_set_cover(2, [[0, 0, 1]]) == gen_split_from_set_cover(2, [[0, 1]])


def test_split_reduction_random_instances():
    rng = random.Random(3)
    for _ in range(20):
        u = rng.randint(1, 4)
        sets = []
        for _ in range(rng.randint(1, 4)):
            sets.append([e for e in range(u) if rng.random() < 0.6])
        covered = set().union(*map(set, sets)) if sets else set()
        for e in range(u):
            if e not in covered:
                sets.append([e])
        red = gen_split_from_set_cover(u, sets)
        expected = brute_cover_optimum(u, [tuple(s) for s in sets]) + 1
        assert sep_rb_exact(red.graph, red.coloring).optimum == expected


def test_two_copies_reduction():
    p4 = path_graph(4)
    h, c = gen_two_copies_ds(p4, 1)
    assert sep_rb_exact(h, c).optimum == gamma_exact(p4).optimum + 1
    assert abs(c.red_count - c.blue_count) <= 2
    c6 = cycle_graph(6)
    h, c = gen_two_copies_ds(c6, 0)
    assert sep_rb_exact(h, c).optimum == gamma_exact(c6).optimum + 1
    with pytest.raises(BadPivot):
        gen_two_copies_ds(p4, 0)  # endpoint has degree 1


def test_copies_plus_independent():
    p3, p6 = path_graph(3), path_graph(6)
    h, c = gen_copies_plus_independent(p3, 1)
    assert sep_rb_exact(h, c).optimum == 1 == gamma_exact(p3).optimum
    h, c = gen_copies_plus_independent(p6, 2)
    assert sep_rb_exact(h, c).optimum == 2 == gamma_exact(p6).optimum
    h, c = gen_copies_plus_independent(p6, 1)
    assert sep_rb_exact(h, c).optimum > 1


def test_sat_instance_validation():
    SatInstance(2, ((1, -2), (-1, 2)))
    with pytest.raises(LiteralCapExceeded):
        SatInstance(1, ((1,), (1,), (1,)))
    with pytest.raises(ValueError):
        SatInstance(1, ((1, -1, 1, 1),))
    with pytest.raises(ValueError):
        SatInstance(1, ((2,),))


def test_gadget_reduction_unit_instance():
    red = gen_maxsep_gadget(SatInstance(1, ((1,),)))
    assert red.graph.n == 48
    assert red.k == 13
    assert graph_profile(red.graph).max_degree == 12
    s = red.prescribed_separating_set([True])
    assert len(s) == red.k
    assert verify_separating(red.graph, s) is None


def test_gadget_joins_a_repeated_literal_once():
    once = gen_maxsep_gadget(SatInstance(1, ((1,),)))
    twice = gen_maxsep_gadget(SatInstance(1, ((1, 1),)))
    assert (twice.graph, twice.coloring, twice.k) == (once.graph, once.coloring, once.k)


def test_gadget_u_vertices_are_unique_pair_separators():
    red = gen_maxsep_gadget(SatInstance(2, ((1, -2),)))
    closed = red.graph.closed
    for gadget in red.gadgets:
        for uh in gadget.u:
            pairs = [
                (p, q)
                for p in gadget.p
                for q in gadget.q
                if closed[p] ^ closed[q] == 1 << uh
            ]
            assert pairs, f"u-vertex {uh} separates no (p, q) pair"
            for p, q in pairs:
                assert red.coloring.is_red(q) and not red.coloring.is_red(p)


def test_gadget_two_clause_instance():
    sat = SatInstance(4, ((-1, -2, 3), (2, -3, 4)))
    red = gen_maxsep_gadget(sat)
    assert red.graph.n == 32 * 4 + 16 * 2
    assert red.k == 4 * 2 + 9 * 4
    s = red.prescribed_separating_set([False, True, True, True])  # satisfies both
    assert verify_separating(red.graph, s) is None


def test_random_sources_determinism():
    a = gen_random_tree(12, 7)
    b = gen_random_tree(12, 7)
    assert graph_to_text(a) == graph_to_text(b)
    assert graph_profile(a).is_tree
    g1 = gen_random_twin_free(8, 0.35, 123)
    g2 = gen_random_twin_free(8, 0.35, 123)
    assert graph_to_text(g1) == graph_to_text(g2)


@pytest.mark.parametrize(
    "generate, grid, digest",
    [
        (gen_random_twin_free, TWIN_FREE_GRID, "c79bf57b8c1d0d73fcded26deaff4e03"),
        (gen_random_tree, TREE_GRID, "36bdb07a0cba9a38a857987d5cd7c948"),
    ],
    ids=["twin-free", "tree"],
)
def test_random_sources_are_pinned(generate, grid, digest):
    # Every seeded instance the benchmark and the CSV suites draw stays the same.
    adjs = [generate(*args).adj for args in grid]
    assert hashlib.md5(repr(adjs).encode()).hexdigest() == digest


def test_random_tree_matches_heap_decode():
    for n in range(1, 65):
        for seed in range(6):
            assert gen_random_tree(n, seed) == heap_prufer_tree(n, seed), (n, seed)


@pytest.mark.parametrize("seed", range(3))
def test_random_tree_matches_heap_decode_at_benchmark_order(seed):
    # The order of the benchmark's tree constructions, far past TREE_GRID's 200.
    assert gen_random_tree(1000, seed) == heap_prufer_tree(1000, seed)


def test_random_twin_free_unreachable():
    with pytest.raises(TwinFreeUnreachable):
        gen_random_twin_free(2, 1.0, 0, max_tries=5)


def test_prufer_tree_sizes():
    for n in (1, 2, 3, 9, 40):
        t = gen_random_tree(n, 5)
        assert t.n == n and t.m == max(0, n - 1)
        if n >= 2:
            assert graph_profile(t).is_tree


def test_generator_spec_round_trip():
    spec = GeneratorSpec.parse("half-complement:k=2")
    assert spec.render() == "half-complement:k=2"
    g, c = build_from_spec(spec)
    assert g.n == 4 and c is not None
    g, c = build_from_spec(GeneratorSpec.parse("tree:n=9,seed=4"))
    assert g.n == 9 and c is None
    with pytest.raises(ValueError):
        build_from_spec(GeneratorSpec.parse("nonsense:k=1"))


def test_build_from_spec_bounds_the_order():
    g, _ = build_from_spec(GeneratorSpec.parse("tree:n=10000"))
    assert g.n == MAX_GRAPH_ORDER
    for text in ("tree:n=10001", "spider:k=2000"):
        with pytest.raises(ValueError, match="graph order above"):
            build_from_spec(GeneratorSpec.parse(text))
    g, _ = build_from_spec(GeneratorSpec.parse("power-set:k=10"))
    assert g.m == 517_688
    g, _ = build_from_spec(GeneratorSpec.parse("random:n=1000"))
    assert g.n == 1000
    for text in ("power-set:k=11", "multipartite:parts=5000+5000", "half-complement:k=5000"):
        with pytest.raises(ValueError, match=f"more than {MAX_SPEC_EDGES} edges"):
            build_from_spec(GeneratorSpec.parse(text))


def test_generators_byte_identical_across_runs():
    for spec in ("power-set:k=3", "spider:k=2", "multipartite:parts=5+5"):
        g1, c1 = build_from_spec(GeneratorSpec.parse(spec))
        g2, c2 = build_from_spec(GeneratorSpec.parse(spec))
        assert graph_to_text(g1) == graph_to_text(g2)
        assert (c1 is None) == (c2 is None)
        if c1 is not None:
            assert c1.to_string() == c2.to_string()


# Each error raised from its one site, with the text the CLI prints for it.
@pytest.mark.parametrize(
    "raise_it, message",
    [
        pytest.param(
            lambda: sep_rb_exact(path_graph(4), Coloring.from_string("RBRB"), budget=1),
            "no solution within budget 1", id="Infeasible",
        ),
        pytest.param(
            lambda: maxsep_exact(path_graph(16), n_cap=14),
            "graph order 16 exceeds cap 14", id="CapExceeded",
        ),
        pytest.param(
            lambda: gen_two_copies_ds(path_graph(4), 0),
            "pivot vertex 0 has degree 1, expected 2", id="BadPivot",
        ),
        pytest.param(
            lambda: SatInstance(1, ((1,), (1,), (1,))),
            "literal 1 occurs 3 times, cap is 2", id="LiteralCapExceeded",
        ),
        pytest.param(
            lambda: gen_random_twin_free(3, 1.0, 0, max_tries=2),
            "no twin-free graph with n=3, p=1.0 after 2 tries", id="TwinFreeUnreachable",
        ),
    ],
)
def test_error_messages(raise_it, message):
    with pytest.raises(RBSepError) as info:
        raise_it()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build, error, message",
    [
        pytest.param(lambda: gen_power_set_graph(0), ValueError, "k must be at least 1", id="power-set"),
        pytest.param(
            lambda: gen_half_graph_complement(0), ValueError, "k must be at least 1", id="half-complement",
        ),
        pytest.param(lambda: gen_spider(0), ValueError, "k must be at least 1", id="spider"),
        pytest.param(
            lambda: gen_copies_plus_independent(path_graph(3), -1), ValueError, "k must be nonnegative",
            id="copies-plus-independent",
        ),
        pytest.param(lambda: gen_random_tree(0, 0), ValueError, "n must be at least 1", id="tree"),
        pytest.param(
            lambda: gen_random_twin_free(0, 0.5, 0), ValueError, "n must be at least 1", id="twin-free-n",
        ),
        pytest.param(
            lambda: gen_random_twin_free(4, -0.1, 0), ValueError, "edge probability must be in [0, 1]",
            id="twin-free-p-below",
        ),
        pytest.param(
            lambda: gen_random_twin_free(4, 1.5, 0), ValueError, "edge probability must be in [0, 1]",
            id="twin-free-p-above",
        ),
        pytest.param(
            lambda: gen_split_from_set_cover(0, []), InvalidParts, "universe must be nonempty",
            id="split-empty-universe",
        ),
        pytest.param(
            lambda: gen_split_from_set_cover(2, [[0, 2], [1]]), InvalidParts,
            "set 0 has out-of-range element 2", id="split-out-of-range",
        ),
        pytest.param(
            lambda: gen_split_from_set_cover(2, [[0, 0, 1, 2, 2]]), InvalidParts,
            "set 0 has out-of-range element 2", id="split-out-of-range-repeated",
        ),
        pytest.param(
            lambda: GeneratorSpec.parse(":k=1"), ValueError, "missing family in spec ':k=1'",
            id="spec-no-family",
        ),
        pytest.param(
            lambda: GeneratorSpec.parse("spider:k"), ValueError,
            "malformed parameter 'k' in spec 'spider:k'", id="spec-no-equals",
        ),
    ],
)
def test_generator_parameter_guards(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def _outcome(f, *args) -> str:
    try:
        return repr(f(*args))
    except Exception as exc:  # a refused call is pinned by its error type
        return type(exc).__name__


def _set_system(rng: random.Random) -> tuple[int, list[list[int]]]:
    # Sets without repeats that cover the universe, so every call builds.
    u = rng.randint(1, 7)
    sets = [sorted(rng.sample(range(u), rng.randint(1, u))) for _ in range(rng.randint(1, 5))]
    covered = set().union(*sets)
    sets += [[e] for e in range(u) if e not in covered]
    return u, sets


def _formula(rng: random.Random) -> tuple[int, tuple[tuple[int, ...], ...]]:
    # Clauses of distinct literals; a literal past its cap of two is pinned
    # as LiteralCapExceeded.
    nv = rng.randint(1, 4)
    literals = [lit for i in range(1, nv + 1) for lit in (i, -i)]
    clauses = tuple(tuple(rng.sample(literals, rng.randint(1, min(3, len(literals)))))
                    for _ in range(rng.randint(0, 4)))
    return nv, clauses


GENERATORS_MD5 = "5ae7fff78f0c53a96f612900b639ca61"


def generator_outputs():
    for k in range(1, 9):
        yield _outcome(gen_power_set_graph, k)
    for k in range(1, 41):
        yield _outcome(gen_half_graph_complement, k)
    for seed in range(30):
        rng = random.Random(seed)
        parts = [rng.randint(1, 9) for _ in range(rng.randint(1, 5))]
        yield _outcome(gen_complete_multipartite, parts)
        odd = [rng.choice((3, 5, 7, 9)) for _ in range(rng.randint(1, 3))]
        yield _outcome(gen_complete_multipartite, odd, True)
    for k in range(1, 20):
        yield _outcome(gen_spider, k)
    for n, seed in TREE_GRID[:18]:
        t = gen_random_tree(n, seed)
        for k in range(3):
            yield _outcome(gen_copies_plus_independent, t, k)
        pivot = next((v for v in range(n) if t.degree(v) == 2), 0)
        yield _outcome(gen_two_copies_ds, t, pivot)
    for seed in range(30):
        yield _outcome(gen_split_from_set_cover, *_set_system(random.Random(seed)))
    for seed in range(30):
        nv, clauses = _formula(random.Random(seed))
        yield _outcome(lambda: gen_maxsep_gadget(SatInstance(nv, clauses)))
    for n, p, seed in TWIN_FREE_GRID[::8]:
        yield _outcome(gen_random_twin_free, n, p, seed)
    for n, seed in TREE_GRID[::4]:
        yield _outcome(gen_random_tree, n, seed)


def test_generator_outputs_are_pinned():
    # Every family's rows, colorings and record fields, taken at the commit
    # before the families built their rows directly.
    digest = hashlib.md5("\n".join(generator_outputs()).encode()).hexdigest()
    assert digest == GENERATORS_MD5
