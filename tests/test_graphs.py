import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    closed_neighborhood,
    code_of,
    complete_bipartite,
    cycle_graph,
    path_graph,
    star_graph,
)
from rbsep.errors import CertificationError, NotTwinFree, Unseparable
from rbsep.generators import gen_random_twin_free
from rbsep.graphs import (
    Coloring,
    Graph,
    certified,
    code_pairs,
    graph_profile,
    is_triangle_free,
    require_rb_separable,
    require_twin_free,
    twin_classes,
    verify_dominating,
    verify_rb_separating,
    verify_separating,
    verify_separating_allow_twins,
    violation,
)


def test_graph_construction_validates():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 5)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(2, (1,))  # wrong adjacency length
    with pytest.raises(ValueError):
        Graph(n=-1, adj=())
    # A valid graph is an immutable record; its cached ``closed`` lies
    # outside the fields, so equality and hash ignore it.
    g = Graph.from_edges(3, [(0, 1)])
    assert repr(g) == "Graph(n=3, adj=(2, 1, 0))"
    assert g.closed == (3, 3, 4)
    same = Graph(n=3, adj=(2, 1, 0))
    assert g == same and hash(g) == hash(same)
    with pytest.raises(AttributeError):
        g.n = 4


def _reference_adjacency_error(n, adj):
    # Row by row: a self-loop or a neighbor out of range; then the first
    # (v, u) in row order with u in row v and v not in row u.
    rows = [{u for u in range(adj[v].bit_length()) if adj[v] >> u & 1} for v in range(n)]
    for v, row in enumerate(rows):
        if v in row:
            return f"self-loop at vertex {v}"
        if any(u >= n for u in row):
            return f"vertex {v} has neighbors out of range"
    for v, row in enumerate(rows):
        for u in sorted(row):
            if v not in rows[u]:
                return f"asymmetric adjacency between {u} and {v}"
    return None


def test_graph_constructor_names_the_reference_error():
    # The constructor checks only the pairs u > v and the bit totals; it must
    # accept and reject as the pair-by-pair check does, naming the same pair.
    rng = random.Random(12)
    for trial in range(600):
        n = rng.randint(1, 9)
        adj = list(gen_random_twin_free(n, 0.4, trial).adj) if trial % 3 else [0] * n
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            v = rng.randrange(n)
            adj[v] ^= 1 << rng.randrange(n + (trial % 7 == 0))
        expected = _reference_adjacency_error(n, adj)
        if expected is None:
            assert Graph(n, tuple(adj)).adj == tuple(adj)
        else:
            with pytest.raises(ValueError) as info:
                Graph(n, tuple(adj))
            assert str(info.value) == expected


def test_closed_neighborhood_examples():
    assert closed_neighborhood(path_graph(3), 1) == (0, 1, 2)
    g = Graph.from_edges(4, [(0, 1)])  # vertices 2, 3 isolated
    assert closed_neighborhood(g, 2) == (2,)
    assert closed_neighborhood(cycle_graph(4), 0) == (0, 1, 3)
    with pytest.raises(IndexError):
        closed_neighborhood(path_graph(3), 3)


def test_code_examples():
    p3 = path_graph(3)
    for v in range(3):
        assert code_of(p3, (), v) == ()
    assert code_of(p3, {1}, 0) == (1,)
    assert code_of(path_graph(6), {0, 2, 4}, 3) == (2, 4)


def test_twin_classes():
    assert twin_classes(Graph.from_edges(2, [(0, 1)])).classes == ((0, 1),)
    assert twin_classes(path_graph(4)).classes == ((0,), (1,), (2,), (3,))
    # complete bipartite parts are NOT closed-neighborhood twins: N[u] always
    # contains u itself, so direct comparison gives singleton classes
    report = twin_classes(complete_bipartite(5, 5))
    assert report.is_twin_free
    assert len(report.classes) == 10


def test_verify_rb_separating_examples():
    p6 = path_graph(6)
    mono = Coloring(6, 0)
    assert verify_rb_separating(p6, mono, ()) is None
    k2 = Graph.from_edges(2, [(0, 1)])
    assert verify_rb_separating(k2, Coloring.from_string("RB"), (0, 1)) == (0, 1)
    assert verify_rb_separating(k2, Coloring.from_string("RB"), ()) == (0, 1)


def test_verify_separating_examples():
    p4 = path_graph(4)
    assert verify_separating(p4, ()) == (0, 1)
    assert verify_separating(p4, range(4)) is None
    # {0,1,3} looks plausible for P5 but vertices 0 and 1 share the code {0,1}
    assert verify_separating(path_graph(5), (0, 1, 3)) == (0, 1)
    assert verify_separating(path_graph(5), (0, 2, 4)) is None


def test_verify_separating_allow_twins_examples():
    assert verify_separating_allow_twins(Graph.from_edges(2, [(0, 1)]), ()) is None
    assert verify_separating_allow_twins(path_graph(4), ()) == (0, 1)
    # Triangle 0-1-2 with pendant 3 on 2: 0 and 1 are twins, 0 and 2 are not.
    paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert verify_separating_allow_twins(paw, ()) == (0, 2)
    assert verify_separating_allow_twins(paw, (3,)) == (2, 3)
    assert verify_separating_allow_twins(paw, (0, 3)) is None


def test_verifiers_reject_negative_indices():
    # A negative index is out of range like n is, not a bad shift count.
    p4 = path_graph(4)
    checks = [
        lambda s: verify_separating(p4, s),
        lambda s: verify_separating_allow_twins(p4, s),
        lambda s: verify_rb_separating(p4, Coloring.from_string("RBBR"), s),
        lambda s: verify_dominating(p4, s),
    ]
    for check in checks:
        for s in ([-1], [-1, 2], [4]):
            with pytest.raises(ValueError, match="indices out of range"):
                check(s)


def test_verify_dominating_examples():
    p6 = path_graph(6)
    assert verify_dominating(p6, range(6)) is None
    assert verify_dominating(path_graph(3), {1}) is None
    assert verify_dominating(p6, {1, 2}) == 4


def test_graph_profile():
    c4 = graph_profile(cycle_graph(4))
    assert c4.max_degree == 2 and c4.triangle_free and not c4.is_tree
    k3 = graph_profile(cycle_graph(3))
    assert not k3.triangle_free
    p6 = graph_profile(path_graph(6))
    assert p6.is_tree and p6.connected and p6.twin_free
    empty = graph_profile(Graph.from_edges(0, []))
    assert empty.n == 0 and not empty.is_tree


def test_is_triangle_free_matches_a_triple_check():
    rng = random.Random(11)
    graphs = [Graph.from_edges(n, list(combinations(range(n), 2))) for n in range(6)]
    graphs += [cycle_graph(4), cycle_graph(5), complete_bipartite(3, 4), star_graph(5)]
    for n in range(10):
        pairs = list(combinations(range(n), 2))
        graphs += [Graph.from_edges(n, [p for p in pairs if rng.random() < 0.3]) for _ in range(20)]
    seen = set()
    for g in graphs:
        triples = combinations(range(g.n), 3)
        free = not any(all(g.adj[u] >> v & 1 for u, v in combinations(t, 2)) for t in triples)
        assert is_triangle_free(g) == free
        seen.add(free)
    assert seen == {True, False}


def test_graph_profile_twin_flag_matches_twin_classes():
    rng = random.Random(12)
    graphs = [path_graph(5), star_graph(4), complete_bipartite(2, 3), Graph.from_edges(0, [])]
    for n in range(1, 9):
        pairs = list(combinations(range(n), 2))
        graphs += [Graph.from_edges(n, [p for p in pairs if rng.random() < 0.5]) for _ in range(10)]
    flags = [graph_profile(g).twin_free for g in graphs]
    assert flags == [twin_classes(g).is_twin_free for g in graphs]
    assert True in flags and False in flags


def test_max_degree():
    assert star_graph(5).max_degree == 4
    assert cycle_graph(4).max_degree == 2
    assert Graph.from_edges(3, []).max_degree == 0
    assert Graph.from_edges(0, []).max_degree == 0
    empty = graph_profile(Graph.from_edges(0, []))
    assert empty.max_degree == 0 and empty.min_degree == 0


def test_violation_maps_each_claim_kind_to_its_verifier():
    p4 = path_graph(4)
    c = Coloring.from_string("RBBR")
    for s in ([], [1], [0, 3], [1, 2]):
        assert violation(p4, "rb", s, c) == verify_rb_separating(p4, c, s)
        assert violation(p4, "all-pairs", s) == verify_separating(p4, s)
        assert violation(p4, "all-pairs-allow-twins", s) == verify_separating_allow_twins(p4, s)
        assert violation(p4, "dominating", s) == verify_dominating(p4, s)
    # With twins the two all-pairs kinds differ: on K2 the empty set leaves
    # only the twin pair, which allow-twins exempts.
    k2 = Graph.from_edges(2, [(0, 1)])
    assert violation(k2, "all-pairs", []) == (0, 1)
    assert violation(k2, "all-pairs-allow-twins", []) is None
    # Claims that cannot be checked fail with a reason, never pass.
    assert isinstance(violation(p4, "rb", [0, 1, 2, 3]), str)
    assert isinstance(violation(p4, "none", [0, 1, 2, 3], c), str)


def test_certified_returns_the_sorted_set_and_keeps_its_promise():
    # P4 needs 3 of its vertices to separate all pairs; {0, 1, 2} does.
    p4 = path_graph(4)
    assert certified(p4, "all-pairs", 0b0111) == (0, 1, 2)
    assert certified(p4, "all-pairs", 0b0111, most=3) == (0, 1, 2)
    with pytest.raises(CertificationError, match="3 vertices exceed the promised 2"):
        certified(p4, "all-pairs", 0b0111, most=2)
    with pytest.raises(CertificationError, match=r"\(0, 1\)"):
        certified(p4, "all-pairs", 0b0011)
    with pytest.raises(CertificationError, match="no coloring"):
        certified(p4, "rb", 0b0111)


def test_coloring_round_trip():
    c = Coloring.from_string("RBBRB")
    assert c.to_string() == "RBBRB"
    assert c.red_vertices() == (0, 3)
    assert c.blue_vertices() == (1, 2, 4)
    assert c.swapped().to_string() == "BRRBR"
    assert c == Coloring(5, 0b01001) and hash(c) == hash(Coloring(5, 0b01001))
    assert repr(c) == "Coloring(n=5, red_mask=9)"
    with pytest.raises(AttributeError):
        c.red_mask = 0
    with pytest.raises(ValueError):
        Coloring.from_string("RX")
    with pytest.raises(ValueError):
        Coloring(2, 4)  # vertex 2 red in a 2-vertex coloring


def test_coloring_string_is_one_color_per_vertex():
    rng = random.Random(0)
    for n in range(71):
        full = (1 << n) - 1
        for mask in {0, full, 1 & full, full >> 1 << 1, rng.getrandbits(n), rng.getrandbits(n)}:
            c = Coloring(n, mask)
            text = c.to_string()
            assert text == "".join("R" if mask >> v & 1 else "B" for v in range(n))
            assert Coloring.from_string(text) == c


@st.composite
def graph_and_coloring(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    included = draw(st.lists(st.booleans(), min_size=len(possible), max_size=len(possible)))
    g = Graph.from_edges(n, [e for e, keep in zip(possible, included) if keep])
    mask = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return g, Coloring(n, mask)


@settings(max_examples=120, deadline=None)
@given(graph_and_coloring(), st.integers(min_value=0, max_value=255))
def test_code_subset_properties(gc, smask):
    g, _ = gc
    s = [v for v in range(g.n) if smask >> v & 1]
    for v in range(g.n):
        code = code_of(g, s, v)
        assert set(code) <= set(s)
        assert set(code) <= set(closed_neighborhood(g, v))


@settings(max_examples=120, deadline=None)
@given(graph_and_coloring())
def test_full_vertex_set_separates_unless_rb_twins(gc):
    g, c = gc
    rb_twins = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if c.is_red(u) != c.is_red(v) and closed_neighborhood(g, u) == closed_neighborhood(g, v)
    ]
    assert verify_rb_separating(g, c, range(g.n)) == min(rb_twins, default=None)
    if rb_twins:
        with pytest.raises(Unseparable) as exc:
            require_rb_separable(g, c)
        assert exc.value.pair == min(rb_twins)
    else:
        require_rb_separable(g, c)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=63), max_size=12),
    st.integers(min_value=-1, max_value=63),
)
def test_code_pairs_against_brute_force_grouping(closed, smask):
    codes = [nbhd & smask for nbhd in closed]
    expected = [
        (codes.index(code), v) for v, code in enumerate(codes) if codes.index(code) < v
    ]
    assert list(code_pairs(closed, smask)) == expected


@settings(max_examples=120, deadline=None)
@given(graph_and_coloring(), st.integers(min_value=0, max_value=255))
def test_separating_implies_rb_separating(gc, smask):
    g, c = gc
    s = [v for v in range(g.n) if smask >> v & 1]
    if verify_separating(g, s) is None:
        assert verify_rb_separating(g, c, s) is None


@settings(max_examples=120, deadline=None)
@given(graph_and_coloring(), st.integers(min_value=0, max_value=255))
def test_color_swap_symmetry(gc, smask):
    g, c = gc
    s = [v for v in range(g.n) if smask >> v & 1]
    assert verify_rb_separating(g, c, s) == verify_rb_separating(g, c.swapped(), s)


@settings(max_examples=120, deadline=None)
@given(graph_and_coloring(), st.integers(min_value=0, max_value=255))
def test_verify_separating_allow_twins_against_pairwise_comparison(gc, smask):
    g, _ = gc
    s = [v for v in range(g.n) if smask >> v & 1]
    bad = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if code_of(g, s, u) == code_of(g, s, v)
        and closed_neighborhood(g, u) != closed_neighborhood(g, v)
    ]
    assert verify_separating_allow_twins(g, s) == min(bad, default=None)
    # verify_separating's own oracle, twins or not: any two equal codes.
    equal = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if code_of(g, s, u) == code_of(g, s, v)
    ]
    assert verify_separating(g, s) == min(equal, default=None)
    if twin_classes(g).is_twin_free:
        assert verify_separating_allow_twins(g, s) == verify_separating(g, s)


@settings(max_examples=60, deadline=None)
@given(graph_and_coloring())
def test_twin_classes_against_pairwise_comparison(gc):
    g, _ = gc
    report = twin_classes(g)
    classes = {v: i for i, cls in enumerate(report.classes) for v in cls}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            same = closed_neighborhood(g, u) == closed_neighborhood(g, v)
            assert (classes[u] == classes[v]) == same
    flat = sorted(v for cls in report.classes for v in cls)
    assert flat == list(range(g.n))
    # Each class ascends, and the classes come in order of smallest member.
    assert all(list(cls) == sorted(cls) for cls in report.classes)
    firsts = [cls[0] for cls in report.classes]
    assert firsts == sorted(firsts)
    twins = any(
        closed_neighborhood(g, u) == closed_neighborhood(g, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
    )
    if twins:
        with pytest.raises(NotTwinFree) as exc:
            require_twin_free(g)
        assert exc.value.twin_report == report
    else:
        require_twin_free(g)


def test_random_twin_free_is_deterministic_and_twin_free():
    a = gen_random_twin_free(7, 0.4, seed=11)
    b = gen_random_twin_free(7, 0.4, seed=11)
    assert a.adj == b.adj
    assert twin_classes(a).is_twin_free
