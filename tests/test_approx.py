import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_cover_optimum,
    brute_rb_set_system,
    brute_rb_twin_pair,
    complete_bipartite,
    cycle_graph,
    path_graph,
    reference_greedy,
)
import rbsep.exact
import rbsep.graphs
from rbsep.bounds import check_bounds
from rbsep.approx import (
    CLAIMS,
    SetSystem,
    bounded_degree_construct,
    greedy_set_cover,
    guarantee,
    reduce_rb_to_set_cover,
    sep_all_pairs_greedy,
    sep_rb_greedy,
    set_system_to_text,
    split_pairs,
    triangle_free_construct,
    xp_exact_small_class,
)
from rbsep.errors import (
    CertificationError,
    NotTriangleFree,
    NotTwinFree,
    TwinFreeUnreachable,
    Uncoverable,
    Unseparable,
)
from rbsep.exact import all_pairs_difference_masks, sep_rb_exact
from rbsep.generators import (
    gen_half_graph_complement,
    gen_random_tree,
    gen_random_twin_free,
    gen_spider,
)
from rbsep.graphs import (
    Coloring,
    Graph,
    certified,
    graph_profile,
    mask_of,
    verify_rb_separating,
    verify_separating,
    violation,
)
from rbsep.hitting import greedy_hitting_set
from test_graphs import graph_and_coloring


def test_reduce_monochromatic():
    sys_ = reduce_rb_to_set_cover(path_graph(4), Coloring(4, 0))
    assert sys_.universe_size == 0
    assert len(sys_.sets) == 4
    assert all(elems == () for _, elems in sys_.sets)


def test_reduce_p3_worked_example():
    # P3 with coloring (R, B, B): universe = [(0,1), (0,2)]; vertex 2 is in
    # N[1] and N[2] but not N[0], so its set covers both pairs; vertex 0 is
    # in N[0] and N[1] but not N[2], covering only (0,2); vertex 1 is in all
    # three closed neighborhoods, covering nothing.
    sys_ = reduce_rb_to_set_cover(path_graph(3), Coloring.from_string("RBB"))
    assert sys_.element_labels == ((0, 1), (0, 2))
    assert sys_.sets == ((0, (1,)), (1, ()), (2, (0, 1)))


def test_reduce_matches_pair_membership_oracle():
    rng = random.Random(9)
    done = 0
    while done < 120:
        n = rng.randint(1, 10)
        p = rng.choice((0.2, 0.4, 0.6))
        g = Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        )
        c = Coloring(n, rng.randrange(1 << n))
        try:
            sys_ = reduce_rb_to_set_cover(g, c)
        except Unseparable:
            continue
        labels, sets = brute_rb_set_system(g, c)
        assert (sys_.universe_size, sys_.element_labels, sys_.sets) == (len(labels), labels, sets)
        done += 1


def test_reduce_unseparable():
    with pytest.raises(Unseparable):
        reduce_rb_to_set_cover(Graph.from_edges(2, [(0, 1)]), Coloring.from_string("RB"))


def test_reduction_cover_bijection_small():
    rng = random.Random(5)
    done = 0
    while done < 40:
        n = rng.randint(2, 7)
        try:
            g = gen_random_twin_free(n, 0.4, rng.randrange(1 << 30), max_tries=20)
        except Exception:
            continue
        c = Coloring(n, rng.randrange(1 << n))
        try:
            sys_ = reduce_rb_to_set_cover(g, c)
        except Unseparable:
            continue
        cover_opt = brute_cover_optimum(sys_.universe_size, [e for _, e in sys_.sets])
        assert cover_opt == sep_rb_exact(g, c).optimum
        done += 1


def test_greedy_set_cover_empty_universe():
    rep = greedy_set_cover(SetSystem(0, (), ((0, ()),)))
    assert rep.solution == ()


def test_greedy_set_cover_tie_rule():
    sys_ = SetSystem(3, (0, 1, 2), ((0, (0, 1)), (1, (1, 2)), (2, (2,))))
    rep = greedy_set_cover(sys_)
    assert rep.solution == (0, 1)
    assert rep.guarantee == pytest.approx(math.log(3) + 1)


def test_greedy_set_cover_uncoverable():
    with pytest.raises(Uncoverable):
        greedy_set_cover(SetSystem(2, ("a", "b"), ((0, (0,)),)))


def test_greedy_hitting_set_raises_on_unhittable_element():
    assert greedy_hitting_set([0b011, 0b110], 0b111) == [0, 1]
    with pytest.raises(ValueError):
        greedy_hitting_set([0b011, 0b010], 0b111)


def test_split_pairs_matches_pair_enumeration():
    rng = random.Random(5)
    for n in range(9):
        pairs = list(combinations(range(n), 2))
        for x in range(1 << n):
            inside = {v for v in range(n) if x >> v & 1}
            expected = sum(
                1 << i for i, (u, w) in enumerate(pairs) if (u in inside) != (w in inside)
            )
            assert split_pairs(x, n) == expected
        # Bit i is the pair of all_pairs_difference_masks()[i].
        g = Graph.from_edges(n, [p for p in pairs if rng.random() < 0.4])
        diffs = all_pairs_difference_masks(g)
        for v in range(n):
            col = split_pairs(g.closed[v], n)
            assert [col >> i & 1 for i in range(len(pairs))] == [d >> v & 1 for d in diffs]


def test_greedy_routes_match_frozenset_reference():
    rng = random.Random(2)
    for n in range(2, 34):
        for _ in range(3):
            g = gen_random_twin_free(n, rng.choice([0.2, 0.3, 0.5]), rng.randrange(1 << 30))
            c = Coloring(n, rng.getrandbits(n))
            rb = sep_rb_greedy(g, c)
            rb_pairs = [(r, b) for r in c.red_vertices() for b in c.blue_vertices()]
            assert (rb.solution, rb.optimum_lower_bound) == reference_greedy(g, rb_pairs)
            assert rb.guarantee == max(1.0, 2 * math.log(n))
            ap = sep_all_pairs_greedy(g)
            all_pairs = list(combinations(range(n), 2))
            assert (ap.solution, ap.optimum_lower_bound) == reference_greedy(g, all_pairs)
            assert ap.guarantee == (2 * math.log(n) + 1) * max(1, (n - 1).bit_length())


def test_twin_pair_reported_in_each_solvers_pair_order():
    # 2K2: 0 and 2 are twins, so are 1 and 3; both pairs are red-blue.
    g = Graph.from_edges(4, [(0, 2), (1, 3)])
    c = Coloring.from_string("BRRB")
    with pytest.raises(Unseparable) as exc:
        sep_rb_greedy(g, c)
    assert exc.value.pair == (0, 2)
    with pytest.raises(Unseparable) as exc:
        sep_rb_exact(g, c)
    assert exc.value.pair == (0, 2)  # lexicographic over u < w


@st.composite
def graph_and_coloring_with_twins(draw):
    # Half the draws gain a closed twin of a drawn vertex, in a drawn color.
    g, c = draw(graph_and_coloring())
    if not draw(st.booleans()):
        return g, c
    v = draw(st.integers(min_value=0, max_value=g.n - 1))
    edges = g.edges() + [(u, g.n) for u in g.neighbors(v)] + [(v, g.n)]
    red = c.red_mask | draw(st.booleans()) << g.n
    return Graph.from_edges(g.n + 1, edges), Coloring(g.n + 1, red)


@settings(max_examples=150, deadline=None)
@given(graph_and_coloring_with_twins())
def test_rb_solvers_report_the_smallest_rb_twin_pair(gc):
    g, c = gc
    pair = brute_rb_twin_pair(g, c)
    for solve in (sep_rb_exact, sep_rb_greedy, reduce_rb_to_set_cover):
        if pair is None:
            solve(g, c)
            continue
        with pytest.raises(Unseparable) as exc:
            solve(g, c)
        assert exc.value.pair == pair


def test_twin_classes_runs_once_per_twin_check(monkeypatch):
    # Each twin check is one ``code_pairs`` pass under the full set (mask -1),
    # and twin classes are built only to report the twins of a graph that has
    # them, once.
    calls = []
    code_pairs = rbsep.graphs.code_pairs
    twin_classes = rbsep.graphs.twin_classes

    def counted_pairs(closed, smask):
        calls.append(smask)
        return code_pairs(closed, smask)

    def counted_classes(g):
        calls.append("classes")
        return twin_classes(g)

    monkeypatch.setattr(rbsep.graphs, "code_pairs", counted_pairs)
    monkeypatch.setattr(rbsep.graphs, "twin_classes", counted_classes)

    def count(fn, *args):
        calls.clear()
        try:
            fn(*args)
        except NotTwinFree:
            pass
        return calls.count(-1), calls.count("classes")

    g = gen_random_twin_free(12, 0.3, 7)
    c = Coloring.from_string("RBBRBBBRBBBB")
    assert max(map(g.degree, g.vertices())) >= 3
    assert count(bounded_degree_construct, g, c) == (1, 0)
    assert count(check_bounds, g) == (2, 0)  # its own check and maxsep_exact's
    assert count(sep_rb_exact, g, c) == (1, 0)
    assert count(sep_rb_greedy, g, c) == (1, 0)
    assert count(sep_all_pairs_greedy, cycle_graph(3)) == (1, 1)


def test_greedy_factor_on_k55():
    g = complete_bipartite(5, 5)
    c = Coloring.from_red(10, [0, 1, 2, 5, 6, 7])
    rep = sep_rb_greedy(g, c)
    assert verify_rb_separating(g, c, rep.solution) is None
    assert len(rep.solution) <= (math.log(25) + 1) * 4


def test_sep_rb_greedy_monochromatic():
    rep = sep_rb_greedy(path_graph(5), Coloring(5, 0))
    assert rep.solution == ()


def test_sep_all_pairs_greedy():
    rep = sep_all_pairs_greedy(path_graph(4))
    assert verify_separating(path_graph(4), rep.solution) is None
    rep5 = sep_all_pairs_greedy(path_graph(5))
    assert len(rep5.solution) <= (2 * math.log(5) + 1) * 3
    g, _ = gen_half_graph_complement(3)
    rep6 = sep_all_pairs_greedy(g)
    assert verify_separating(g, rep6.solution) is None
    assert len(rep6.solution) >= 5  # maxsep lower bound for this family
    with pytest.raises(NotTwinFree):
        sep_all_pairs_greedy(Graph.from_edges(2, [(0, 1)]))


@pytest.mark.parametrize("colors", ["RBRB", "RBRBRB"], ids=["short", "long"])
def test_red_blue_entry_points_check_coloring_length_first(monkeypatch, colors):
    def no_search(*args, **kwargs):
        raise AssertionError("the search ran before the coloring was checked")

    monkeypatch.setattr(rbsep.exact, "minimum_hitting_set", no_search)
    g, c = path_graph(5), Coloring.from_string(colors)
    for solve in (sep_rb_exact, sep_rb_greedy, reduce_rb_to_set_cover, xp_exact_small_class):
        with pytest.raises(ValueError, match="coloring size does not match graph order"):
            solve(g, c)


def test_all_pairs_greedy_restricted_to_colorings():
    rng = random.Random(6)
    g = gen_random_twin_free(7, 0.35, 3)
    rep = sep_all_pairs_greedy(g)
    for _ in range(10):
        c = Coloring(7, rng.randrange(1 << 7))
        assert verify_rb_separating(g, c, rep.solution) is None


def test_triangle_free_construct_single_red():
    # one red internal path vertex: itself plus two neighbors
    p5 = path_graph(5)
    c = Coloring.from_red(5, [2])
    rep = triangle_free_construct(p5, c)
    assert verify_rb_separating(p5, c, rep.solution) is None
    assert len(rep.solution) == 3
    assert rep.solution == (1, 2, 3)


def test_triangle_free_construct_monochromatic():
    assert triangle_free_construct(path_graph(5), Coloring(5, 0)).solution == ()


def test_triangle_free_rejects_triangles():
    with pytest.raises(NotTriangleFree):
        triangle_free_construct(cycle_graph(3), Coloring(3, 1))


def test_triangle_free_construct_random():
    rng = random.Random(8)
    done = 0
    while done < 60:
        n = rng.randint(4, 10)
        try:
            g = gen_random_twin_free(n, 0.25, rng.randrange(1 << 30), max_tries=20)
        except Exception:
            continue
        if not graph_profile(g).triangle_free:
            continue
        c = Coloring(n, rng.randrange(1 << n))
        rep = triangle_free_construct(g, c)
        assert verify_rb_separating(g, c, rep.solution) is None
        assert len(rep.solution) <= 3 * min(c.red_count, c.blue_count)
        done += 1


def test_bounded_degree_construct_dominating_neighbor_pattern():
    # red center with an adjacent dominating blue vertex 1 and separator 4:
    # the {v, w, z} kit covers everything because 4 touches every blue
    # neighbor of 0
    g = Graph.from_edges(
        5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4)]
    )
    c = Coloring.from_red(5, [0])
    rep = bounded_degree_construct(g, c)
    assert verify_rb_separating(g, c, rep.solution) is None
    assert rep.solution == (0, 1, 4)  # v, dominating w, separator z
    assert len(rep.solution) <= 3


def test_bounded_degree_construct_needs_max_degree_three():
    # P4's maximum degree is 2: the Delta * min(|R|, |B|) accounting needs 3.
    with pytest.raises(ValueError) as info:
        bounded_degree_construct(path_graph(4), Coloring.from_string("RBRB"))
    assert str(info.value) == "construction requires profile flag max_degree >= 3"


def test_bounded_degree_construct_known_gap_instance():
    # Adjacent-dominator shortcut alone fails here: with w = 1 the forced
    # separator of (0, 1) is 3, leaving blue 2 with the same code {0, 1} as
    # red 0. The construction must fall back to direct hits.
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])
    c = Coloring.from_string("RBBBB")
    rep = bounded_degree_construct(g, c)
    assert verify_rb_separating(g, c, rep.solution) is None
    assert len(rep.solution) <= 3  # Delta * min class = 3 * 1


def test_bounded_degree_construct_random():
    rng = random.Random(12)
    done = 0
    while done < 60:
        n = rng.randint(4, 10)
        try:
            g = gen_random_twin_free(n, 0.35, rng.randrange(1 << 30), max_tries=20)
        except Exception:
            continue
        prof = graph_profile(g)
        if not 3 <= prof.max_degree <= 5:
            continue
        c = Coloring(n, rng.randrange(1 << n))
        rep = bounded_degree_construct(g, c)
        assert verify_rb_separating(g, c, rep.solution) is None
        assert len(rep.solution) <= prof.max_degree * min(c.red_count, c.blue_count)
        done += 1


def test_xp_matches_exact():
    rng = random.Random(14)
    done = 0
    while done < 30:
        n = rng.randint(4, 10)
        try:
            g = gen_random_twin_free(n, 0.3, rng.randrange(1 << 30), max_tries=20)
        except Exception:
            continue
        reds = rng.sample(range(n), rng.randint(0, 2))
        c = Coloring.from_red(n, reds)
        try:
            rep = xp_exact_small_class(g, c)
        except NotTriangleFree:
            continue
        assert rep.optimum == sep_rb_exact(g, c).optimum
        assert rep.method == "branch-and-bound"
        done += 1


def test_xp_budget_and_min_class_zero():
    g = gen_random_twin_free(9, 0.4, 2)
    assert xp_exact_small_class(g, Coloring(9, 0)).optimum == 0


@pytest.mark.parametrize(
    "n, p, seed, reds", [(23, 0.15, 495026147, (20, 21)), (24, 0.3, 351385392, (14, 20))]
)
def test_xp_solves_sparse_instances_past_the_old_subset_count(n, p, seed, reds):
    # Counting every subset up to the bound, these took more than 5,000,000
    # nodes; the kernel under the same bound needs a few dozen.
    g = gen_random_twin_free(n, p, seed, max_tries=30)
    c = Coloring.from_red(n, reds)
    rep = xp_exact_small_class(g, c)
    exact = sep_rb_exact(g, c)
    assert (rep.optimum, rep.witness) == (exact.optimum, exact.witness)


def test_xp_failed_bound_is_a_defect(monkeypatch):
    # No solution within the constructive bound contradicts the paper's
    # constructions, so it is not a "no" answer.
    monkeypatch.setattr(
        "rbsep.exact.minimum_hitting_set", lambda masks, budget, stats, classes: None
    )
    with pytest.raises(CertificationError):
        xp_exact_small_class(path_graph(6), Coloring.from_string("RBBBBB"))


def test_set_system_text_round_trip():
    sys_ = SetSystem(3, (0, 1, 2), ((0, (0, 1)), (1, ()), (2, (2,))))
    text = set_system_to_text(sys_)
    assert text == "3 3\n0: 0 1\n1:\n2: 2\n" or text == "3 3\n0: 0 1\n1: \n2: 2\n"


def test_xp_witness_is_certified(monkeypatch):
    # With no masks every subset looks separating; the verifier must catch
    # the empty witness.
    monkeypatch.setattr("rbsep.exact.rb_difference_masks", lambda g, c: [])
    with pytest.raises(CertificationError):
        xp_exact_small_class(path_graph(6), Coloring.from_string("RBBBBB"))


def claim_violation(key, g, c, s):
    # The error ``graphs.certified`` raises on s under result key's claim,
    # as the routes and the recheck make it; None when s holds.
    _, _, kind, bounded = CLAIMS[key]
    try:
        certified(g, kind, mask_of(s), c, guarantee(key, g, c) if bounded else None)
    except CertificationError as exc:
        return exc
    return None


# Each route with its result key and whether it reads the coloring.
ROUTES = (
    (sep_rb_greedy, "greedy", True),
    (sep_all_pairs_greedy, "maxsep-approx", False),
    (triangle_free_construct, "triangle-free", True),
    (bounded_degree_construct, "bounded-degree", True),
)


def test_claim_violation_passes_each_routes_own_answer():
    # G(n, 0.3) and random trees with random colorings: whatever a route
    # returns holds its key's claim, guarantee included.
    answers = 0
    for n in range(2, 17):
        for seed in range(4):
            rng = random.Random(100 * n + seed)
            c = Coloring(n, rng.getrandbits(n))
            graphs = [gen_random_tree(n, seed)]
            try:
                graphs.append(gen_random_twin_free(n, 0.3, seed))
            except TwinFreeUnreachable:
                pass
            for g in graphs:
                for route, key, colored in ROUTES:
                    try:
                        rep = route(g, c) if colored else route(g)
                    except (NotTriangleFree, NotTwinFree, Unseparable, ValueError):
                        continue
                    assert claim_violation(key, g, c if colored else None, rep.solution) is None
                    answers += 1
    assert answers > 300


@pytest.mark.parametrize("key", ["triangle-free", "bounded-degree"])
def test_claim_violation_fails_a_valid_set_above_the_guarantee(key):
    # P10 with one red vertex (guarantee 3) and spider:k=3 with one red
    # vertex (Delta = 3, guarantee 3): every valid set past 3 vertices fails.
    if key == "triangle-free":
        g, c, s = path_graph(10), Coloring.from_string("BBBBRBBBBB"), range(1, 8)
    else:
        g, c, s = gen_spider(3)[0], Coloring.from_red(16, [0]), range(16)
    assert verify_rb_separating(g, c, s) is None
    assert claim_violation(key, g, c, list(s)) is not None
    small = (triangle_free_construct if key == "triangle-free" else bounded_degree_construct)(g, c).solution
    assert len(small) == 3 and claim_violation(key, g, c, small) is None


@pytest.mark.parametrize("key, s, pair", [
    *((key, [0], (2, 3)) for key in ("exact", "xp", "greedy", "triangle-free", "bounded-degree")),
    ("maxsep-approx", [1, 3], (0, 1)),
])
def test_claim_violation_fails_a_set_that_does_not_separate(key, s, pair):
    # On P5 with vertex 2 red, {0} leaves red 2 and blue 3 the same empty
    # code; under {1, 3} vertices 0 and 1 share the code {1}.
    g, c = path_graph(5), Coloring.from_red(5, [2])
    assert violation(g, CLAIMS[key][2], s, c) == pair
    assert str(claim_violation(key, g, c, s)) == f"certification failed: {pair}"


@pytest.mark.parametrize("route, key, colored", ROUTES, ids=[key for _, key, _ in ROUTES])
def test_each_route_certifies_through_claim_violation(monkeypatch, route, key, colored):
    # The routes' one exit certifies with the same check the recheck uses:
    # ``graphs.certified`` under the key's kind, and for the constructions
    # the guarantee as the promised size.
    seen = []

    def refuse(g, kind, mask, c=None, most=None):
        seen.append((kind, most))
        raise CertificationError("refused")

    monkeypatch.setattr("rbsep.approx.certified", refuse)
    g = gen_spider(3)[0]
    c = Coloring.from_red(g.n, [0])
    with pytest.raises(CertificationError, match="refused"):
        route(g, c) if colored else route(g)
    _, _, kind, bounded = CLAIMS[key]
    assert seen == [(kind, 3.0 if bounded else None)]  # 3 * 1 = Delta * 1 with one red vertex
