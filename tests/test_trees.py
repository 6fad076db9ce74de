import random

import pytest

from conftest import cycle_graph, path_graph, star_graph
from rbsep.errors import NotATree, WrongClassSize, XIsLeaf
from rbsep.exact import maxsep_exact
from rbsep.generators import gen_random_tree, gen_spider
from rbsep.graphs import Coloring, Graph, verify_rb_separating, verify_separating
from rbsep.trees import (
    ns3_vertices,
    parity_sets,
    single_red_sep,
    tree_all_pairs_construct,
    tree_profile,
    tree_rb_construct,
)


def test_tree_profile_examples():
    p6 = tree_profile(path_graph(6))
    assert p6.leaves == (0, 5)
    assert p6.supports == (1, 4)
    assert p6.s_class(1) == (1, 4)
    assert p6.s_plus == ()

    star = tree_profile(star_graph(5))
    assert star.leaf_count == 4
    assert star.supports == (0,)
    assert star.s_class(4) == (0,)

    spider2 = tree_profile(gen_spider(2)[0])
    assert spider2.support_count == 2
    assert spider2.leaf_count == 2


def test_tree_profile_rejects_non_trees():
    with pytest.raises(NotATree):
        tree_profile(Graph.from_edges(3, [(0, 1)]))  # disconnected
    with pytest.raises(NotATree):
        tree_profile(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))  # cycle


@pytest.mark.parametrize(
    "construct",
    [
        lambda t: parity_sets(t, 0),
        lambda t: tree_rb_construct(t, Coloring(t.n, 1)),
        tree_all_pairs_construct,
    ],
    ids=["parity_sets", "tree_rb_construct", "tree_all_pairs_construct"],
)
def test_constructions_reject_non_trees(construct):
    with pytest.raises(NotATree):
        construct(cycle_graph(6))
    with pytest.raises(NotATree):
        construct(Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]))  # forest


def test_single_red_sep_examples():
    p5 = path_graph(5)
    s = single_red_sep(p5, Coloring.from_red(5, [2]))
    assert s == (1, 3)  # two neighbors of the internal red vertex
    p3 = path_graph(3)
    assert single_red_sep(p3, Coloring.from_red(3, [0])) == (0, 2)
    with pytest.raises(WrongClassSize):
        single_red_sep(p5, Coloring.from_red(5, [0, 1]))


def test_single_red_sep_random():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(3, 30)
        t = gen_random_tree(n, rng.randrange(1 << 30))
        v = rng.randrange(n)
        c = Coloring(n, 1 << v)
        if rng.random() < 0.5:
            c = c.swapped()
        s = single_red_sep(t, c)
        assert len(s) <= 2
        assert verify_rb_separating(t, c, s) is None


def test_parity_sets_p6():
    c1, c2 = parity_sets(path_graph(6), 2)
    assert verify_separating(path_graph(6), c1) is None
    assert verify_separating(path_graph(6), c2) is None


def test_parity_sets_rejects_leaf_root():
    with pytest.raises(XIsLeaf):
        parity_sets(path_graph(6), 0)


def test_parity_sets_random_sweep():
    rng = random.Random(1)
    for _ in range(120):
        n = rng.randint(5, 60)
        t = gen_random_tree(n, rng.randrange(1 << 30))
        leaves = set(tree_profile(t).leaves)
        for x in range(t.n):
            if x in leaves:
                continue
            c1, c2 = parity_sets(t, x)
            assert verify_separating(t, c1) is None
            assert verify_separating(t, c2) is None


def test_tree_rb_construct_p8_tightness():
    p8 = path_graph(8)
    worst = maxsep_exact(p8).worst_coloring
    s = tree_rb_construct(p8, worst)
    assert verify_rb_separating(p8, worst, s) is None
    assert len(s) <= (8 + 2) / 2
    assert maxsep_exact(p8).value == 5  # the (n + s)/2 bound is tight on P8


def test_tree_rb_construct_monochromatic():
    t = gen_random_tree(9, 3)
    s = tree_rb_construct(t, Coloring(9, 0))
    prof = tree_profile(t)
    assert 2 * len(s) <= t.n + prof.support_count
    assert verify_rb_separating(t, Coloring(9, 0), s) is None


def test_tree_rb_construct_random_with_accounting():
    rng = random.Random(2)
    for _ in range(150):
        n = rng.randint(5, 24)
        t = gen_random_tree(n, rng.randrange(1 << 30))
        prof = tree_profile(t)
        ns3 = ns3_vertices(t, prof)
        l1 = prof.l_class(1)
        lp = prof.l_plus
        sp = prof.s_plus
        for _ in range(4):
            c = Coloring(n, rng.randrange(1 << n))
            s = tree_rb_construct(t, c)
            assert verify_rb_separating(t, c, s) is None
            chain = (
                (n - prof.leaf_count - len(sp) - len(ns3)) / 2
                + len(l1)
                + (len(lp) + len(ns3)) / 2
                + len(sp)
            )
            assert len(s) <= chain + 1e-9
            assert 2 * len(s) <= n + prof.support_count


def test_ns3_skips_a_three_leaf_support_next_to_a_multi_leaf_support():
    # u = 0 has leaves 1, 2, 3 and neighbor w = 4 with leaves 5, 6: w is in
    # S_+, so u takes no internal cover vertex.
    t = Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (4, 6)])
    prof = tree_profile(t)
    assert prof.s_class(3) == (0,) and 4 in prof.s_plus
    assert ns3_vertices(t, prof) == ()
    for red in range(1 << t.n):
        c = Coloring(t.n, red)
        s = tree_rb_construct(t, c)
        assert verify_rb_separating(t, c, s) is None
        assert 2 * len(s) <= t.n + prof.support_count


def test_tree_rb_construct_stars():
    rng = random.Random(5)
    for n in (5, 7, 10):
        star = star_graph(n)
        for _ in range(12):
            c = Coloring(n, rng.randrange(1 << n))
            s = tree_rb_construct(star, c)
            assert verify_rb_separating(star, c, s) is None
            assert 2 * len(s) <= n + 1


def test_tree_all_pairs_construct_examples():
    for n, expected in ((5, 3), (6, 4)):
        s = tree_all_pairs_construct(path_graph(n))
        assert len(s) == expected
        assert verify_separating(path_graph(n), s) is None
    spider = gen_spider(2)[0]
    s = tree_all_pairs_construct(spider)
    assert len(s) == 9  # n - s = 11 - 2
    assert verify_separating(spider, s) is None


def test_tree_all_pairs_construct_random():
    rng = random.Random(6)
    for _ in range(120):
        n = rng.randint(5, 60)
        t = gen_random_tree(n, rng.randrange(1 << 30))
        prof = tree_profile(t)
        s = tree_all_pairs_construct(t)
        assert len(s) == n - prof.support_count
        assert verify_separating(t, s) is None


def test_maxsep_within_tree_bounds():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(5, 12)
        t = gen_random_tree(n, rng.randrange(1 << 30))
        prof = tree_profile(t)
        value = maxsep_exact(t).value
        assert value <= min(n - prof.support_count, (n + prof.support_count) / 2)
        assert value <= 2 * n / 3


def test_tree_rb_construct_four_leaf_top_up():
    # Support 0 has four leaves; the colorings where dropping its majority
    # leaves fewer than two of its neighbours chosen re-add leaves of 0.
    t = Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (5, 6), (6, 7)])
    prof = tree_profile(t)
    for mask in range(1 << t.n):
        c = Coloring(t.n, mask)
        s = tree_rb_construct(t, c)
        assert verify_rb_separating(t, c, s) is None
        assert 2 * len(s) <= t.n + prof.support_count


# (n, tree seed, coloring, tree_rb_construct, tree_all_pairs_construct, then
# parity_sets C1 and C2 rooted at the lowest non-leaf), from gen_random_tree.
PINNED_TREES = [
    (
        34, 999975904, "RBBRRRRBRRBRBRRBRBRRRBBRBBBBRRBBRB",
        "1 3 6 8 9 11 15 16 17 19 20 21 22 23 24 25 26 27 28 29 31 32",
        "1 4 5 7 8 10 11 13 14 15 16 19 21 24 25 27 28 29 30 31 32",
        "0 1 2 3 4 5 7 8 10 11 12 13 14 15 18 19 21 24 29 30 31 32 33",
        "1 3 6 8 9 10 11 15 16 17 19 20 21 22 23 24 25 26 27 28 31 32",
    ),
    (
        38, 1021693763, "RRBBRBRBBBBRBBBRBBBBBBBBRRBRBBRRRRRBRB",
        "0 1 3 4 5 7 9 10 11 12 14 17 18 20 22 25 27 30 31 35 36 37",
        "0 3 4 5 7 10 11 13 14 15 17 18 19 20 22 23 24 27 28 30 31 32 33 34 35 36 37",
        "1 2 3 4 7 9 10 11 12 14 17 18 20 21 22 23 25 27 28 30 31 34 35 36 37",
        "0 1 2 4 5 6 7 8 10 13 14 15 16 18 19 21 23 24 26 27 28 29 32 33 34 37",
    ),
    (
        12, 959051491, "RBRBRRBRRBBR",
        "0 2 3 4 6 7 9 11",
        "2 3 4 5 7 9 10",
        "1 2 4 5 8 9 10",
        "0 2 3 4 6 7 9 11",
    ),
    (
        15, 194713490, "BBBRRRBRBRBRBBB",
        "1 2 4 7 8 10 11 12 14",
        "0 2 4 5 6 8 9 11 12 13 14",
        "1 2 3 4 7 8 10 11 12",
        "0 3 5 6 8 9 11 12 13 14",
    ),
    (
        31, 972799061, "RRRBBRRBBBBRBBBRRBBBRBRBBBBRBRB",
        "0 1 2 3 5 6 7 8 11 15 18 23 25 26 27 28 29 30",
        "0 1 2 3 6 8 10 12 15 16 19 21 22 23 24 25 26 27 28 29 30",
        "1 3 4 6 9 10 12 13 14 15 16 17 19 20 21 22 24 25 26 28 29",
        "0 1 2 3 5 6 7 8 9 10 11 15 18 23 25 26 27 28 29 30",
    ),
    (
        6, 135645637, "RRRBBB",
        "1 2 3 5",
        "0 1 4 5",
        "1 2 3 4",
        "0 1 3 4 5",
    ),
    (
        8, 408469125, "RRBRRRRB",
        "1 2 3 4 6",
        "1 2 3 4 5 6",
        "0 2 3 4 5 6",
        "0 1 4 5 7",
    ),
    (
        7, 996291671, "RRBBRBR",
        "2 3 5 6",
        "0 3 4 5 6",
        "1 2 3 4 6",
        "0 1 3 4 5 6",
    ),
    (
        34, 419449461, "BBBBBRRBRBBBRBRBRBRBBRRRBBRBBBBRRB",
        "0 1 2 3 4 5 8 11 12 14 15 18 19 20 22 24 25 27 28 29 31",
        "0 1 3 5 6 8 11 12 13 16 17 18 19 20 22 23 24 25 26 28 31 33",
        "0 2 3 6 7 9 10 12 13 16 17 18 19 20 21 22 23 24 25 26 28 30 31 32 33",
        "0 1 2 3 4 5 6 7 8 11 12 13 14 15 16 17 18 19 22 25 27 28 29 31",
    ),
    (
        24, 1073254676, "RBRRRBBBBRBRRBRBBRBBBBBB",
        "0 1 2 3 4 5 7 10 13 14 15 17 18 19 22",
        "2 3 4 8 9 10 11 12 14 16 17 18 19 20 21",
        "0 1 2 3 4 5 7 10 13 14 15 17 18 19 22",
        "2 3 4 6 8 9 10 11 12 14 16 17 18 20 21 23",
    ),
]


@pytest.mark.parametrize("n, seed, coloring, rb, all_pairs, c1, c2", PINNED_TREES)
def test_tree_constructions_are_pinned(n, seed, coloring, rb, all_pairs, c1, c2):
    t = gen_random_tree(n, seed)
    x = next(v for v in range(n) if t.degree(v) > 1)
    assert _spaced(tree_rb_construct(t, Coloring.from_string(coloring))) == rb
    assert _spaced(tree_all_pairs_construct(t)) == all_pairs
    assert tuple(map(_spaced, parity_sets(t, x))) == (c1, c2)


def _spaced(s: tuple[int, ...]) -> str:
    return " ".join(map(str, s))
