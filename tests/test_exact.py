import os
import random
import subprocess
import sys
import textwrap
from itertools import combinations
from pathlib import Path

import pytest

from conftest import (
    brute_maxsep,
    brute_maxsep_sweep,
    brute_min_hitting_set,
    brute_min_dom,
    brute_rb_twin_pair,
    brute_min_rb_sep,
    brute_min_sep,
    cached_sweep_universes,
    closed_neighborhood,
    complete_bipartite,
    cycle_graph,
    is_rb_separating,
    is_separating,
    path_graph,
    searched_down_hitting_set,
)
import rbsep
from rbsep.errors import (
    CapExceeded,
    CertificationError,
    Infeasible,
    NotTwinFree,
    RBSepError,
    SearchTooDeep,
    Unseparable,
)
from rbsep.exact import (
    _gray_blocks,
    all_pairs_difference_masks,
    bondy_remove,
    gamma_exact,
    maxsep_exact,
    sep_exact,
    sep_exact_allow_twins,
    sep_rb_exact,
)
from rbsep.generators import (
    GeneratorSpec, build_from_spec, gen_half_graph_complement, gen_random_tree, gen_random_twin_free
)
from rbsep.graphs import (
    Coloring,
    Graph,
    bits_of,
    verify_rb_separating,
    verify_separating,
)
from rbsep.hitting import (
    by_size, columns, greedy_hitting_set, hitting_set_within, minimum_hitting_set
)


def test_sep_rb_exact_p6_single_separator_coloring():
    p6 = path_graph(6)
    # red class = N[1]: a single vertex then distinguishes red from blue
    rep = sep_rb_exact(p6, Coloring.from_string("RRRBBB"))
    assert rep.optimum == 1
    assert verify_rb_separating(p6, Coloring.from_string("RRRBBB"), rep.witness) is None


def test_sep_rb_exact_monochromatic():
    g = cycle_graph(5)
    rep = sep_rb_exact(g, Coloring(5, 0))
    assert rep.optimum == 0 and rep.witness == ()


def test_sep_rb_exact_k55_near_balanced():
    g = complete_bipartite(5, 5)
    c = Coloring.from_red(10, [0, 1, 2, 5, 6, 7])  # 3 red + 2 blue per part
    rep = sep_rb_exact(g, c)
    assert rep.optimum == 4  # (n - t) / 2


def test_sep_rb_exact_unseparable():
    k2 = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(Unseparable) as exc:
        sep_rb_exact(k2, Coloring.from_string("RB"))
    assert exc.value.pair == (0, 1)


def test_sep_rb_exact_budget_decision_form():
    p6 = path_graph(6)
    worst = maxsep_exact(p6).worst_coloring
    assert sep_rb_exact(p6, worst, budget=3).optimum == 3
    with pytest.raises(Infeasible):
        sep_rb_exact(p6, worst, budget=2)


def test_sep_exact_values():
    rep = sep_exact(path_graph(5))
    assert rep.optimum == 3
    assert verify_separating(path_graph(5), rep.witness) is None
    # complement half-graph k=2 is P4: sep = n - 1 = 3
    g, _ = gen_half_graph_complement(2)
    assert sep_exact(g).optimum == 3


def test_sep_exact_requires_twin_free():
    k2 = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(NotTwinFree):
        sep_exact(k2)
    # the twins-allowed variant simply exempts the twin pair
    assert sep_exact_allow_twins(k2).optimum == 0


def test_sep_allow_twins_complete_multipartite():
    g = complete_bipartite(5, 5)
    assert sep_exact_allow_twins(g).optimum == 8  # n - t
    assert sep_exact(g).optimum == 8  # K_{5,5} is closed-twin-free anyway


@pytest.mark.parametrize(
    "solve",
    [
        lambda g: sep_rb_exact(g, Coloring.from_string("RBRB")),
        sep_exact,
        sep_exact_allow_twins,
        gamma_exact,
    ],
    ids=["sep_rb_exact", "sep_exact", "sep_exact_allow_twins", "gamma_exact"],
)
def test_every_exact_solver_certifies_its_witness(monkeypatch, solve):
    # Every exact solver leaves through the one certifying exit.
    monkeypatch.setattr(
        rbsep.exact, "minimum_hitting_set", lambda masks, budget=None, stats=None, classes=0: 0
    )
    with pytest.raises(CertificationError):
        solve(path_graph(4))


def test_gamma_exact_values():
    assert gamma_exact(path_graph(3)).optimum == 1
    assert gamma_exact(path_graph(6)).optimum == 2
    assert gamma_exact(complete_bipartite(5, 5)).optimum == 2


def test_gamma_too_deep_raises_search_too_deep():
    # gamma of an edgeless graph is its order: the greedy's set, which the
    # packing bound proves optimal at the root, with no recursion.
    report = gamma_exact(Graph.from_edges(1100, []))
    assert (report.optimum, report.witness, report.nodes_explored) == (1100, tuple(range(1100)), 1)
    # 60 disjoint 5-cycles: gamma = 120 and the greedy finds 120, but no two
    # closed neighbourhoods of a 5-cycle are disjoint, so the root packing is
    # 60. The search for 119 recurses once per chosen vertex, deeper than
    # the lowered limit; the error claims only what was proven.
    g = Graph.from_edges(300, [(5 * c + i, 5 * c + (i + 1) % 5) for c in range(60) for i in range(5)])
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        with pytest.raises(SearchTooDeep) as info:
            gamma_exact(g)
    finally:
        sys.setrecursionlimit(limit)
    assert isinstance(info.value, RBSepError)
    assert (info.value.lower, info.value.upper) == (60, 120)
    assert "between 60 and 120" in str(info.value)


def test_gamma_matches_brute_force():
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(1, 7)
        g = Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        )
        assert gamma_exact(g).optimum == brute_min_dom(g)


def test_maxsep_exact_p6():
    rep = maxsep_exact(path_graph(6))
    assert rep.value == 3
    assert rep.per_coloring_count == 32
    assert sep_rb_exact(path_graph(6), rep.worst_coloring).optimum == 3


def test_maxsep_matches_double_brute_force():
    rng = random.Random(9)
    done = 0
    while done < 12:
        n = rng.randint(2, 5)
        try:
            g = gen_random_twin_free(n, 0.5, rng.randrange(1 << 30), max_tries=20)
        except Exception:
            continue
        assert maxsep_exact(g).value == brute_maxsep(g)
        done += 1


@pytest.mark.parametrize("seed", range(28))
def test_maxsep_matches_the_sweep_oracle(seed):
    # The witness cache skips colorings; value and worst coloring must be
    # those of a sweep that skips none. n = 3..9, trees and G(n, 0.4).
    n = 3 + seed % 7
    g = gen_random_tree(n, seed) if seed % 2 else gen_random_twin_free(n, 0.4, seed)
    report = maxsep_exact(g)
    value, worst = brute_maxsep_sweep(g)
    assert (report.value, report.worst_coloring) == (value, worst)


def _solved_universes(monkeypatch, g: Graph) -> tuple[rbsep.MaxSepReport, list[int]]:
    # Per solved coloring, the ``rest`` of its first decision (the climb
    # repeats it), then the universe of its padding greedy run, if any.
    calls = []
    decided = [None]

    def deciding(kernel, rest, limit, stats):
        if rest != decided[0]:
            decided[0] = rest
            calls.append(rest)
        return hitting_set_within(kernel, rest, limit, stats)

    def padding(cols, universe):
        calls.append(universe)
        return greedy_hitting_set(cols, universe)

    monkeypatch.setattr(rbsep.exact, "hitting_set_within", deciding)
    monkeypatch.setattr(rbsep.exact, "greedy_hitting_set", padding)
    return maxsep_exact(g), calls


# Colorings solved per graph below; the sweep has 2048.
_SWEEP_SOLVES = (24, 22, 1, 17, 16, 28, 16, 17)


@pytest.mark.parametrize("seed", range(8))
def test_maxsep_cache_skips_most_greedy_runs(monkeypatch, seed):
    # Counts the colorings the sweep solves, each one a cached set: at most
    # one in eight, and exactly the pinned count, 141 over the 8 graphs, so
    # a weaker cache or padding fails. Each solve makes exactly one
    # ``code_pairs`` pass. n = 12, trees and twin-free G(12, 0.3).
    g = gen_random_twin_free(12, 0.3, seed) if seed % 2 else gen_random_tree(12, seed)
    cached, solved = [], []
    decide, code_pairs = rbsep.exact.hitting_set_within, rbsep.exact.code_pairs

    def deciding(kernel, rest, limit, stats):
        if not solved or rest != solved[-1]:  # the climb repeats a solve's rest
            solved.append(rest)
        return decide(kernel, rest, limit, stats)

    def recording(closed, smask):
        cached.append(smask)
        return code_pairs(closed, smask)

    monkeypatch.setattr(rbsep.exact, "hitting_set_within", deciding)
    monkeypatch.setattr(rbsep.exact, "code_pairs", recording)
    assert maxsep_exact(g).per_coloring_count == 2048
    assert len(cached) <= 2048 // 8
    assert len(cached) == len(solved) == _SWEEP_SOLVES[seed]


@pytest.mark.parametrize("block_bits", [16, 1, 2, 3])
@pytest.mark.parametrize("seed", range(20))
def test_maxsep_solves_the_colorings_of_the_cached_sweep(monkeypatch, seed, block_bits):
    # The block sweep must solve the colorings of the one-at-a-time cached
    # sweep, in its order, and pad over the same universes; small blocks run
    # the multi-block path. n = 3..12, trees and twin-free G(n, 0.3).
    monkeypatch.setattr(rbsep.exact, "_BLOCK_BITS", block_bits)
    n = 3 + seed // 2
    g = gen_random_tree(n, seed) if seed % 2 else gen_random_twin_free(n, 0.3, seed)
    assert _solved_universes(monkeypatch, g)[1] == cached_sweep_universes(g)


@pytest.mark.parametrize("seed", range(12))
def test_maxsep_caches_sets_within_the_incumbent(monkeypatch, seed):
    # Every cached set has the incumbent's size when it is cached, unless it
    # already splits every pair; the incumbent is the largest brute-force
    # optimum over the colorings solved so far. Each coloring is read back
    # from the first decision's ``rest`` after the last cached set: its red
    # vertices w are those whose pair (0, w) is red-blue. n = 3..8, trees and
    # twin-free G(n, 0.3).
    n = 3 + seed // 2
    g = gen_random_tree(n, seed) if seed % 2 else gen_random_twin_free(n, 0.3, seed)
    pairs = sorted(
        combinations(range(n), 2), key=lambda p: by_size(g.closed[p[0]] ^ g.closed[p[1]])
    )
    events: list = []
    decide, code_pairs = rbsep.exact.hitting_set_within, rbsep.exact.code_pairs

    def recording_decision(kernel, rest, limit, stats):
        events.append(rest)
        return decide(kernel, rest, limit, stats)

    def recording_pairs(closed, smask):
        events.append(bits_of(smask))
        return code_pairs(closed, smask)

    monkeypatch.setattr(rbsep.exact, "hitting_set_within", recording_decision)
    monkeypatch.setattr(rbsep.exact, "code_pairs", recording_pairs)
    report = maxsep_exact(g)
    incumbent, active = 0, None
    for event in events:
        if isinstance(event, int):
            active = event if active is None else active
            continue
        red = sum(1 << w for i, (u, w) in enumerate(pairs) if u == 0 and active >> i & 1)
        c = Coloring(n, red)
        incumbent = max(incumbent, brute_min_rb_sep(g, c)[0])
        assert is_rb_separating(g, c, event)
        assert len(event) == incumbent or len(event) < incumbent and is_separating(g, event)
        active = None
    assert incumbent == report.value


@pytest.mark.parametrize("spec", [
    *(f"half-complement:k={k}" for k in (1, 2, 3)),
    *(f"power-set:k={k}" for k in (1, 2, 3)),
    "spider:k=1",
])
def test_maxsep_matches_the_sweep_oracle_on_the_families(spec):
    # The maxsep rows of ``rbsep experiment --suite families`` of at most 8
    # vertices; the larger ones take the oracle seconds.
    g, _ = build_from_spec(GeneratorSpec.parse(spec))
    report = maxsep_exact(g)
    assert (report.value, report.worst_coloring) == brute_maxsep_sweep(g)


@pytest.mark.parametrize("n", range(1, 12))
def test_gray_blocks_match_the_reflected_code(n):
    for b in range(n):
        blocks = list(_gray_blocks(n, b))
        assert len(blocks) == 1 << (n - 1 - b)
        for t, reds in enumerate(blocks):
            assert len(reds) == n and reds[0] == 0
            for r in range(1 << b):
                step = t << b | r
                red = (step ^ step >> 1) << 1
                assert [w >> r & 1 for w in reds] == [red >> w & 1 for w in range(n)]


def test_maxsep_block_bitsets_stay_within_2_16_bits(monkeypatch):
    widths = []

    def recording(n, b):
        for reds in _gray_blocks(n, b):
            widths.append(max(w.bit_length() for w in reds))
            yield reds

    monkeypatch.setattr(rbsep.exact, "_gray_blocks", recording)
    maxsep_exact(gen_random_tree(18, 0), n_cap=18)
    assert len(widths) == 2 and max(widths) <= 1 << 16


@pytest.mark.parametrize(
    "seed, value, worst",
    [(0, 7, "BBRRRRRRRBBBBBBB"), (1, 8, "BRRBBRRBBRRBBBBB"), (2, 8, "BRRRBRRRBRBRBBBR")],
)
def test_maxsep_16_vertex_trees_are_pinned(seed, value, worst):
    report = maxsep_exact(gen_random_tree(16, seed), n_cap=16)
    assert (report.value, report.worst_coloring.to_string()) == (value, worst)


def test_maxsep_cap():
    with pytest.raises(CapExceeded):
        maxsep_exact(path_graph(16), n_cap=14)


def test_maxsep_requires_twin_free():
    with pytest.raises(NotTwinFree):
        maxsep_exact(Graph.from_edges(2, [(0, 1)]))


def test_sep_rb_swap_symmetry():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(2, 7)
        try:
            g = gen_random_twin_free(n, 0.45, rng.randrange(1 << 30), max_tries=20)
        except Exception:
            continue
        c = Coloring(n, rng.randrange(1 << n))
        assert sep_rb_exact(g, c).optimum == sep_rb_exact(g, c.swapped()).optimum


def test_witness_minimality_small():
    # no witness of size optimum - 1 exists (checked by the brute oracle)
    rng = random.Random(21)
    for _ in range(15):
        n = rng.randint(3, 7)
        try:
            g = gen_random_twin_free(n, 0.4, rng.randrange(1 << 30), max_tries=20)
        except Exception:
            continue
        c = Coloring(n, rng.randrange(1 << n))
        rep = sep_rb_exact(g, c)
        brute_opt, _ = brute_min_rb_sep(g, c)
        assert rep.optimum == brute_opt
        assert verify_rb_separating(g, c, rep.witness) is None


def test_sep_exact_matches_brute():
    rng = random.Random(31)
    done = 0
    while done < 10:
        n = rng.randint(2, 6)
        try:
            g = gen_random_twin_free(n, 0.5, rng.randrange(1 << 30), max_tries=20)
        except Exception:
            continue
        assert sep_exact(g).optimum == brute_min_sep(g)[0]
        done += 1


def _with_twins(rng: random.Random, n: int, k: int) -> Graph:
    # G(k, 0.4), then vertices k..n-1, each a true twin of an earlier vertex.
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in combinations(range(k), 2):
        if rng.random() < 0.4:
            adj[u].add(v)
            adj[v].add(u)
    for m in range(k, n):
        src = rng.randrange(m)
        for u in adj[src] | {src}:
            adj[u].add(m)
            adj[m].add(u)
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


def _twin_quotient(g: Graph) -> Graph:
    # One vertex per twin class. N[a] ^ N[b] is a union of whole twin
    # classes, so the quotient is twin-free; twins have equal columns, so its
    # sep is the twins-exempt optimum of g.
    first: dict[int, int] = {}
    for v, nbhd in enumerate(g.closed):
        first.setdefault(nbhd, v)
    reps = sorted(first.values())
    return Graph.from_edges(
        len(reps),
        [(i, j) for (i, u), (j, v) in combinations(enumerate(reps), 2) if g.closed[u] >> v & 1],
    )


def test_sep_allow_twins_matches_brute_on_graphs_with_twins():
    # The class bound counts twin classes; the witness is still the set a
    # search down from the greedy's set finds with no bound and no exclusion.
    rng = random.Random(41)
    for _ in range(80):
        n = rng.randint(2, 9)
        g = _with_twins(rng, n, rng.randint(1, n - 1))
        report = sep_exact_allow_twins(g)
        assert report.optimum == brute_min_sep(_twin_quotient(g))[0]
        masks = sorted({d for d in all_pairs_difference_masks(g) if d}, key=by_size)
        expected = searched_down_hitting_set([frozenset(bits_of(m)) for m in masks])
        assert frozenset(report.witness) == expected


def test_sep_allow_twins_bounds_by_twin_classes():
    # Each distinct unhit mask is a pair of twin classes, so the class bound
    # may count classes rather than vertices, and then prunes more. It acts
    # in the refutations, measured here at every budget below the optimum.
    rng = random.Random(43)
    fewer = 0
    for _ in range(6):
        g = _with_twins(rng, 16, rng.randint(8, 14))
        masks = [d for d in all_pairs_difference_masks(g) if d]
        report = sep_exact_allow_twins(g)
        assert report.witness == bits_of(minimum_hitting_set(masks, classes=g.n))
        nodes = {}
        for classes in (g.n, len(set(g.closed))):
            stats = [0]
            for budget in range(report.optimum):
                assert minimum_hitting_set(masks, budget, stats, classes) is None
            nodes[classes] = stats[0]
        assert nodes[len(set(g.closed))] <= nodes[g.n]
        fewer += nodes[len(set(g.closed))] < nodes[g.n]
    assert fewer >= 3


def _graph_with_twins(rng: random.Random) -> Graph:
    # At most 9 vertices: G(k, 0.4) and true twins, or a twin-free G(n, p).
    n = rng.randint(1, 9)
    if rng.random() < 0.5:
        return _with_twins(rng, n, rng.randint(1, n))
    return Graph.from_edges(
        n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.4]
    )


def test_exact_optima_match_the_brute_force_oracles():
    # Searching down from the greedy's set keeps every optimum: red-blue,
    # twins-exempt sep and gamma against enumeration, twins included.
    rng = random.Random(44)
    for _ in range(120):
        g = _graph_with_twins(rng)
        c = Coloring(g.n, rng.getrandbits(g.n))
        assert gamma_exact(g).optimum == brute_min_dom(g)
        assert sep_exact_allow_twins(g).optimum == brute_min_sep(_twin_quotient(g))[0]
        if brute_rb_twin_pair(g, c) is None:
            assert sep_rb_exact(g, c).optimum == brute_min_rb_sep(g, c)[0]
        else:
            with pytest.raises(Unseparable):
                sep_rb_exact(g, c)


def test_budget_decides_at_the_optimum_and_the_greedy_size():
    # For each budget in {opt - 1, opt, greedy - 1, greedy}: None iff the
    # budget is below the optimum, else a hitting set within the budget.
    rng = random.Random(45)
    for _ in range(120):
        g = _graph_with_twins(rng)
        c = Coloring(g.n, rng.getrandbits(g.n))
        for masks in (
            [d for d in all_pairs_difference_masks(g) if d],
            list(g.closed),
            [] if brute_rb_twin_pair(g, c) else rbsep.exact.rb_difference_masks(g, c),
        ):
            distinct = sorted(set(masks), key=by_size)
            rest = (1 << len(distinct)) - 1
            greedy = len(greedy_hitting_set(columns(distinct, g.n), rest))
            opt = brute_min_hitting_set(frozenset(bits_of(m)) for m in distinct)
            for budget in (opt - 1, opt, greedy - 1, greedy):
                found = minimum_hitting_set(masks, budget)
                assert (found is None) == (budget < opt)
                if found is not None:
                    assert found.bit_count() <= budget and all(m & found for m in masks)


def test_bondy_remove_examples():
    assert bondy_remove([[0], [0, 1]]) == 0
    p4 = path_graph(4)
    fam = [closed_neighborhood(p4, v) for v in range(4)]
    x = bondy_remove(fam)
    traces = [frozenset(s) - {x} for s in fam]
    assert len(set(traces)) == 4
    g, _ = gen_half_graph_complement(2)
    x = bondy_remove([closed_neighborhood(g, v) for v in range(g.n)])
    assert verify_separating(g, [v for v in range(g.n) if v != x]) is None


def test_bondy_remove_try_all_oracle():
    # independent oracle: try every element, recheck trace distinctness
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(2, 9)
        t = gen_random_tree(n, rng.randrange(1 << 30))
        if not twin_free(t):
            continue
        fam = [closed_neighborhood(t, v) for v in range(n)]
        x = bondy_remove(fam)
        valid = {
            y
            for y in range(n)
            if len({frozenset(s) - {y} for s in fam}) == n
        }
        assert x in valid
        assert x == min(valid)


def twin_free(g: Graph) -> bool:
    from rbsep.graphs import twin_classes

    return twin_classes(g).is_twin_free


def test_bondy_rejects_duplicates():
    from rbsep.errors import NoDistinctFamily

    with pytest.raises(NoDistinctFamily):
        bondy_remove([[0], [0]])


def test_report_fields():
    rep = sep_rb_exact(path_graph(4), Coloring.from_string("RBBB"))
    assert rep.method == "branch-and-bound"
    assert rep.nodes_explored > 0
    assert rep.elapsed_ms >= 0.0
    assert rep.witness == tuple(sorted(rep.witness))
    with pytest.raises(AttributeError):
        rep.optimum = 0


def test_certification_holds_under_python_O():
    # A kernel returning a wrong witness must not get through when asserts
    # are compiled out.
    code = textwrap.dedent(
        """
        import rbsep.exact
        from rbsep.errors import CertificationError
        from rbsep.graphs import Coloring, Graph

        if __debug__:
            raise SystemExit("expected to run under -O")
        rbsep.exact.minimum_hitting_set = lambda masks, budget=None, stats=None, classes=0: 0b1
        p6 = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
        try:
            rbsep.exact.sep_rb_exact(p6, Coloring.from_string("RRRBBB"))
        except CertificationError as exc:
            print(exc)
        """
    )
    src = str(Path(rbsep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout == "certification failed: (2, 3)\n"


# (seed, coloring, sep_rb witness, sep witness, gamma witness, maxsep value,
# worst coloring) on trees (seed % 3 == 0) and G(n, 0.3) with n = 9 + seed % 4.
PINNED = [
    (0, "BRBRBBBRR", (2, 3, 4, 6), (1, 4, 6, 7, 8), (0, 5, 6), 5, "BRBRRBRRB"),
    (1, "RRBBRBBBRB", (0, 1, 9), (0, 1, 3, 4, 5, 7), (0, 1, 2, 3, 5), 5, "BRRBBRRRBB"),
    (2, "RRRBBRRRBBB", (3, 7, 8), (1, 2, 3, 4, 6, 9), (3, 6, 9, 10), 5, "BBBRRRBBRRB"),
    (3, "RBRRRBBRRRRB", (1, 5, 6), (0, 2, 4, 5, 7, 9), (0, 1, 2, 8, 9), 6, "BBBRRBRRBBBB"),
    (4, "RBBBRRRRB", (1, 8), (0, 2, 3, 4), (0, 1), 4, "BBRRRBBBB"),
    (5, "RRBRBBBBBR", (2, 3, 6), (1, 2, 3, 7), (7, 9), 4, "BBBRBRRBBB"),
    (6, "BRBRBBRBRBB", (0, 1, 7, 10), (0, 1, 3, 6, 7, 10), (0, 1, 4, 9), 5, "BBRBRRBRBRB"),
    (7, "BBRRRBRBBRBR", (0, 2, 5), (0, 1, 4, 6, 7, 8), (0, 2, 3), 5, "BRRRRRBBBBBB"),
    (8, "BBBRBRRRB", (4, 5, 7), (2, 4, 5, 7), (0, 2, 4), 4, "BBRRRBRRR"),
    (9, "BBRBRRBRRR", (2, 4, 5, 9), (0, 2, 3, 4, 5), (1, 2, 3, 5), 5, "BBRRBRBRBB"),
]


@pytest.mark.parametrize("seed, coloring, rb, sep, gamma, value, worst", PINNED)
def test_exact_witnesses_are_pinned(seed, coloring, rb, sep, gamma, value, worst):
    # Refactors of the kernel or the sweep must keep every witness, not
    # just every optimum.
    n = 9 + seed % 4
    g = gen_random_twin_free(n, 0.3, seed) if seed % 3 else gen_random_tree(n, seed)
    assert sep_rb_exact(g, Coloring.from_string(coloring)).witness == rb
    assert sep_exact(g).witness == sep
    assert gamma_exact(g).witness == gamma
    report = maxsep_exact(g)
    assert (report.value, report.worst_coloring.to_string()) == (value, worst)


# (optimum, witness, nodes_explored) per seed, on larger graphs than PINNED:
# rb on G(28, 0.3), sep on G(22, 0.3), gamma on G(44, 0.3), and the
# twins-exempt sep on 20-vertex graphs with twins. A kernel change that moves a
# witness or a node count must re-pin these and say why. The kernel searches
# down from the greedy's set and tries the pivot vertex that hits the most
# live masks first, so the witness is the first set of that order, found
# below the greedy's size, and the nodes are those of the searches down.
PINNED_SEARCH = {
    "rb": [(5, (12, 20, 25, 26, 27), 288), (5, (5, 6, 7, 17, 19), 132), (5, (4, 6, 7, 11, 26), 206)],
    "sep": [(6, (7, 12, 16, 19, 20, 21), 92), (6, (0, 1, 7, 10, 19, 21), 87), (6, (6, 8, 9, 14, 16, 21), 243)],
    "gamma": [(5, (10, 27, 29, 33, 40), 449), (4, (0, 6, 20, 35), 74), (4, (2, 15, 21, 33), 63)],
    "twins": [(5, (3, 4, 6, 7, 13), 14), (5, (1, 4, 8, 9, 10), 25)],
}


@pytest.mark.parametrize("kind", sorted(PINNED_SEARCH))
def test_exact_searches_are_pinned(kind):
    def solve(seed):
        if kind == "rb":
            g = gen_random_twin_free(28, 0.3, seed)
            return sep_rb_exact(g, Coloring(28, random.Random(seed).getrandbits(28)))
        if kind == "sep":
            return sep_exact(gen_random_twin_free(22, 0.3, seed))
        if kind == "gamma":
            return gamma_exact(gen_random_twin_free(44, 0.3, seed))
        return sep_exact_allow_twins(_with_twins(random.Random(seed), 20, 14))

    for seed, pinned in enumerate(PINNED_SEARCH[kind]):
        report = solve(seed)
        assert (report.optimum, report.witness, report.nodes_explored) == pinned
