"""Acceptance suite: closed-form family values plus oracle-checked sweeps.

Each test prints one `[acceptance] <tag>: PASS|FAIL` line. Shared instance
batches are session-scoped so the oracle-equivalence batch is built once
and reused by the greedy/reduction checks.
"""

import math
import random
import subprocess
import sys

import pytest

from conftest import (
    brute_cover_optimum,
    brute_min_rb_sep,
    complete_bipartite,
    cycle_graph,
    path_graph,
)
from rbsep.approx import (
    bounded_degree_construct,
    reduce_rb_to_set_cover,
    sep_rb_greedy,
    triangle_free_construct,
    xp_exact_small_class,
)
from rbsep.bounds import LOG_LB_EXCLUDED, ceil_log2, floor_log2
from rbsep.errors import NotTriangleFree, TwinFreeUnreachable
from rbsep.exact import (
    gamma_exact,
    maxsep_exact,
    sep_exact,
    sep_exact_allow_twins,
    sep_rb_exact,
)
from rbsep.generators import (
    SatInstance,
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
    verify_rb_separating,
    verify_separating,
)
from rbsep.trees import (
    parity_sets,
    single_red_sep,
    tree_all_pairs_construct,
    tree_profile,
    tree_rb_construct,
)


def _report(tag: str, violations: list, detail: str = ""):
    ok = not violations
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[acceptance] {tag}: {status}{extra}", flush=True)
    assert ok, f"{tag}: {violations[:5]}"


def test_acceptance_p6_figure_values():
    bad = []
    p6 = path_graph(6)
    rep = maxsep_exact(p6)
    if rep.value != 3:
        bad.append(("maxsep", rep.value))
    if sep_rb_exact(p6, rep.worst_coloring).optimum != 3:
        bad.append("worst coloring does not re-solve to 3")
    singles = [m for m in range(64) if sep_rb_exact(p6, Coloring(6, m)).optimum == 1]
    if not singles:
        bad.append("no coloring with a single-vertex separator")
    _report("p6-figure", bad, "maxsep=3 and a sep_rb=1 coloring exists")


def test_acceptance_half_graph_complement():
    bad = []
    for k in (1, 2, 3):
        g, c = gen_half_graph_complement(k)
        value = maxsep_exact(g).value
        if value != 2 * k - 1:
            bad.append((k, value))
    _report("half-graph-complement", bad, "maxsep = 2k-1 for k=1,2,3")


def test_acceptance_power_set_graph():
    bad = []
    for k in (1, 2, 3):
        g, _ = gen_power_set_graph(k)
        value = maxsep_exact(g).value
        if value != k:
            bad.append((k, value))
    _report("power-set-graph", bad, "maxsep = k for k=1,2,3 (n=2,4,8)")


def test_acceptance_complete_multipartite():
    bad = []
    g = complete_bipartite(5, 5)
    if sep_exact_allow_twins(g).optimum != 8:
        bad.append(("sep", sep_exact_allow_twins(g).optimum))
    c = Coloring.from_red(10, [0, 1, 2, 5, 6, 7])
    if sep_rb_exact(g, c).optimum != 4:
        bad.append(("sep_rb adversarial", sep_rb_exact(g, c).optimum))
    sweep = maxsep_exact(g)
    if sweep.value != 4:
        bad.append(("maxsep sweep", sweep.value))
    _report("complete-multipartite", bad, "K_{5,5}: sep=8, maxsep=4")


def test_acceptance_spider():
    bad = []
    for k in (1, 2):
        g, c = gen_spider(k)
        got = sep_rb_exact(g, c).optimum
        if got != 3 * k:
            bad.append((k, "sep_rb", got))
    value = maxsep_exact(gen_spider(2)[0]).value
    if value != 6:
        bad.append((2, "maxsep", value))
    _report("spider", bad, "sep_rb = 3k for k=1,2; maxsep(k=2) = 6")


def _coloring_masks(n: int, rng: random.Random) -> list[int]:
    if n <= 6:
        return list(range(1 << n))
    return [rng.randrange(1 << n) for _ in range(64)]


@pytest.fixture(scope="session")
def oracle_batch():
    """>= 500 random twin-free graphs n <= 8 with solved coloring batches."""
    rng = random.Random(20240)
    instances = []
    graphs = []
    while len(graphs) < 500:
        n = 3 + len(graphs) % 6  # cycle 3..8
        p = (0.25, 0.4, 0.55)[len(graphs) % 3]
        try:
            g = gen_random_twin_free(n, p, rng.randrange(1 << 30), max_tries=40)
        except TwinFreeUnreachable:
            continue
        graphs.append(g)
        for mask in _coloring_masks(n, rng):
            c = Coloring(n, mask)
            bnb = sep_rb_exact(g, c)
            instances.append((g, c, bnb))
    return graphs, instances


def test_acceptance_oracle_equivalence(oracle_batch):
    graphs, instances = oracle_batch
    bad = []
    for g, c, bnb in instances:
        brute_opt, _ = brute_min_rb_sep(g, c)
        if bnb.optimum != brute_opt:
            bad.append((g.n, c.to_string(), bnb.optimum, brute_opt))
        if verify_rb_separating(g, c, bnb.witness) is not None:
            bad.append(("witness", g.n, c.to_string()))
    _report(
        "oracle-equivalence", bad,
        f"{len(graphs)} graphs, {len(instances)} colorings, bnb == exhaustive",
    )


def test_acceptance_greedy_and_reduction(oracle_batch):
    _, instances = oracle_batch
    bad = []
    checked = 0
    for g, c, bnb in instances:
        sys_ = reduce_rb_to_set_cover(g, c)
        cover_opt = brute_cover_optimum(sys_.universe_size, [e for _, e in sys_.sets])
        if cover_opt != bnb.optimum:
            bad.append(("cover", g.n, c.to_string(), cover_opt, bnb.optimum))
        greedy = sep_rb_greedy(g, c)
        if g.n >= 2:
            factor = max(1.0, 2 * math.log(g.n))
            ok = (
                len(greedy.solution) == 0
                if bnb.optimum == 0
                else len(greedy.solution) <= factor * bnb.optimum
            )
            if not ok:
                bad.append(("greedy", g.n, c.to_string(), len(greedy.solution), bnb.optimum))
        if sys_.universe_size >= 1 and cover_opt >= 1:
            tight = math.log(sys_.universe_size) + 1
            if len(greedy.solution) > tight * cover_opt:
                bad.append(("greedy-cover-factor", g.n, c.to_string()))
        checked += 1
    _report(
        "greedy-and-reduction", bad,
        f"{checked} instances: cover optimum == sep_rb, greedy within 2 ln n",
    )


@pytest.fixture(scope="session")
def construction_batch():
    rng = random.Random(555)
    triangle_free = []
    bounded = []
    while len(triangle_free) < 200 or len(bounded) < 200:
        n = rng.randint(4, 11)
        p = rng.choice([0.2, 0.3, 0.4])
        try:
            g = gen_random_twin_free(n, p, rng.randrange(1 << 30), max_tries=30)
        except TwinFreeUnreachable:
            continue
        prof = graph_profile(g)
        c = Coloring(n, rng.randrange(1 << n))
        if prof.triangle_free and len(triangle_free) < 200:
            triangle_free.append((g, c))
        if 3 <= prof.max_degree <= 5 and len(bounded) < 200:
            bounded.append((g, c))
    return triangle_free, bounded


def test_acceptance_constructions_and_xp(construction_batch):
    triangle_free, bounded = construction_batch
    bad = []
    for g, c in triangle_free:
        rep = triangle_free_construct(g, c)
        small = min(c.red_count, c.blue_count)
        if verify_rb_separating(g, c, rep.solution) is not None:
            bad.append(("tf verify", g.n))
        if len(rep.solution) > 3 * small:
            bad.append(("tf bound", g.n, len(rep.solution), small))
    for g, c in bounded:
        rep = bounded_degree_construct(g, c)
        small = min(c.red_count, c.blue_count)
        delta = graph_profile(g).max_degree
        if verify_rb_separating(g, c, rep.solution) is not None:
            bad.append(("deg verify", g.n))
        if len(rep.solution) > delta * small:
            bad.append(("deg bound", g.n, len(rep.solution), delta, small))
    # xp agreement wherever it runs, plus a forced single-red sub-batch
    ran = 0
    for g, c in triangle_free + bounded:
        try:
            xp = xp_exact_small_class(g, c)
        except NotTriangleFree:
            continue
        ran += 1
        if xp.optimum != sep_rb_exact(g, c).optimum:
            bad.append(("xp", g.n, c.to_string()))
    rng = random.Random(556)
    forced = 0
    while forced < 50:
        n = rng.randint(4, 12)
        try:
            g = gen_random_twin_free(n, 0.25, rng.randrange(1 << 30), max_tries=30)
        except TwinFreeUnreachable:
            continue
        if not graph_profile(g).triangle_free:
            continue
        c = Coloring.from_red(n, [rng.randrange(n)])
        xp = xp_exact_small_class(g, c)
        if xp.optimum != sep_rb_exact(g, c).optimum:
            bad.append(("xp single-red", g.n))
        forced += 1
    _report(
        "constructions-and-xp", bad,
        f"{len(triangle_free)} triangle-free + {len(bounded)} bounded-degree; "
        f"xp agreed on {ran} + {forced} instances",
    )


def test_acceptance_log_lower_bound_and_ratio():
    bad = []
    tested = []
    for k in (1, 2, 3):
        tested.append(gen_half_graph_complement(k)[0])
        tested.append(gen_power_set_graph(k)[0])
    tested.append(gen_spider(1)[0])
    tested.append(gen_spider(2)[0])
    tested.append(complete_bipartite(5, 5))
    rng = random.Random(77)
    added = 0
    while added < 40:
        n = rng.choice([3, 4, 5, 6, 7, 10, 11, 12])
        try:
            g = gen_random_twin_free(n, rng.choice([0.3, 0.45]), rng.randrange(1 << 30), max_tries=30)
        except TwinFreeUnreachable:
            continue
        tested.append(g)
        added += 1
    for _ in range(12):
        n = rng.choice([5, 6, 7, 10, 11, 12, 13, 14])
        tested.append(gen_random_tree(n, rng.randrange(1 << 30)))
    for g in tested:
        n = g.n
        maxsep = maxsep_exact(g, n_cap=14).value
        sep = sep_exact(g).optimum
        gamma = gamma_exact(g).optimum
        delta = graph_profile(g).max_degree
        if n not in LOG_LB_EXCLUDED and maxsep < floor_log2(n):
            bad.append(("lb", n, maxsep))
        if n >= 2 and sep > ceil_log2(n) * maxsep:
            bad.append(("ratio-log", n, sep, maxsep))
        if sep > ceil_log2(delta + 1) * maxsep + gamma:
            bad.append(("ratio-degree", n, sep, maxsep, gamma))
        if maxsep > sep:
            bad.append(("maxsep<=sep", n))
    _report(
        "log-lb-and-ratio", bad,
        f"{len(tested)} graphs n<=14 outside the excluded orders",
    )


def test_acceptance_tree_suite():
    bad = []
    rng = random.Random(4242)
    exact_trees = [gen_random_tree(5 + i % 12, rng.randrange(1 << 30)) for i in range(140)]
    big_trees = [gen_random_tree(rng.randint(17, 60), rng.randrange(1 << 30)) for _ in range(60)]

    for t in exact_trees:
        prof = tree_profile(t)
        n, s = t.n, prof.support_count
        sweep = maxsep_exact(t, n_cap=16)
        if sweep.value > 2 * n / 3 or sweep.value > min(n - s, (n + s) / 2):
            bad.append(("maxsep bound", n, sweep.value))
        worst = sweep.worst_coloring
        built = tree_rb_construct(t, worst)
        if verify_rb_separating(t, worst, built) is not None:
            bad.append(("rb construct verify", n))
        if 2 * len(built) > n + s:
            bad.append(("rb construct size", n, len(built)))

    leafless_checked = 0
    for t in exact_trees + big_trees:
        prof = tree_profile(t)
        n, s = t.n, prof.support_count
        leaves = set(prof.leaves)
        xs = [x for x in range(n) if x not in leaves]
        if n > 30:
            xs = xs[:5]
        for x in xs:
            c1, c2 = parity_sets(t, x)
            if verify_separating(t, c1) is not None or verify_separating(t, c2) is not None:
                bad.append(("parity", n, x))
            leafless_checked += 1
        ap = tree_all_pairs_construct(t)
        if len(ap) != n - s or verify_separating(t, ap) is not None:
            bad.append(("all-pairs", n))
        for _ in range(3):
            v = rng.randrange(n)
            c = Coloring(n, 1 << v)
            sr = single_red_sep(t, c)
            if len(sr) > 2 or verify_rb_separating(t, c, sr) is not None:
                bad.append(("single-red", n, v))
        c = Coloring(n, rng.randrange(1 << n))
        built = tree_rb_construct(t, c)
        if verify_rb_separating(t, c, built) is not None or 2 * len(built) > n + s:
            bad.append(("rb construct random", n))
    _report(
        "tree-suite", bad,
        f"{len(exact_trees)} exact + {len(big_trees)} constructive trees, "
        f"{leafless_checked} parity roots",
    )


def test_acceptance_reductions():
    bad = []
    rng = random.Random(31)
    # split-graph instances
    done = 0
    while done < 20:
        u = rng.randint(1, 4)
        sets = [[e for e in range(u) if rng.random() < 0.6] for _ in range(rng.randint(1, 4))]
        covered = set().union(*map(set, sets)) if sets else set()
        sets += [[e] for e in range(u) if e not in covered]
        red = gen_split_from_set_cover(u, sets)
        expected = brute_cover_optimum(u, [tuple(s) for s in sets]) + 1
        got = sep_rb_exact(red.graph, red.coloring).optimum
        if got != expected:
            bad.append(("split", u, got, expected))
        done += 1
    # two-copies sources: paths and cycles have degree-2 pivots
    sources = [(path_graph(k), 1) for k in (3, 4, 5, 6)]
    sources += [(cycle_graph(k), 0) for k in (4, 5, 6, 7, 8)]
    t = gen_random_tree(7, 5)
    pivot = next(v for v in range(7) if t.degree(v) == 2)
    sources.append((t, pivot))
    for g, v in sources:
        h, c = gen_two_copies_ds(g, v)
        got = sep_rb_exact(h, c).optimum
        expected = gamma_exact(g).optimum + 1
        if got != expected:
            bad.append(("two-copies", g.n, got, expected))
    # blue copy plus independent red set
    for g in (path_graph(3), path_graph(6), cycle_graph(5), gen_random_tree(6, 9)):
        gamma = gamma_exact(g).optimum
        h, c = gen_copies_plus_independent(g, gamma)
        got = sep_rb_exact(h, c).optimum
        if got != gamma:
            bad.append(("copies+independent", g.n, got, gamma))
        h, c = gen_copies_plus_independent(g, gamma - 1)
        if gamma >= 1 and sep_rb_exact(h, c).optimum <= gamma - 1:
            bad.append(("copies+independent decision", g.n))
    # SAT gadget unit instance
    red = gen_maxsep_gadget(SatInstance(1, ((1,),)))
    if red.graph.n != 48 or red.k != 13:
        bad.append(("gadget size", red.graph.n, red.k))
    s = red.prescribed_separating_set([True])
    if len(s) != red.k or verify_separating(red.graph, s) is not None:
        bad.append(("gadget prescribed set",))
    closed = red.graph.closed
    for gadget in red.gadgets:
        for uh in gadget.u:
            if not any(
                closed[p] ^ closed[q] == 1 << uh for p in gadget.p for q in gadget.q
            ):
                bad.append(("gadget separator", uh))
    _report("reductions", bad, "split, two-copies, independent-set, SAT gadget")


def test_acceptance_experiment_determinism(tmp_path):
    bad = []
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        res = subprocess.run(
            [
                sys.executable, "-m", "rbsep", "experiment", "--suite", "fuzz",
                "--seed", "1", "--sizes", "5,8", "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        if res.returncode != 0:
            bad.append(("exit", res.returncode, res.stderr))
        outs.append(out.read_bytes())
    if len(outs) == 2 and outs[0] != outs[1]:
        bad.append("fuzz CSVs differ between runs")
    _report("experiment-determinism", bad, "fuzz suite, fixed seed, byte-identical")
