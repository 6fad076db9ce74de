"""Every construction's output, pinned, and every solver's exit, certified.

The pin is one md5 over a seeded grid of trees and twin-free random graphs:
each call's result, or the name of the error it raises, in a fixed order.
A change to the constructions' bookkeeping must keep the digest; a change
that moves an output on purpose says so and pins the new digest. Every exact
solver, polynomial route and construction leaves through ``graphs.certified``
under its claim's kind.
"""

import hashlib
import random

import pytest

import rbsep.graphs
from conftest import path_graph, star_graph
from rbsep.approx import (
    bounded_degree_construct,
    sep_all_pairs_greedy,
    sep_rb_greedy,
    triangle_free_construct,
    xp_exact_small_class,
)
from rbsep.errors import CertificationError
from rbsep.exact import gamma_exact, sep_exact, sep_exact_allow_twins, sep_rb_exact
from rbsep.generators import gen_random_tree, gen_random_twin_free
from rbsep.graphs import Coloring
from rbsep.trees import (
    TreeProfile,
    ns3_vertices,
    parity_sets,
    single_red_sep,
    tree_all_pairs_construct,
    tree_profile,
    tree_rb_construct,
)

TREE_PINS = [(n, seed) for n in range(1, 41) for seed in range(8)]
TREE_PINS += [(n, seed) for n in (64, 100, 1000) for seed in range(3)]
GRAPH_PINS = [(n, seed) for n in range(4, 30) for seed in range(8)]
CONSTRUCTIONS_MD5 = "ffa5fca62cfc7b33c9d27c3b02571502"


def _colorings(n: int, seed: int) -> list[Coloring]:
    # A random coloring, a single red vertex, and all blue.
    rng = random.Random(n * 1000 + seed)
    return [Coloring(n, rng.getrandbits(n)), Coloring.from_red(n, [rng.randrange(n)]), Coloring(n, 0)]


def _outcome(f, *args) -> str:
    try:
        return repr(f(*args))
    except Exception as exc:  # the refused calls are pinned by error type
        return type(exc).__name__


def construction_outputs():
    for n, seed in TREE_PINS:
        t = gen_random_tree(n, seed)
        yield _outcome(tree_all_pairs_construct, t)
        if n >= 5:
            yield _outcome(lambda: ns3_vertices(t, tree_profile(t)))
        for x in range(min(n, 6)):
            yield _outcome(parity_sets, t, x)
        for c in _colorings(n, seed):
            yield _outcome(tree_rb_construct, t, c)
            yield _outcome(single_red_sep, t, c)
    for n, seed in GRAPH_PINS:
        g = gen_random_twin_free(n, 0.25, seed)
        for c in _colorings(n, seed):
            yield _outcome(triangle_free_construct, g, c)
            yield _outcome(bounded_degree_construct, g, c)


def test_construction_outputs_are_pinned():
    digest = hashlib.md5("\n".join(construction_outputs()).encode()).hexdigest()
    assert digest == CONSTRUCTIONS_MD5


# One call per exit, the star path of tree_rb_construct among them.
EXITS = {
    "single_red_sep": lambda: single_red_sep(path_graph(6), Coloring.from_red(6, [2])),
    "parity_sets": lambda: parity_sets(path_graph(6), 1),
    "tree_rb_construct": lambda: tree_rb_construct(path_graph(8), Coloring(8, 0b1010)),
    "tree_rb_construct_star": lambda: tree_rb_construct(star_graph(6), Coloring(6, 0b110)),
    "tree_all_pairs_construct": lambda: tree_all_pairs_construct(path_graph(6)),
    "triangle_free_construct": lambda: triangle_free_construct(path_graph(6), Coloring.from_red(6, [2])),
    "bounded_degree_construct": lambda: bounded_degree_construct(star_graph(5), Coloring.from_red(5, [1])),
}


@pytest.mark.parametrize("name", EXITS)
def test_every_exit_certifies(monkeypatch, name):
    EXITS[name]()  # a valid call, so the error below is the verifier's
    for verifier in ("verify_rb_separating", "verify_separating"):
        monkeypatch.setattr(rbsep.graphs, verifier, lambda *args: (0, 1))
    with pytest.raises(CertificationError):
        EXITS[name]()


# One call through each exit of the package, with the claim kind it
# certifies under; xp's construction certifies before its search.
KINDS = {
    "sep_rb_exact": (lambda: sep_rb_exact(path_graph(4), Coloring.from_string("RBRB")), "rb"),
    "sep_exact": (lambda: sep_exact(path_graph(4)), "all-pairs-allow-twins"),
    "sep_exact_allow_twins": (lambda: sep_exact_allow_twins(path_graph(4)), "all-pairs-allow-twins"),
    "gamma_exact": (lambda: gamma_exact(path_graph(4)), "dominating"),
    "xp": (lambda: xp_exact_small_class(path_graph(6), Coloring.from_red(6, [2])), "rb"),
    "greedy": (lambda: sep_rb_greedy(path_graph(6), Coloring.from_red(6, [2])), "rb"),
    "maxsep-approx": (lambda: sep_all_pairs_greedy(path_graph(6)), "all-pairs"),
    **{name: (call, "all-pairs" if name in ("parity_sets", "tree_all_pairs_construct") else "rb")
       for name, call in EXITS.items()},
}


@pytest.mark.parametrize("name", KINDS)
def test_every_exit_certifies_under_its_claim_kind(monkeypatch, name):
    call, kind = KINDS[name]
    call()  # a valid call, so the error below is the refusal
    seen = []

    def refuse(g, kind, s, c=None):
        seen.append(kind)
        return "refused"

    monkeypatch.setattr(rbsep.graphs, "violation", refuse)
    with pytest.raises(CertificationError, match="refused"):
        call()
    assert seen == [kind]


def test_star_path_checks_its_size_promise(monkeypatch):
    # With s read as -n the (n + s)/2 promise is 0 vertices, which no
    # red-blue separating set of a star keeps.
    monkeypatch.setattr(TreeProfile, "support_count", property(lambda self: -self.n))
    with pytest.raises(CertificationError):
        EXITS["tree_rb_construct_star"]()


def test_ns3_vertices_on_a_three_leaf_star_is_empty():
    # The one 3-leaf support has no internal neighbor to contribute.
    star = star_graph(4)
    assert ns3_vertices(star, tree_profile(star)) == ()
