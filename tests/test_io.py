import random

import pytest

from conftest import TREE_GRID, TWIN_FREE_GRID, edge_list_text, path_graph
from rbsep.errors import FormatError
from rbsep.generators import gen_random_tree, gen_random_twin_free
from rbsep.graphs import Coloring, Graph
from rbsep.io import (
    MAX_GRAPH_ORDER,
    coloring_from_text,
    coloring_to_text,
    graph_from_text,
    graph_to_text,
    read_graph,
    vertex_set_from_text,
    vertex_set_to_text,
    write_graph,
)


def test_graph_round_trip_bit_exact():
    g = path_graph(4)
    text = graph_to_text(g)
    assert text == "4 3\n0 1\n1 2\n2 3\n"
    assert graph_to_text(graph_from_text(text)) == text


def test_graph_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError) as exc:
        graph_from_text("2 1\n1 0\n")
    assert exc.value.line == 2
    with pytest.raises(FormatError) as exc:
        graph_from_text("2 2\n0 1\n")
    assert exc.value.line == 1
    for text in ("3 1\n0 5\n", "3 1\n-1 2\n", "3 2\n0 1\n1 3\n"):
        with pytest.raises(FormatError, match="out of range") as exc:
            graph_from_text(text)
        assert exc.value.line == text.count("\n")
    with pytest.raises(FormatError):
        graph_from_text("x y\n")
    with pytest.raises(FormatError):
        graph_from_text("")


def random_graphs(count: int):
    # Seeded G(n, p) with n = 0..29 and random trees of 1..30 vertices.
    for seed in range(count):
        rng = random.Random(seed)
        n, p = rng.randrange(30), rng.random()
        yield Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        yield gen_random_tree(1 + seed % 30, seed)


def test_graph_reader_round_trips_random_graphs_and_trees():
    for g in random_graphs(200):
        assert graph_from_text(graph_to_text(g)) == g


def test_graph_text_matches_the_edge_list_text():
    grid = [gen_random_tree(*args) for args in TREE_GRID]
    grid += [gen_random_twin_free(*args) for args in TWIN_FREE_GRID]
    for g in grid:
        assert graph_to_text(g) == edge_list_text(g)


def test_written_graph_file_is_the_graph_text(tmp_path):
    # K_200 has 19,900 edge lines, so the writer streams it in several pieces.
    k200 = Graph.from_edges(200, [(u, v) for u in range(200) for v in range(u + 1, 200)])
    for i, g in enumerate([Graph(0, ()), path_graph(4), gen_random_tree(1000, 0), k200]):
        path = tmp_path / f"{i}.graph.txt"
        write_graph(path, g)
        assert path.read_bytes() == edge_list_text(g).encode()
        assert read_graph(path) == g


def test_duplicate_edge_is_reported_at_the_repeat():
    for g in random_graphs(40):
        head, *edges = graph_to_text(g).splitlines()
        n, m = map(int, head.split())
        for j, edge in enumerate(edges):
            for at in {j + 1, m}:
                lines = [f"{n} {m + 1}", *edges[:at], edge, *edges[at:]]
                with pytest.raises(FormatError, match="duplicate edge") as exc:
                    graph_from_text("\n".join(lines) + "\n")
                assert exc.value.line == at + 2


def test_graph_order_is_bounded_before_allocation():
    # Header-only files: no edge lines are needed to declare a huge order.
    assert graph_from_text(f"{MAX_GRAPH_ORDER} 0\n").n == MAX_GRAPH_ORDER
    for n in (MAX_GRAPH_ORDER + 1, -1):
        with pytest.raises(FormatError) as exc:
            graph_from_text(f"{n} 0\n")
        assert exc.value.line == 1


def test_coloring_round_trip():
    c = Coloring.from_string("RBRB")
    assert coloring_to_text(c) == "RBRB\n"
    assert coloring_from_text("RBRB\n").red_vertices() == (0, 2)
    with pytest.raises(FormatError):
        coloring_from_text("RBX\n")
    with pytest.raises(FormatError):
        coloring_from_text("RB\n", n=3)


def test_vertex_set_round_trip():
    assert vertex_set_to_text([3, 1, 2]) == "1 2 3\n"
    assert vertex_set_from_text("1 2 3\n") == (1, 2, 3)
    assert vertex_set_from_text("\n") == ()
    assert vertex_set_to_text([]) == "\n"
    with pytest.raises(FormatError):
        vertex_set_from_text("2 1\n")
    with pytest.raises(FormatError):
        vertex_set_from_text("1 a\n")


@pytest.mark.parametrize("text, line", [
    ("1\n2\n", 2), ("1 2\n\n", 2), ("\n3\n", 2), ("-3 -1 0", 1), ("-1\n", 1),
])
def test_vertex_set_rejects_extra_lines_and_negative_indices(text, line):
    # Neither the second line nor a negative index may pass unreported.
    with pytest.raises(FormatError) as exc:
        vertex_set_from_text(text)
    assert exc.value.line == line
    assert vertex_set_from_text("0 4") == vertex_set_from_text("0 4\n") == (0, 4)


@pytest.mark.parametrize("text", ["RB\nBB\n", "RB\n\n", "RB\nBB"])
def test_coloring_rejects_extra_lines(text):
    with pytest.raises(FormatError) as exc:
        coloring_from_text(text)
    assert exc.value.line == 2
    assert coloring_from_text("RB") == coloring_from_text("RB\n") == Coloring(2, 1)
