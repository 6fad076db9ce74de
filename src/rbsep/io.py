"""Text formats for graphs, colorings, and vertex sets.

All formats are line-oriented ASCII with LF endings and no comments, chosen
to round-trip bit-exactly. A one-line format allows a single trailing LF;
any further line is an error:

* graph:      line 1 ``n m``, then m lines ``u v`` with u < v, edges in
              lexicographic order
* coloring:   one line over {R, B}, one character per vertex
* vertex set: one line of space-separated ascending non-negative indices
              (empty line for the empty set)
* set system: written by ``approx.set_system_to_text`` for ``rbsep reduce``;
              output only, so it has no reader here
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator

from .errors import FormatError
from .graphs import Coloring, Graph

__all__ = [
    "graph_to_text",
    "graph_from_text",
    "coloring_to_text",
    "coloring_from_text",
    "vertex_set_to_text",
    "vertex_set_from_text",
    "write_graph",
    "read_graph",
    "write_coloring",
    "read_coloring",
    "write_vertex_set",
    "read_vertex_set",
]

# Largest graph order the reader accepts. A header alone costs nothing to
# write, but a solver reading ``Graph.closed`` of an edgeless order-n graph
# builds n ints of up to n bits: about 6 MB at this bound, 60 GB at 10**6.
MAX_GRAPH_ORDER = 10_000


# A chunk of graph text closes at the first row end where it holds this many
# lines: a 1000-vertex tree is one chunk, and a large dense graph is written
# without ever holding its whole text.
_CHUNK_LINES = 4096


def _graph_chunks(g: Graph) -> Iterator[str]:
    """The graph's text in pieces of whole lines, in one pass over the rows."""
    out = [f"{g.n} {g.m}\n"]
    for u, row in enumerate(g.adj):
        high = row >> u + 1
        while high:
            low = high & -high
            out.append(f"{u} {u + low.bit_length()}\n")
            high ^= low
        if len(out) >= _CHUNK_LINES:
            yield "".join(out)
            out = []
    yield "".join(out)


def graph_to_text(g: Graph) -> str:
    return "".join(_graph_chunks(g))


def graph_from_text(text: str) -> Graph:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise FormatError("empty graph file", line=1)
    head = lines[0].split()
    if len(head) != 2:
        raise FormatError("expected header 'n m'", line=1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError("non-integer header field", line=1) from None
    if not 0 <= n <= MAX_GRAPH_ORDER:
        raise FormatError(f"graph order {n} is outside 0..{MAX_GRAPH_ORDER}", line=1)
    if len(lines) - 1 != m:
        raise FormatError(f"header declares {m} edges but file has {len(lines) - 1}", line=1)
    adj = [0] * n
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError("expected edge line 'u v'", line=i)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError("non-integer edge endpoint", line=i) from None
        if not u < v:
            raise FormatError(f"edge ({u},{v}) must have u < v", line=i)
        if u < 0 or v >= n:
            raise FormatError(f"edge ({u},{v}) out of range for n={n}", line=i)
        if adj[u] >> v & 1:
            raise FormatError(f"duplicate edge ({u},{v})", line=i)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def coloring_to_text(c: Coloring) -> str:
    return c.to_string() + "\n"


def _only_line(text: str) -> str:
    # One-line formats: a single trailing LF ends the line; more is line 2.
    lines = text.split("\n")
    if len(lines) > 1 and lines[-1] == "":
        lines.pop()
    if len(lines) > 1:
        raise FormatError("expected a single line", line=2)
    return lines[0]


def coloring_from_text(text: str, n: int | None = None) -> Coloring:
    line = _only_line(text)
    try:
        c = Coloring.from_string(line)
    except ValueError as exc:
        raise FormatError(str(exc), line=1) from None
    if n is not None and c.n != n:
        raise FormatError(f"coloring has {c.n} characters, expected {n}", line=1)
    return c


def vertex_set_to_text(s: Iterable[int]) -> str:
    return " ".join(str(v) for v in sorted(s)) + "\n"


def vertex_set_from_text(text: str) -> tuple[int, ...]:
    line = _only_line(text).strip()
    if not line:
        return ()
    try:
        values = tuple(int(tok) for tok in line.split())
    except ValueError:
        raise FormatError("non-integer vertex index", line=1) from None
    for a, b in zip(values, values[1:]):
        if a >= b:
            raise FormatError("vertex set must be strictly ascending", line=1)
    if values[0] < 0:
        raise FormatError(f"negative vertex index {values[0]}", line=1)
    return values


def write_graph(path: str | Path, g: Graph) -> None:
    with Path(path).open("w") as f:
        f.writelines(_graph_chunks(g))


def read_graph(path: str | Path) -> Graph:
    return graph_from_text(Path(path).read_text())


def write_coloring(path: str | Path, c: Coloring) -> None:
    Path(path).write_text(coloring_to_text(c))


def read_coloring(path: str | Path, n: int | None = None) -> Coloring:
    return coloring_from_text(Path(path).read_text(), n)


def write_vertex_set(path: str | Path, s: Iterable[int]) -> None:
    Path(path).write_text(vertex_set_to_text(s))


def read_vertex_set(path: str | Path) -> tuple[int, ...]:
    return vertex_set_from_text(Path(path).read_text())
