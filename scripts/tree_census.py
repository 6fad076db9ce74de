#!/usr/bin/env python3
"""Every free tree of each order 3..N, with the tree bounds on its maxsep.

Each free tree is generated once, as a level sequence, by Wright, Richmond,
Odlyzko and McKay, "Constant time generation of free trees", SIAM J.
Comput. 15(2), 1986; the count per order must equal OEIS A000055. Orders 1
and 2 are left out: the edge has twins, so maxsep is not defined on it.

Per order it prints the number of trees, the largest maxsep, how many trees
reach it, and the smallest slack over the trees to floor(2n/3), to (n + s)/2
(s support vertices) and above floor(log2 n). Every tree inequality of
``bounds.bound_checks`` must hold on every tree. Usage:

    python scripts/tree_census.py [N]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rbsep.bounds import bound_checks, floor_log2, tree_support_count  # noqa: E402
from rbsep.exact import gamma_exact, maxsep_exact, sep_exact  # noqa: E402
from rbsep.graphs import Graph  # noqa: E402

# OEIS A000055, the number of free trees of order n, from n = 0.
A000055 = (1, 1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320,
           48629, 123867, 317955, 823065)


def _split(seq: list[int]) -> tuple[list[int], list[int]]:
    # The root's first subtree, and the tree without it, as level sequences.
    end = next((i for i in range(2, len(seq)) if seq[i] == 1), len(seq))
    return [d - 1 for d in seq[1:end]], [0] + seq[end:]


def _next_rooted(seq: list[int], p: int | None = None) -> list[int] | None:
    # Beyer and Hedetniemi's successor: from the last vertex p deeper than 1
    # (or the given p), repeat the levels that follow p's parent q.
    if p is None:
        p = max((i for i, d in enumerate(seq) if d > 1), default=0)
    if p == 0:
        return None
    q = max(i for i in range(p) if seq[i] == seq[p] - 1)
    out = list(seq)
    for i in range(p, len(out)):
        out[i] = out[i - p + q]
    return out


def _centred(left: list[int], rest: list[int]) -> bool:
    # The sequence is its free tree's canonical one: the first subtree is no
    # higher than the rest, and on a tie no larger, and on a tie no later.
    if max(left) != max(rest):
        return max(left) < max(rest)
    return (len(left), left) <= (len(rest), rest)


def free_trees(n: int):
    """Yield the level sequence of every free tree of order n >= 2 once."""
    seq = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))  # the path, from its centre
    while seq is not None:
        left, rest = _split(seq)
        if _centred(left, rest):
            yield seq
            seq = _next_rooted(seq)
            continue
        # Skip every rooted tree that keeps this first subtree.
        p = len(left)
        deep = seq[p] > 2
        seq = _next_rooted(seq, p)
        if deep:
            height = max(_split(seq)[0])
            seq[n - height - 1:] = range(1, height + 2)


def tree_of(seq: list[int]) -> Graph:
    """The tree of a level sequence: each vertex hangs from the last one a level up."""
    last: dict[int, int] = {}
    edges = []
    for v, depth in enumerate(seq):
        if depth:
            edges.append((last[depth - 1], v))
        last[depth] = v
    return Graph.from_edges(len(seq), edges)


def census(n: int) -> str:
    rows = []  # per tree: maxsep, then its slack to each bound
    for seq in free_trees(n):
        t = tree_of(seq)
        maxsep = maxsep_exact(t, n_cap=n).value
        s = tree_support_count(t)
        checks = bound_checks(n, sep_exact(t).optimum, maxsep, gamma_exact(t).optimum, t.max_degree, s)
        failed = [c.name for c in checks if c.holds is False]
        if failed:
            raise AssertionError(f"tree {seq} fails {failed}")
        rows.append((maxsep, 2 * n // 3 - maxsep, (n + s) / 2 - maxsep, maxsep - floor_log2(n)))
    if len(rows) != A000055[n]:
        raise AssertionError(f"order {n}: {len(rows)} free trees, A000055 says {A000055[n]}")
    best = max(row[0] for row in rows)
    reaching = sum(row[0] == best for row in rows)
    third, half, log = (min(column) for column in list(zip(*rows))[1:])
    return f"{n:<3} {len(rows):>6} {best:>6} {reaching:>8} {third:>9} {half:>11} {log:>9}"


def main() -> int:
    top = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    if not 3 <= top < len(A000055):
        raise SystemExit(f"N must be in 3..{len(A000055) - 1}")
    print("n    trees maxsep reaching 2n/3-max (n+s)/2-max max-log2n")
    for n in range(3, top + 1):
        print(census(n))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
