#!/usr/bin/env python3
"""Print the optimum and witness of seeded exact solves, one line each.

Runs ``sep_rb_exact`` on G(28, 0.3) with a random coloring, ``sep_exact`` on
G(22, 0.3), ``gamma_exact`` on G(44, 0.3) and ``sep_exact_allow_twins`` on a
G(14, 0.4) grown to 20 vertices by true twins, the sizes that
``tests/test_exact.py`` pins, and ``maxsep_exact`` on a twin-free G(12, 0.3)
at even seeds and a random tree of 12 + (seed // 2) % 5 vertices at odd ones,
and ``xp_exact_small_class`` on a twin-free G(28, 0.3) with 2 + seed % 3 red
vertices, for ``count`` seeds from ``seed`` on. Each line is ``kind seed
optimum witness``, the witness of ``maxsep`` being the worst coloring; node
counts are left out, so a kernel change that keeps every answer keeps the
output. Usage:

    python scripts/exact_witnesses.py [count] [seed]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import random  # noqa: E402
from itertools import combinations  # noqa: E402

from rbsep.approx import xp_exact_small_class  # noqa: E402
from rbsep.exact import (  # noqa: E402
    gamma_exact, maxsep_exact, sep_exact, sep_exact_allow_twins, sep_rb_exact
)
from rbsep.generators import gen_random_tree, gen_random_twin_free  # noqa: E402
from rbsep.graphs import Coloring, Graph, mask_of  # noqa: E402


def with_twins(rng: random.Random, n: int, k: int) -> Graph:
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


def optimum(report) -> tuple[int, str]:
    return report.optimum, ",".join(map(str, report.witness))


def maxsep(s: int) -> tuple[int, str]:
    if s % 2:
        g = gen_random_tree(12 + s // 2 % 5, s)
    else:
        g = gen_random_twin_free(12, 0.3, s)
    report = maxsep_exact(g, n_cap=16)
    return report.value, report.worst_coloring.to_string()


def xp(s: int) -> tuple[int, str]:
    reds = random.Random(s).sample(range(28), 2 + s % 3)
    coloring = Coloring(28, mask_of(reds))
    return optimum(xp_exact_small_class(gen_random_twin_free(28, 0.3, s), coloring))


SOLVES = {
    "rb": lambda s: optimum(sep_rb_exact(
        gen_random_twin_free(28, 0.3, s), Coloring(28, random.Random(s).getrandbits(28))
    )),
    "sep": lambda s: optimum(sep_exact(gen_random_twin_free(22, 0.3, s))),
    "gamma": lambda s: optimum(gamma_exact(gen_random_twin_free(44, 0.3, s))),
    "twins": lambda s: optimum(sep_exact_allow_twins(with_twins(random.Random(s), 20, 14))),
    "maxsep": maxsep,
    "xp": xp,
}


def main() -> int:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    print("kind seed optimum witness")
    for kind, solve in SOLVES.items():
        for s in range(seed, seed + count):
            print(kind, s, *solve(s))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
