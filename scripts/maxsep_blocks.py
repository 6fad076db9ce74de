#!/usr/bin/env python3
"""Print the value and worst coloring of seeded 20-vertex maxsep sweeps.

Runs ``maxsep_exact`` on a random tree and on a twin-free G(20, 0.3) for
``count`` seeds from ``seed`` on. A 20-vertex sweep spans 2^19 colorings, 8
blocks of 2^16 Gray steps, so these lines pin the sweep's multi-block path,
which no sweep of at most 17 vertices reaches. Each line is ``kind seed value
worst_coloring``. Usage:

    python scripts/maxsep_blocks.py [count] [seed]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rbsep.exact import maxsep_exact  # noqa: E402
from rbsep.generators import gen_random_tree, gen_random_twin_free  # noqa: E402

GRAPHS = {
    "tree": lambda s: gen_random_tree(20, s),
    "gnp": lambda s: gen_random_twin_free(20, 0.3, s),
}


def main() -> int:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    print("kind seed value worst_coloring")
    for kind, build in GRAPHS.items():
        for s in range(seed, seed + count):
            report = maxsep_exact(build(s), n_cap=20)
            print(kind, s, report.value, report.worst_coloring.to_string())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
