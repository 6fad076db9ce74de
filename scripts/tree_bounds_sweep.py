#!/usr/bin/env python3
"""Sweep random trees and report how tight the tree bounds are.

For each sampled tree, computes the exact worst-coloring cost and compares
it against n - s, (n + s)/2, and 2n/3. Usage:

    python scripts/tree_bounds_sweep.py [count] [max_n] [seed]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import random  # noqa: E402

from rbsep.exact import maxsep_exact  # noqa: E402
from rbsep.generators import gen_random_tree  # noqa: E402
from rbsep.trees import tree_profile, tree_rb_construct  # noqa: E402


def main() -> int:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    max_n = int(sys.argv[2]) if len(sys.argv) > 2 else 14
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 0
    rng = random.Random(seed)
    worst_ratio = 0.0
    print("n  s  maxsep  n-s  (n+s)/2  2n/3  construct")
    for _ in range(count):
        n = rng.randint(5, max_n)
        t = gen_random_tree(n, rng.randrange(1 << 30))
        prof = tree_profile(t)
        s = prof.support_count
        sweep = maxsep_exact(t, n_cap=max(14, max_n))
        # tree_rb_construct certifies its set before returning it.
        built = tree_rb_construct(t, sweep.worst_coloring)
        worst_ratio = max(worst_ratio, sweep.value / n)
        print(
            f"{n:<2} {s:<2} {sweep.value:^7} {n - s:^4} {(n + s) / 2:^8} "
            f"{2 * n / 3:^5.2f} {len(built):^9}"
        )
    print(f"\nlargest maxsep/n ratio observed: {worst_ratio:.3f} (upper bound 2/3)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
