"""Inequality checks relating sep, maxsep, gamma, and tree parameters.

Each check is recorded as (name, lhs, rhs, holds); checks whose inputs were
not computed (instance over a cap, or inside the known exclusion set of the
logarithmic lower bound) are marked skipped rather than dropped.
"""

from __future__ import annotations

from typing import NamedTuple

from .exact import MAXSEP_DEFAULT_CAP, gamma_exact, maxsep_exact, sep_exact_allow_twins
from .graphs import Graph, is_tree, require_twin_free
from .trees import tree_profile

__all__ = ["BoundCheck", "BoundsReport", "bound_checks", "check_bounds", "LOG_LB_EXCLUDED"]

# Orders where the counting argument behind the log2 lower bound is known
# not to apply.
LOG_LB_EXCLUDED = frozenset({8, 9, 16, 17})

SEP_DEFAULT_CAP = 64


class BoundCheck(NamedTuple):
    name: str
    lhs: float | None
    rhs: float | None
    holds: bool | None  # None = skipped
    note: str = ""


class BoundsReport(NamedTuple):
    n: int
    sep: int | None
    maxsep: int | None
    gamma: int
    max_degree: int
    support_count: int | None
    checks: tuple[BoundCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds is not False for c in self.checks)


def floor_log2(n: int) -> int:
    return n.bit_length() - 1


def ceil_log2(n: int) -> int:
    return (n - 1).bit_length() if n >= 1 else 0


def maxsep_lower_bound(n: int) -> int:
    """Proven lower bound on maxsep_RB of a twin-free graph of order n.

    Floor(log2 n) by the counting argument, but 1 at the orders in
    ``LOG_LB_EXCLUDED``, where that argument is not known to hold: each is at
    least 2, so some coloring has a red-blue pair, which needs one vertex.
    """
    return 1 if n in LOG_LB_EXCLUDED else max(floor_log2(n), 0)


def tree_support_count(g: Graph) -> int | None:
    """The number of support vertices (those next to a leaf) of a tree, else None."""
    return tree_profile(g).support_count if is_tree(g) else None


def bound_checks(n, sep, maxsep, gamma, max_degree, support_count) -> tuple[BoundCheck, ...]:
    """Every applicable inequality on a twin-free graph's parameters; a ``sep`` or
    ``maxsep`` of None (not computed) skips the checks that read it."""
    checks: list[BoundCheck] = []

    def add(name, lhs, rhs, note=""):
        if lhs is None or rhs is None:
            checks.append(BoundCheck(name, None, None, None, note or "skipped: value not computed"))
        else:
            checks.append(BoundCheck(name, lhs, rhs, lhs <= rhs, note))

    if n in LOG_LB_EXCLUDED:
        add("floor_log2_le_maxsep", None, None, f"skipped: n={n} excluded")
    elif n >= 1:
        add("floor_log2_le_maxsep", maxsep_lower_bound(n), maxsep)
    add("maxsep_le_sep", maxsep, sep)
    add("sep_le_n_minus_1", sep, n - 1 if n >= 1 else None)
    if maxsep is None:
        add("sep_le_ceil_log2_n_times_maxsep", sep, None, "skipped: maxsep over cap")
        add("sep_le_ceil_log2_deg1_times_maxsep_plus_gamma", sep, None, "skipped: maxsep over cap")
    else:
        add("sep_le_ceil_log2_n_times_maxsep", sep, ceil_log2(n) * maxsep)
        add("sep_le_ceil_log2_deg1_times_maxsep_plus_gamma", sep, ceil_log2(max_degree + 1) * maxsep + gamma)
    if support_count is not None and n >= 5:
        add("tree_maxsep_le_half_n_plus_s", maxsep, (n + support_count) / 2)
        add("tree_sep_le_n_minus_s", sep, n - support_count)
        add("tree_maxsep_le_two_thirds_n", maxsep, 2 * n / 3)
    return tuple(checks)


def check_bounds(
    g: Graph,
    sep_cap: int = SEP_DEFAULT_CAP,
    maxsep_cap: int = MAXSEP_DEFAULT_CAP,
) -> BoundsReport:
    """Evaluate every applicable inequality on a twin-free graph."""
    require_twin_free(g)
    n = g.n
    sep = sep_exact_allow_twins(g).optimum if n <= sep_cap else None
    maxsep = maxsep_exact(g, n_cap=maxsep_cap).value if n <= maxsep_cap else None
    params = (n, sep, maxsep, gamma_exact(g).optimum, g.max_degree, tree_support_count(g))
    return BoundsReport(*params, bound_checks(*params))
