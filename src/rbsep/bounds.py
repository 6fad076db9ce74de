"""Inequality checks relating sep, maxsep, gamma, and tree parameters.

Each check is recorded as (name, lhs, rhs, holds); checks whose inputs were
not computed (instance over a cap, or inside the known exclusion set of the
logarithmic lower bound) are marked skipped rather than dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import MAXSEP_DEFAULT_CAP, gamma_exact, maxsep_exact, sep_exact_allow_twins
from .graphs import Graph, is_tree, require_twin_free
from .trees import tree_profile

__all__ = ["BoundCheck", "BoundsReport", "check_bounds", "LOG_LB_EXCLUDED"]

# Orders where the counting argument behind the log2 lower bound is known
# not to apply.
LOG_LB_EXCLUDED = frozenset({8, 9, 16, 17})

SEP_DEFAULT_CAP = 64


@dataclass(frozen=True)
class BoundCheck:
    name: str
    lhs: float | None
    rhs: float | None
    holds: bool | None  # None = skipped
    note: str = ""


@dataclass(frozen=True)
class BoundsReport:
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
    gamma = gamma_exact(g).optimum
    tree = is_tree(g)
    support = tree_profile(g).support_count if tree else None

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
        add("sep_le_ceil_log2_deg1_times_maxsep_plus_gamma", sep, ceil_log2(g.max_degree + 1) * maxsep + gamma)
    if tree and n >= 5:
        add("tree_maxsep_le_half_n_plus_s", maxsep, (n + support) / 2)
        add("tree_sep_le_n_minus_s", sep, n - support)
        add("tree_maxsep_le_two_thirds_n", maxsep, 2 * n / 3)

    return BoundsReport(
        n=n,
        sep=sep,
        maxsep=maxsep,
        gamma=gamma,
        max_degree=g.max_degree,
        support_count=support,
        checks=tuple(checks),
    )
