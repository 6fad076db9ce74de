import pytest

from conftest import complete_bipartite, path_graph
from rbsep.bounds import LOG_LB_EXCLUDED, ceil_log2, check_bounds, floor_log2
from rbsep.errors import NotTwinFree
from rbsep.graphs import Graph


def test_log_helpers():
    assert floor_log2(6) == 2 and floor_log2(8) == 3
    assert ceil_log2(6) == 3 and ceil_log2(8) == 3 and ceil_log2(1) == 0


def test_check_bounds_p6():
    rep = check_bounds(path_graph(6))
    assert rep.sep == 3 and rep.maxsep == 3 and rep.gamma == 2
    named = {c.name: c for c in rep.checks}
    assert named["floor_log2_le_maxsep"].holds
    assert named["sep_le_ceil_log2_n_times_maxsep"].holds
    assert named["tree_maxsep_le_half_n_plus_s"].holds
    assert named["tree_maxsep_le_two_thirds_n"].holds
    assert rep.all_hold


def test_check_bounds_k55():
    rep = check_bounds(complete_bipartite(5, 5))
    assert rep.sep == 8 and rep.maxsep == 4
    assert rep.all_hold


def test_check_bounds_skips_excluded_orders():
    rep = check_bounds(path_graph(8))
    named = {c.name: c for c in rep.checks}
    assert named["floor_log2_le_maxsep"].holds is None
    assert "excluded" in named["floor_log2_le_maxsep"].note
    assert 8 in LOG_LB_EXCLUDED


def test_check_bounds_skips_over_cap():
    rep = check_bounds(path_graph(20), maxsep_cap=14)
    named = {c.name: c for c in rep.checks}
    assert rep.maxsep is None
    assert named["sep_le_ceil_log2_n_times_maxsep"].holds is None
    assert named["maxsep_le_sep"].holds is None
    assert rep.sep is not None  # sep cap is 64


@pytest.mark.parametrize("n", [0, 1])
def test_check_bounds_log_ratio_holds_at_orders_0_and_1(n):
    # Both sides are 0: sep = 0 and ceil(log2 n) = 0.
    named = {c.name: c for c in check_bounds(Graph.from_edges(n, [])).checks}
    check = named["sep_le_ceil_log2_n_times_maxsep"]
    assert (check.lhs, check.rhs, check.holds) == (0, 0, True)


def test_check_bounds_requires_twin_free():
    with pytest.raises(NotTwinFree):
        check_bounds(Graph.from_edges(2, [(0, 1)]))
