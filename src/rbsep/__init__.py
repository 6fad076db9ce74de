"""Red-blue separation in graphs.

Given a graph with red/blue-colored vertices, a red-blue separating set S
gives every red vertex a code (closed neighborhood intersected with S)
different from every blue vertex's code. The package provides exact solvers
for the minimum such set, for the uncolored all-pairs variant, for the
domination number, and for the worst coloring cost; polynomial constructions
and greedy approximations with recorded guarantees; tree-specific
constructions; generators for the extremal families and hardness-reduction
instances; and a CLI for reproducible experiments.
"""

from .approx import (
    ApproxReport,
    SetSystem,
    bounded_degree_construct,
    greedy_set_cover,
    reduce_rb_to_set_cover,
    sep_all_pairs_greedy,
    sep_rb_greedy,
    triangle_free_construct,
    xp_exact_small_class,
)
from .bounds import BoundsReport, check_bounds
from .exact import (
    MaxSepReport,
    SolveReport,
    bondy_remove,
    gamma_exact,
    maxsep_exact,
    sep_exact,
    sep_exact_allow_twins,
    sep_rb_exact,
)
from .errors import RBSepError
from .generators import (
    GeneratorSpec,
    SatInstance,
    gen_complete_multipartite,
    gen_copies_plus_independent,
    gen_half_graph_complement,
    gen_maxsep_gadget,
    gen_power_set_graph,
    gen_random_tree,
    gen_random_twin_free,
    gen_spider,
    gen_split_from_set_cover,
    gen_two_copies_ds,
)
from .graphs import (
    Coloring,
    Graph,
    GraphProfile,
    TwinReport,
    graph_profile,
    twin_classes,
    verify_dominating,
    verify_rb_separating,
    verify_separating,
)
from .trees import (
    TreeProfile,
    parity_sets,
    single_red_sep,
    tree_all_pairs_construct,
    tree_profile,
    tree_rb_construct,
)

__version__ = "0.1.0"
