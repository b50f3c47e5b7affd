"""magiclab: distance magic and S-magic graph labelings.

Builders for the labeled graph families, label-rectangle constructions,
an exact verifier, closed-form distance magic indices with witnesses, and
a complete backtracking search that double-checks everything at desk scale.
"""

from ._kernels import BACKEND
from .families import (
    EitVerdict,
    HypothesisError,
    IndexResult,
    NotMagicError,
    NotRegularError,
    eit_feasible,
    eit_schedule,
    theta_hnp,
    theta_lex_blowup,
    theta_m_cycle_lex,
    theta_m_hnp,
)
from .graphs import (
    FamilySpec,
    Graph,
    build_circulant,
    build_cycle,
    build_multipartite,
    disjoint_union,
    empty_graph,
    emit_edge_list,
    graph_from_json,
    graph_to_json,
    lex_product,
    parse_edge_list,
    regular_degree,
)
from .labeling import (
    HnpBounds,
    Labeling,
    LabelSet,
    NonIntegerConstant,
    VerificationReport,
    admissible_deleted_labels,
    constant_bounds,
    hnp_constant_bounds,
    regular_constant,
    verify_blowup,
    verify_s_magic,
    vertex_weight,
)
from .rectangles import (
    Rectangle,
    balanced_even,
    balanced_odd,
    case1,
    case2,
    case3,
    column_sums,
    complement,
    construct_deleted,
    kotzig,
    split,
    validate,
)
from .search import (
    SearchBudgetExceeded,
    SearchConfig,
    compute_index,
    enumerate_labelings,
    find_labeling,
)

__version__ = "0.1.0"
