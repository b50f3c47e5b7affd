"""magiclab: distance magic and S-magic graph labelings.

Builders for the labeled graph families, label-rectangle constructions,
an exact verifier, closed-form distance magic indices with witnesses, and
a complete backtracking search that double-checks everything at desk scale.

Every name below is imported from its module on first use, so a process
loads only the modules it reaches: `from magiclab import Graph` does not
load the search kernel.
"""

import importlib

__version__ = "0.1.0"

# each module of the package, with the names it exports from here
_EXPORTS = {
    "_kernels": ("BACKEND",),
    "families": (
        "EitVerdict",
        "HypothesisError",
        "IndexResult",
        "NotMagicError",
        "NotRegularError",
        "eit_feasible",
        "eit_schedule",
        "theta_hnp",
        "theta_lex_blowup",
        "theta_m_cycle_lex",
        "theta_m_hnp",
    ),
    "graphs": (
        "Graph",
        "build_circulant",
        "build_cycle",
        "build_multipartite",
        "disjoint_union",
        "empty_graph",
        "emit_edge_list",
        "graph_from_json",
        "graph_to_json",
        "lex_product",
        "parse_edge_list",
        "regular_degree",
    ),
    "labeling": (
        "HnpBounds",
        "Labeling",
        "LabelSet",
        "NonIntegerConstant",
        "VerificationReport",
        "admissible_deleted_labels",
        "constant_bounds",
        "hnp_constant_bounds",
        "regular_constant",
        "verify_blowup",
        "verify_s_magic",
        "vertex_weight",
    ),
    "rectangles": (
        "Rectangle",
        "balanced_even",
        "balanced_odd",
        "case1",
        "case2",
        "case3",
        "column_sums",
        "complement",
        "construct_deleted",
        "kotzig",
        "split",
        "validate",
    ),
    "search": (
        "SearchBudgetExceeded",
        "SearchConfig",
        "compute_index",
        "enumerate_labelings",
        "find_labeling",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME) + sorted(m for m in _EXPORTS if not m.startswith("_"))


def __getattr__(name: str):
    # not cached here: each lookup reads the home module, so the package
    # never holds a stale copy of a name that was rebound there
    module = _HOME.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = importlib.import_module(f"{__name__}.{module}")
    return home if module == name else getattr(home, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_EXPORTS})
